"""The one executed GEMM of the framework-free kernels, plus its accounting.

:class:`GemmBackend` multiplies with NumPy at the compute precision the
caller asks for and records the work in :class:`GemmStats`: FLOPs (in total
and per dtype), calls, and the bytes of operands it had to cast on the way
in.  The harness and the precision tests read those counters.

§III-B.2 of the paper's hand-written SVE-512 kernel for tall-and-skinny
fitting GEMMs (M <= 3) and its NT -> NN pre-transposition are *priced*, not
executed: :func:`repro.perfmodel.machine.fitting_gemm_time` and
:mod:`repro.perfmodel.kernels` model them.  The backward pass here always
takes the pre-transposed NN product (see
:meth:`repro.deepmd.networks.FastMLP.backward_input`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: dtype aliases accepted by the precision policies.
DTYPES = {
    "fp64": np.float64,
    "fp32": np.float32,
    "fp16": np.float16,
}


@dataclass
class GemmStats:
    """Accumulated accounting of GEMM work."""

    flops: float = field(default=0.0, init=False)
    flops_by_dtype: dict[str, float] = field(default_factory=dict, init=False)
    calls: int = field(default=0, init=False)
    #: bytes of operand data down/up-cast *inside* :meth:`GemmBackend.matmul`
    #: because an operand arrived in a dtype other than the compute dtype.
    #: The true mixed-precision fast path pre-casts its parameter matrices
    #: once (see :meth:`repro.deepmd.networks.FastMLP.operands`), so in steady
    #: state this counts only activation casts — the regression tests pin it.
    cast_bytes: float = field(default=0.0, init=False)

    def reset(self) -> None:
        self.flops = 0.0
        self.flops_by_dtype.clear()
        self.calls = 0
        self.cast_bytes = 0.0


#: :data:`DTYPES` inverted, keyed by ``np.dtype``.
_DTYPE_NAMES = {np.dtype(dt): name for name, dt in DTYPES.items()}


def _dtype_name(dtype) -> str:
    dt = np.dtype(dtype)
    return _DTYPE_NAMES.get(dt) or str(dt)


@dataclass
class GemmBackend:
    """Executes (and accounts) the GEMM calls of the fast kernels."""

    stats: GemmStats = field(default_factory=GemmStats, init=False)

    def matmul(self, a: np.ndarray, b: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Compute ``a @ b`` of two 2-D arrays at the compute precision ``dtype``.

        Inputs not already at that precision are cast (the cast traffic is
        charged to ``stats.cast_bytes``); the product is accumulated and
        returned at that precision, so low-precision activations flow between
        layers without a round trip through float64.

        Callers on the hot path are expected to supply operands *already* in
        the compute dtype (pre-cast parameter matrices, native activations);
        the per-call ``astype`` here is a compatibility fallback, not the
        production route.
        """
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("GemmBackend.matmul expects 2-D operands")
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"inner dimensions mismatch: {a.shape} x {b.shape}")

        dt = np.dtype(dtype)
        stats = self.stats
        if a.dtype != dt:
            stats.cast_bytes += float(a.nbytes)
            a = a.astype(dt, copy=False)
        if b.dtype != dt:
            stats.cast_bytes += float(b.nbytes)
            b = b.astype(dt, copy=False)
        out = a @ b
        flops = 2.0 * m * n * k
        name = _DTYPE_NAMES.get(dt) or str(dt)
        stats.flops += flops
        stats.flops_by_dtype[name] = stats.flops_by_dtype.get(name, 0.0) + flops
        stats.calls += 1
        return out

    def reset_stats(self) -> None:
        self.stats.reset()
