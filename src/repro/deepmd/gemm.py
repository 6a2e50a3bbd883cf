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

    def record(self, m: int, n: int, k: int, dtype: str) -> None:
        flops = 2.0 * m * n * k
        self.flops += flops
        self.flops_by_dtype[dtype] = self.flops_by_dtype.get(dtype, 0.0) + flops
        self.calls += 1

    def reset(self) -> None:
        self.flops = 0.0
        self.flops_by_dtype.clear()
        self.calls = 0
        self.cast_bytes = 0.0


def _dtype_name(dtype) -> str:
    for name, dt in DTYPES.items():
        if np.dtype(dtype) == np.dtype(dt):
            return name
    return str(np.dtype(dtype))


@dataclass
class GemmBackend:
    """Executes (and accounts) the GEMM calls of the fast kernels."""

    stats: GemmStats = field(default_factory=GemmStats, init=False)

    def matmul(self, a: np.ndarray, b: np.ndarray, dtype=np.float64, native_out: bool = False) -> np.ndarray:
        """Compute ``a @ b``.

        ``dtype`` is the compute precision: inputs not already at that
        precision are cast (the cast traffic is charged to
        ``stats.cast_bytes``) and the product is accumulated at that
        precision.  With ``native_out=True`` — the mixed-precision fast path —
        the result stays in the compute dtype so low-precision activations
        flow between layers without a round trip through float64; otherwise
        the result is returned in float64 so downstream bookkeeping stays
        simple (the precision loss has already happened, which is what
        matters for accuracy experiments).

        Callers on the hot path are expected to supply operands *already* in
        the compute dtype (pre-cast parameter matrices, native activations);
        the per-call ``astype`` here is a compatibility fallback, not the
        production route.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("GemmBackend.matmul expects 2-D operands")
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"inner dimensions mismatch: {a.shape} x {b.shape}")

        dt = np.dtype(dtype)
        if a.dtype != dt:
            self.stats.cast_bytes += float(a.nbytes)
        if b.dtype != dt:
            self.stats.cast_bytes += float(b.nbytes)
        out = a.astype(dt, copy=False) @ b.astype(dt, copy=False)
        self.stats.record(m, n, k, _dtype_name(dtype))
        if native_out:
            return out
        return out.astype(np.float64, copy=False)

    def reset_stats(self) -> None:
        self.stats.reset()
