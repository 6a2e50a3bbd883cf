"""Compute-time model of one A64FX node.

Converts FLOP counts into seconds using sustained-efficiency factors for the
GEMM shapes that occur in Deep Potential inference.  The efficiencies encode
the paper's measured ratios rather than vendor peaks:

* tall-and-skinny (M <= 3) GEMMs run at a few percent of peak with the BLAS
  library; the hand-written sve-gemm is 1.4x faster;
* MIX-fp32 gives 1.6x over fp64 and MIX-fp16 a further 1.5x (paper §IV-C) —
  below the theoretical 2x per halving because the surrounding non-GEMM work
  does not speed up as much.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .specs import A64FXSpec


#: sustained fraction of per-core peak for tall-and-skinny GEMMs.
TALL_SKINNY_EFFICIENCY = {"blas": 0.045, "sve": 0.063}
#: sustained fraction of per-core peak for regular (large-M) GEMMs.
REGULAR_EFFICIENCY = {"blas": 0.55, "sve": 0.55}
#: throughput multiplier relative to fp64 for each compute precision.
PRECISION_SPEEDUP = {"fp64": 1.0, "fp32": 1.6, "fp16": 2.4}
#: penalty factor for NT (transposed-B) GEMMs on small matrices (paper: halved).
NT_PENALTY = 2.0
#: M dimension up to which the hand-written sve kernel engages.
SVE_M_THRESHOLD = 3


@dataclass
class A64FXNode:
    """Kernel-time model for one node (or a fraction of it)."""

    spec: A64FXSpec = field(default_factory=A64FXSpec)

    # -- GEMM ------------------------------------------------------------------
    def gemm_time(
        self,
        m: int,
        n: int,
        k: int,
        dtype: str = "fp64",
        backend: str = "blas",
        transposed_b: bool = False,
        cores: int = 1,
    ) -> float:
        """Time (s) of one ``m x k @ k x n`` product on ``cores`` cores."""
        if min(m, n, k) <= 0:
            return 0.0
        flops = 2.0 * m * n * k
        tall_skinny = m <= 3
        eff = (TALL_SKINNY_EFFICIENCY if tall_skinny else REGULAR_EFFICIENCY)[backend]
        if backend == "blas" and tall_skinny:
            # The sve kernel only exists for the tall-skinny case; elsewhere both
            # backends call the library.
            pass
        speed = PRECISION_SPEEDUP.get(dtype, 1.0)
        rate = cores * self.spec.peak_flops_per_core_fp64 * eff * speed
        time = flops / rate
        if transposed_b and tall_skinny:
            time *= NT_PENALTY
        return time

    def fitting_gemm_time(
        self,
        m: int,
        n: int,
        k: int,
        dtype: str = "fp64",
        backend: str = "blas",
        transposed_b: bool = False,
    ) -> float:
        """Time of one fitting-net GEMM with ``m`` atoms batched per thread.

        Unlike :meth:`gemm_time` (general-purpose shapes), the fitting-net
        model uses a *smooth, weak* dependence of the sustained efficiency on
        M: measurements behind the paper show the per-atom cost changes little
        between the 1-2 atoms/core strong-scaling limit and the bulk case,
        with the hand-written sve kernel recovering a further 1.4x for M <= 3.
        """
        if min(m, n, k) <= 0:
            return 0.0
        flops = 2.0 * m * n * k
        if m <= SVE_M_THRESHOLD and backend == "sve":
            base = TALL_SKINNY_EFFICIENCY["sve"]
        else:
            base = TALL_SKINNY_EFFICIENCY["blas"]
        eff = min(REGULAR_EFFICIENCY["blas"], base * (1.0 + 0.02 * (min(m, 16) - 1)))
        speed = PRECISION_SPEEDUP.get(dtype, 1.0)
        time = flops / (self.spec.peak_flops_per_core_fp64 * eff * speed)
        if transposed_b and m <= SVE_M_THRESHOLD:
            time *= NT_PENALTY
        return time

    def flops_time(self, flops: float, dtype: str = "fp64", efficiency: float = 0.25, cores: int = 1) -> float:
        """Time of generic (non-GEMM) vector work at the given efficiency."""
        if flops <= 0:
            return 0.0
        speed = PRECISION_SPEEDUP.get(dtype, 1.0)
        rate = cores * self.spec.peak_flops_per_core_fp64 * efficiency * speed
        return flops / rate
