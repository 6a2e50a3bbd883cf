"""Optimization configurations (the bars of Fig. 9, and the two endpoints).

Each configuration is a combination of the individual optimizations the paper
introduces; ``FIG9_STAGES`` lists them in the cumulative order of the
step-by-step computation study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..perfmodel.exchange import SCHEMES


@dataclass(frozen=True)
class OptimizationConfig:
    """One point in the optimization space.

    Attributes
    ----------
    name:
        label used in reports (matches the paper's bar labels where relevant).
    use_framework:
        run the Deep Potential through the NN framework (the TensorFlow
        stand-in) with its fixed per-session overhead and redundant kernels.
    precision:
        ``"double"``, ``"mix-fp32"`` or ``"mix-fp16"``.
    gemm_backend:
        ``"blas"`` or ``"sve"`` (hand-written tall-and-skinny kernel).
    pretranspose:
        convert the backward GEMM-NT products into GEMM-NN by pre-transposing
        parameter matrices.
    compressed_embedding:
        use the tabulated (compressed) embedding nets (both the baseline of
        Guo et al. and the optimized code enable this).
    batched_inference:
        evaluate all atoms of a thread as one batched call (the vectorized
        hot path); ``False`` models atom-at-a-time inference, where every
        fitting-net GEMM degenerates to M=1.
    comm_scheme:
        a Fig. 7 bar label, a key of :data:`repro.perfmodel.exchange.SCHEMES`.
    load_balance:
        intra-node load balance (node-box atom split).
    threading:
        ``"openmp"`` or ``"threadpool"``.
    memory_pool:
        pool RDMA buffer registrations (avoids NIC-cache thrashing).
    threads_per_rank:
        compute threads per rank (the paper runs 4 ranks of 12 per node; the
        rank block comes from :class:`~repro.parallel.topology.RankTopology`).
    """

    name: str
    use_framework: bool = False
    precision: str = "mix-fp16"
    gemm_backend: str = "sve"
    pretranspose: bool = True
    compressed_embedding: bool = True
    batched_inference: bool = True
    comm_scheme: str = "lb-4l"
    load_balance: bool = True
    threading: str = "threadpool"
    memory_pool: bool = True
    threads_per_rank: int = 12

    def __post_init__(self) -> None:
        if self.precision not in ("double", "mix-fp32", "mix-fp16"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.gemm_backend not in ("blas", "sve"):
            raise ValueError(f"unknown GEMM backend {self.gemm_backend!r}")
        if self.threading not in ("openmp", "threadpool"):
            raise ValueError(f"unknown threading runtime {self.threading!r}")
        if self.comm_scheme not in SCHEMES:
            raise KeyError(f"unknown communication scheme {self.comm_scheme!r}; available: {list(SCHEMES)}")

    def derive(self, name: str, **changes) -> "OptimizationConfig":
        """A copy with some fields changed (used to build the stage ladder)."""
        return replace(self, name=name, **changes)


def baseline_config() -> OptimizationConfig:
    """The original DeePMD-kit configuration (Guo et al. 2022 on Fugaku)."""
    return OptimizationConfig(
        name="baseline",
        use_framework=True,
        precision="double",
        gemm_backend="blas",
        pretranspose=False,
        compressed_embedding=True,
        comm_scheme="baseline",
        load_balance=False,
        threading="openmp",
        memory_pool=False,
    )


def optimized_config() -> OptimizationConfig:
    """The fully optimized configuration (this paper)."""
    return OptimizationConfig(name="comm_lb")


def fig9_stage_configs() -> list[OptimizationConfig]:
    """The cumulative optimization ladder of Fig. 9."""
    base = baseline_config()
    rmtf = base.derive("rmtf-fp64", use_framework=False, pretranspose=True)
    blas32 = rmtf.derive("blas-fp32", precision="mix-fp32")
    sve32 = blas32.derive("sve-fp32", gemm_backend="sve")
    sve16 = sve32.derive("sve-fp16", precision="mix-fp16")
    comm_nolb = sve16.derive(
        "comm_nolb",
        comm_scheme="lb-4l",
        threading="threadpool",
        memory_pool=True,
        load_balance=False,
    )
    comm_lb = comm_nolb.derive("comm_lb", load_balance=True)
    return [base, rmtf, blas32, sve32, sve16, comm_nolb, comm_lb]


#: Stage names in the order of the Fig. 9 bars.
FIG9_STAGES = [cfg.name for cfg in fig9_stage_configs()]
