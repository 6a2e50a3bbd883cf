"""Hardware constants of the modelled Fugaku system.

Sources of the numbers:

* the paper itself (0.49 us point-to-point latency, 6 RDMA engines per node,
  48 compute cores in 4 CMGs at 2.2 GHz, 3.38 TFLOPS per node, ~4 ms
  TensorFlow session overhead, 15-27 % RDMA savings over MPI),
* public A64FX / Tofu Interconnect D documentation (HBM2 bandwidth 256 GB/s
  per CMG, 6.8 GB/s injection bandwidth per TNI, 10 network ports per node).

Where a value is not published (e.g. the NIC registration-cache capacity) it
is chosen so the paper's observed behaviour is reproduced (Fig. 8 starts to
degrade around 44 neighbours, i.e. ~88 registered regions) and documented as
such.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class A64FXSpec:
    """One A64FX processor (one Fugaku node)."""

    n_cmgs: int = 4
    compute_cores_per_cmg: int = 12
    clock_hz: float = 2.2e9
    #: double-precision FLOPs per core per cycle with SVE-512 (2 pipes x 8 lanes x FMA).
    flops_per_core_per_cycle_fp64: float = 32.0
    #: HBM2 bandwidth per CMG in bytes/s.
    hbm_bandwidth_per_cmg: float = 256.0e9
    #: sustainable ring-bus (NoC) bandwidth for cross-CMG copies, bytes/s.
    #: (well below the link peak: the copies are strided gather/scatter of
    #: per-atom structures, not streaming memcpy)
    noc_bandwidth: float = 15.0e9
    #: latency of a cross-CMG (cross-NUMA) transfer setup, seconds.
    noc_latency: float = 3.0e-7
    #: latency of an intra-node synchronization (flag in shared memory), seconds.
    intra_node_sync_latency: float = 1.5e-6

    @property
    def peak_flops_per_core_fp64(self) -> float:
        return self.clock_hz * self.flops_per_core_per_cycle_fp64


@dataclass(frozen=True)
class TofuDSpec:
    """Tofu Interconnect D."""

    #: one-way latency of a nearest-neighbour put, seconds (paper: 0.49 us).
    hop_latency: float = 0.49e-6
    #: additional latency per extra hop in the torus, seconds.
    per_hop_latency: float = 0.10e-6
    #: injection bandwidth per TNI (RDMA engine), bytes/s.
    link_bandwidth: float = 6.8e9
    #: RDMA engines per node, usable concurrently.
    n_tnis: int = 6
    #: network ports per node (10 in the 6D torus).
    n_ports: int = 10
    #: CPU-side cost of posting one RDMA descriptor, seconds.
    rdma_post_overhead: float = 0.15e-6
    #: multiplicative overhead of the MPI API on the wire time (matching,
    #: rendezvous protocol) relative to uTofu RDMA.
    mpi_overhead_factor: float = 1.25
    #: per-message software overhead of the MPI path (two-sided matching,
    #: request management), seconds.
    mpi_post_overhead: float = 1.5e-6
    #: per-communication-round software overhead (pack/unpack + wait-all) for
    #: the MPI path and for the uTofu path, seconds.
    mpi_round_overhead: float = 2.5e-6
    rdma_round_overhead: float = 1.2e-6


@dataclass(frozen=True)
class NICCacheSpec:
    """Registration/connection cache of the TofuD controller.

    The capacity is not published; it is set so that per-neighbour
    registration starts thrashing around 44 neighbours (88 send+recv regions),
    matching Fig. 8.
    """

    cache_entries: int = 80
    #: extra cost of fetching an evicted entry from main memory, seconds.
    miss_penalty: float = 0.9e-6


#: CPU time for a leader thread to unpack one received packet into the
#: shared-memory atom structures, seconds.
UNPACK_PER_MESSAGE = 1.2e-6


@dataclass(frozen=True)
class FugakuSpec:
    """The full machine model."""

    node: A64FXSpec = field(default_factory=A64FXSpec)
    network: TofuDSpec = field(default_factory=TofuDSpec)
    nic_cache: NICCacheSpec = field(default_factory=NICCacheSpec)
    total_nodes: int = 158_976

    #: fixed framework (TensorFlow) overhead per session run, seconds (paper: ~4 ms).
    framework_overhead: float = 4.0e-3
    #: multiplier on kernel work due to redundant framework kernels
    #: (gradient graphs, slicing/concatenation, dynamic allocation).
    framework_kernel_factor: float = 1.8
    #: OpenMP parallel-region fork/join overhead, seconds.
    openmp_region_overhead: float = 12.0e-6
    #: persistent thread-pool dispatch overhead, seconds.
    threadpool_region_overhead: float = 1.5e-6
    #: number of parallel regions per MD step in the DeePMD pair computation.
    parallel_regions_per_step: int = 6


#: The default machine used across the benchmarks.
FUGAKU = FugakuSpec()
