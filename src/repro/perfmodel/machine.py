"""Analytic model of the Fugaku supercomputer: one spec and its prices.

None of the paper's hardware (A64FX nodes, the TofuD 6D torus, uTofu RDMA,
the NIC registration cache) is available in this environment, so the machine
is modelled: the functions here turn *counts* produced by the real algorithms
(message counts and sizes from the actual domain decomposition, FLOP counts
from the actual model configuration, memory-copy volumes from the actual atom
layout) into *time*.  Each takes the part of a :class:`FugakuSpec` it prices
as its first argument, so a second machine is a second spec instance.

The model is deliberately simple — latency/bandwidth (alpha-beta) costs with
explicit concurrency limits (6 TNIs per node, 12 threads per CMG) — because
that is the level of fidelity the paper's own analysis uses (hop latency,
per-message counts, NoC bandwidth, NIC cache capacity).

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
import heapq


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


# -- A64FX compute -------------------------------------------------------------
#
# FLOP counts become seconds through sustained-efficiency factors for the GEMM
# shapes of Deep Potential inference.  They encode the paper's measured ratios
# rather than vendor peaks:
#
# * tall-and-skinny (M <= 3) GEMMs run at a few percent of peak with the BLAS
#   library; the hand-written sve-gemm is 1.4x faster;
# * MIX-fp32 gives 1.6x over fp64 and MIX-fp16 a further 1.5x (paper §IV-C) —
#   below the theoretical 2x per halving because the surrounding non-GEMM work
#   does not speed up as much.

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


def gemm_time(
    node: A64FXSpec,
    m: int,
    n: int,
    k: int,
    dtype: str = "fp64",
    backend: str = "blas",
) -> float:
    """Time (s) of one general ``m x k @ k x n`` product on one core."""
    if min(m, n, k) <= 0:
        return 0.0
    flops = 2.0 * m * n * k
    eff = (TALL_SKINNY_EFFICIENCY if m <= 3 else REGULAR_EFFICIENCY)[backend]
    speed = PRECISION_SPEEDUP.get(dtype, 1.0)
    return flops / (node.peak_flops_per_core_fp64 * eff * speed)


def fitting_gemm_time(
    node: A64FXSpec,
    m: int,
    n: int,
    k: int,
    dtype: str = "fp64",
    backend: str = "blas",
    transposed_b: bool = False,
) -> float:
    """Time of one fitting-net GEMM with ``m`` atoms batched per thread.

    Unlike :func:`gemm_time` (general-purpose shapes), the fitting-net model
    uses a *smooth, weak* dependence of the sustained efficiency on M:
    measurements behind the paper show the per-atom cost changes little
    between the 1-2 atoms/core strong-scaling limit and the bulk case, with
    the hand-written sve kernel recovering a further 1.4x for M <= 3.
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
    time = flops / (node.peak_flops_per_core_fp64 * eff * speed)
    if transposed_b and m <= SVE_M_THRESHOLD:
        time *= NT_PENALTY
    return time


def vector_time(node: A64FXSpec, flops: float, efficiency: float, dtype: str = "fp64") -> float:
    """Time of generic (non-GEMM) vector work on one core at ``efficiency``."""
    if flops <= 0:
        return 0.0
    speed = PRECISION_SPEEDUP.get(dtype, 1.0)
    return flops / (node.peak_flops_per_core_fp64 * efficiency * speed)


def threading_overhead(machine: FugakuSpec, kind: str) -> float:
    """Per-step parallel-region overhead of an ``"openmp"`` or ``"threadpool"`` runtime."""
    per_region = {
        "openmp": machine.openmp_region_overhead,
        "threadpool": machine.threadpool_region_overhead,
    }
    if kind not in per_region:
        raise ValueError("threading kind must be 'openmp' or 'threadpool'")
    return machine.parallel_regions_per_step * per_region[kind]


# -- ring bus (NoC) ----------------------------------------------------------------
#
# The node-based scheme relies on the A64FX ring bus: workers copy their atoms
# into shared memory owned by the leader(s), and received ghost atoms are
# scattered back.  A copy pays a latency per transfer plus a bandwidth term,
# with concurrency capped by the number of copying threads (the paper shows
# that using all 24/48 threads of the leaders matters).  Gather and scatter
# have the same cost structure.


def noc_copy_time(node: A64FXSpec, bytes_per_rank: list[float], copy_threads: int = 12) -> float:
    """Time for every rank of a node to copy its block through shared memory.

    ``bytes_per_rank`` holds the payload contributed by each rank on the
    node; copies from different ranks proceed concurrently but share the
    ring-bus bandwidth, and each needs at least one latency.
    """
    if not bytes_per_rank:
        return 0.0
    copy_threads = max(1, copy_threads)
    total_bytes = float(sum(bytes_per_rank))
    # Bandwidth term: a single CMG's threads cannot saturate the ring bus;
    # concurrency across the node (up to the 48 threads the 4-leader
    # configuration uses) raises the achieved copy bandwidth.
    effective_bw = node.noc_bandwidth * min(1.0, 0.3 + copy_threads / 64.0)
    bandwidth_term = total_bytes / effective_bw
    latency_term = node.noc_latency * max(1.0, len(bytes_per_rank) / copy_threads)
    return latency_term + bandwidth_term


def noc_sync_time(node: A64FXSpec, n_syncs: int) -> float:
    """Intra-node synchronizations (shared-memory flags)."""
    return max(0, n_syncs) * node.intra_node_sync_latency


# -- TofuD network ---------------------------------------------------------------
#
# Fugaku's interconnect is a 6D torus/mesh (X, Y, Z, a, b, c) in which 12
# nodes form a cell; applications see a folded *logical 3D torus*, which is
# how LAMMPS-style domain decompositions map onto the machine.  A message is
# charged an injection overhead, a base latency plus a per-hop latency (hops
# on the logical torus), and a bandwidth term on the injection link; the
# concurrent messages of one node are spread over its TNIs.


def torus_hops(offset, dims) -> int:
    """Minimum hop distance of a node offset on a torus of ``dims`` (wraparound)."""
    total = 0
    for o, d in zip(offset, dims):
        delta = abs(int(o)) % d
        total += min(delta, d - delta)
    return total


def message_occupancy(
    network: TofuDSpec,
    n_bytes: float,
    use_rdma: bool = True,
    registration_penalty: float = 0.0,
) -> float:
    """Engine/CPU occupancy of one message (excludes wire latency).

    Occupancy is what serializes on a TNI: descriptor posting, the bandwidth
    term, and any NIC registration-cache penalty.  The wire latency is
    pipelined across messages and is charged once per round
    (:func:`wire_latency`).
    """
    if n_bytes < 0:
        raise ValueError("message size must be non-negative")
    post = network.rdma_post_overhead if use_rdma else network.mpi_post_overhead
    time = post + n_bytes / network.link_bandwidth + registration_penalty
    if not use_rdma:
        time *= network.mpi_overhead_factor
    return time


def wire_latency(network: TofuDSpec, hops: int = 1, use_rdma: bool = True) -> float:
    """End-to-end wire latency of one message over ``hops`` torus hops."""
    if hops < 0:
        raise ValueError("hop count must be non-negative")
    latency = network.hop_latency + max(0, hops - 1) * network.per_hop_latency
    if not use_rdma:
        latency *= network.mpi_overhead_factor
    return latency


def tni_makespan(network: TofuDSpec, message_times: list[float], threads: int | None = None) -> float:
    """Completion time of ``message_times`` over a node's RDMA engines.

    Each node has six TNIs that inject/receive concurrently; the paper binds
    six threads of each leader rank to individual TNIs.  ``threads`` caps
    concurrency below the TNI count when fewer communication threads than
    engines are used (the sg-lb-4l single-thread configuration of Fig. 7).
    Longest-processing-time list scheduling, exact for the uniform message
    sizes the ghost exchange produces.
    """
    if not message_times:
        return 0.0
    n_engines = network.n_tnis
    if threads is not None:
        n_engines = min(n_engines, int(threads))
    n_engines = max(1, n_engines)
    if n_engines == 1:
        return float(sum(message_times))
    heap = [0.0] * n_engines
    heapq.heapify(heap)
    for t in sorted(message_times, reverse=True):
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + t)
    return float(max(heap))


def nic_cache_penalty(cache: NICCacheSpec, registered_regions: int) -> float:
    """Expected extra time per message from NIC registration-cache misses.

    RDMA registers memory regions with the NIC, which caches their metadata
    on chip; beyond its capacity, entries spill to main memory and a message
    that misses pays an extra fetch.  With R registered regions and C cache
    entries a uniformly chosen region misses with probability
    ``max(0, 1 - C/R)`` (an LRU occupancy argument).  The paper's memory pool
    registers one region for all neighbours, which never misses.
    """
    if registered_regions <= cache.cache_entries:
        return 0.0
    return (1.0 - cache.cache_entries / registered_regions) * cache.miss_penalty
