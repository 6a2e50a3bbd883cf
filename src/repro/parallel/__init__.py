"""Parallelization layer: topology, decomposition, ghost regions, schemes.

This package reproduces the *structure* of the paper's parallel runtime:

* :mod:`topology` — how MPI ranks map onto nodes, NUMA domains and the
  logical 3D torus,
* :mod:`decomposition` — LAMMPS-style spatial domain decomposition and atom
  assignment (used both for communication plans and load-balance statistics),
* :mod:`ghost` — ghost-region geometry (which ranks/nodes need which slabs,
  multi-layer communication when the sub-box is smaller than the cutoff) and
  the ghost-count formulas of §III-C,
* :mod:`schemes` — the communication schemes compared in Fig. 7: the LAMMPS
  3-stage pattern, the p2p pattern, and the node-based parallelization scheme
  with 1/2/4 leaders, single-thread communication and the original-layout
  (ref) variant,
* :mod:`exchange` — the executable ghost-delivery rules (p2p and node-based)
  shared by the correctness checker and the engine,
* :mod:`simcomm` — an in-process execution of the ghost exchange used to
  verify that every scheme delivers exactly the atoms the receiving rank
  needs,
* :mod:`engine` — the domain-decomposed MD engine: real velocity-Verlet
  dynamics over simulated ranks with ghost exchange, reverse force scatter
  and atom migration, pinned to the serial loop by the cross-rank parity
  suite,
* :mod:`domain` — one rank's state and the owned-then-ghost layout of its
  arrays (private memory, or the rank's shared-slab rows),
* :mod:`evaluators` — the per-strategy owner-computes force evaluation of
  one rank, run by parent and workers alike,
* :mod:`executor` — who runs the per-rank force stages: the sequential
  golden reference, or concurrent forked worker processes over
  shared-memory slabs (bit-identical by the fixed-order gather),
* :mod:`loadbalance` — the intra-node load balancer and its SDMR statistics
  (Table III, Fig. 10), executable in the engine via ``node_balance=True``,
* :mod:`memory_pool` — RDMA registered-memory pooling (Fig. 8),
* :mod:`threadpool` — the persistent worker pool the process executor
  dispatches through, plus the OpenMP-vs-pool overhead model.
"""

from .topology import RankTopology
from .decomposition import SpatialDecomposition, DecompositionStats
from .ghost import (
    layers_for_cutoff,
    ghost_count_original,
    ghost_count_load_balanced,
    ghost_shell_ranks,
)
from .messages import Message, CommRound, CommunicationPlan
from .schemes import (
    CommScheme,
    ThreeStageScheme,
    P2PScheme,
    NodeBasedScheme,
    build_scheme,
    SCHEME_NAMES,
)
from .loadbalance import IntraNodeLoadBalancer, LoadBalanceStats, pair_time_model
from .memory_pool import RdmaBufferManager
from .threadpool import PersistentWorkerPool, ThreadingModel, WorkerError
from .exchange import GhostExchange, resolve_delivery_scheme, scheme_supports_node_box
from .simcomm import GhostExchangeSimulator
from .domain import RankDomain
from .engine import DomainDecomposedSimulation
from .executor import (
    EXECUTOR_NAMES,
    MultiprocessRankExecutor,
    RankExecutor,
    SequentialRankExecutor,
    SharedRankArrays,
    make_executor,
)

__all__ = [
    "RankTopology",
    "SpatialDecomposition",
    "DecompositionStats",
    "layers_for_cutoff",
    "ghost_count_original",
    "ghost_count_load_balanced",
    "ghost_shell_ranks",
    "Message",
    "CommRound",
    "CommunicationPlan",
    "CommScheme",
    "ThreeStageScheme",
    "P2PScheme",
    "NodeBasedScheme",
    "build_scheme",
    "SCHEME_NAMES",
    "IntraNodeLoadBalancer",
    "LoadBalanceStats",
    "pair_time_model",
    "RdmaBufferManager",
    "ThreadingModel",
    "PersistentWorkerPool",
    "WorkerError",
    "GhostExchange",
    "resolve_delivery_scheme",
    "scheme_supports_node_box",
    "GhostExchangeSimulator",
    "DomainDecomposedSimulation",
    "RankDomain",
    "RankExecutor",
    "SequentialRankExecutor",
    "MultiprocessRankExecutor",
    "SharedRankArrays",
    "make_executor",
    "EXECUTOR_NAMES",
]
