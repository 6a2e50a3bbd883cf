"""The domain-decomposed engine: everything one MD step *executes* over ranks.

* :mod:`topology` — how MPI ranks map onto nodes, NUMA domains and the
  logical 3D torus,
* :mod:`decomposition` — LAMMPS-style spatial domain decomposition and atom
  assignment, with the two statistics containers the engine reports
  (:class:`DecompositionStats`, :class:`LoadBalanceStats`), the SDMR metric
  and the even node-box split,
* :mod:`ghost` — ghost-shell geometry (which ranks/nodes need which slabs,
  multi-layer shells when the sub-box is smaller than the cutoff),
* :mod:`exchange` — the executable ghost-delivery rules (p2p and node-based)
  and the bytes-per-ghost convention of the engine's counters,
* :mod:`domain` — one rank's state and the owned-then-ghost layout of its
  arrays (private memory, or the rank's shared-slab rows),
* :mod:`evaluators` — the per-strategy owner-computes force evaluation of
  one rank, run by parent and workers alike,
* :mod:`executor` — who runs the per-rank force stages: the sequential
  golden reference, or concurrent forked worker processes over
  shared-memory slabs (bit-identical by the fixed-order gather),
* :mod:`threadpool` — the persistent worker pool the process executor
  dispatches through,
* :mod:`engine` — the domain-decomposed MD engine: real velocity-Verlet
  dynamics over simulated ranks with ghost exchange, reverse force scatter,
  atom migration and node-box load balancing (``node_balance=True``), pinned
  to the serial loop by the cross-rank parity suite.

Nothing here knows the Fugaku machine model.  What the same schemes, load
balance and thread pool *cost* on that machine is priced by
:mod:`repro.perfmodel` (communication-scheme planners, the intra-node
load-balance model, RDMA memory pooling, threading overhead), and
:mod:`repro.perfmodel.reconcile` is the one place a running engine meets the
model.  The dependency points one way — ``perfmodel`` imports ``parallel``,
never the reverse — pinned by ``tests/test_analysis_rules.py``.
"""

from .topology import RankTopology
from .decomposition import SpatialDecomposition
from .threadpool import PersistentWorkerPool
from .exchange import GhostExchange
from .engine import DomainDecomposedSimulation
from .executor import MultiprocessRankExecutor, RankExecutor

__all__ = [
    "RankTopology",
    "SpatialDecomposition",
    "PersistentWorkerPool",
    "GhostExchange",
    "DomainDecomposedSimulation",
    "RankExecutor",
    "MultiprocessRankExecutor",
]
