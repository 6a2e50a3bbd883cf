"""The machine-checkable house contracts consumed by :mod:`repro.analysis.rules`.

Every entry here encodes one of the ROADMAP's architecture notes as data the
AST rules can enforce.  The declarations are intentionally *explicit* — a new
golden site, hot-path registration or sanctioned dtype module is a reviewed
edit to this file (or a ``# reprolint:`` annotation in the source), never an
inference the linter makes on its own.

Path matching is by normalized POSIX suffix, so the same declarations work for
``src/repro/...`` on disk and for the synthetic filenames the rule self-tests
lint in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GoldenSite",
    "GOLDEN_SITES",
    "HOT_PATH_MARKER",
    "COLD_PATH_MARKER",
    "WORKER_ENTRYPOINTS",
    "WORKER_FORBIDDEN_CALLS",
    "WORKER_FORBIDDEN_CONSTRUCTORS",
    "SHARED_SLAB_COMPONENT",
    "ALLOCATING_CONSTRUCTORS",
    "DTYPE_SANCTIONED_SUFFIXES",
    "LOW_PRECISION_ATTRS",
    "PARALLEL_SCOPE",
    "SERVING_SCOPE",
    "PRODUCTION_SCOPE",
]


@dataclass(frozen=True)
class GoldenSite:
    """One frozen golden-reference region.

    ``path_suffix`` selects the file; ``qualname`` selects a function, method
    (``Class.method``) or whole class inside it — ``None`` freezes the entire
    module (the ``reference/scalar.py`` pattern).
    """

    path_suffix: str
    qualname: str | None
    note: str


#: The golden references of the ROADMAP architecture notes (PRs 1, 3, 5, 7, 9).
#: Each is frozen by its RL007 fingerprint so the parity pins keep comparing
#: an optimized path against genuinely un-optimized arithmetic.
GOLDEN_SITES: tuple[GoldenSite, ...] = (
    GoldenSite(
        "repro/reference/scalar.py",
        None,
        "PR 1: the per-atom scalar Deep Potential reference, pinned at 1e-10",
    ),
    GoldenSite(
        "repro/md/neighbor.py",
        "_brute_force_pairs",
        "PR 3: the O(N^2) pair-search reference the binned build is bitwise-confirmed against",
    ),
    GoldenSite(
        "repro/reference/deepmd.py",
        "tabulated_evaluate",
        "PR 5: the per-key table reference the batched Hermite kernel is pinned to at 1e-12",
    ),
    GoldenSite(
        "repro/parallel/executor.py",
        "SequentialRankExecutor",
        "PR 7: the in-process executor the multiprocess path must match bitwise",
    ),
    GoldenSite(
        "repro/serving/serial.py",
        None,
        "PR 9: the one-system-at-a-time serving reference the batched path is pinned to at 1e-10",
    ),
)

#: The in-source marker body registering a function as a per-step hot path;
#: the full directive goes on the ``def`` line or the line above it.
HOT_PATH_MARKER = "hot-path"

#: The boundary marker for RL006's call-graph propagation: ``# reprolint:
#: cold-path <reason>`` on a ``def`` (same binding rules as ``hot-path``)
#: declares that the function runs only on the rebuild/cache-build cadence, so
#: reachability from a hot path stops there instead of holding its body (and
#: everything it calls) to the no-allocation contract.  The reason is
#: mandatory, like every other exemption.
COLD_PATH_MARKER = "cold-path"

#: The functions whose bodies execute in *worker context* (RL008): the
#: persistent-pool subprocess entry of the multiprocess executor.
#: Everything reachable from it through the call graph is held to the PR 7
#: contract — the parent keeps every comm, integration and reduction step.
WORKER_ENTRYPOINTS: tuple[tuple[str, str], ...] = (
    ("repro/parallel/executor.py", "_worker_main"),
)

#: Parent-only primitives (matched on the last dotted component of a call):
#: ghost-exchange selection/delivery, the engine's comm steps, integrator
#: half-steps and thermostats, global reductions/gathers.  A worker-reachable function calling any of these forks the
#: comm/integration sequence out of the parent and silently un-pins the
#: bitwise sequential-vs-process parity.
WORKER_FORBIDDEN_CALLS: frozenset[str] = frozenset(
    {
        # GhostExchange API + engine comm steps (parent-only, PR 7)
        "p2p_selection",
        "node_selection",
        "p2p_neighbor_ranks",
        "node_peer_ranks",
        "node_neighbor_ranks",
        "deliver",
        "_exchange_ghosts",
        "_migrate",
        "_forward_halo",
        "_reverse_scatter_forces",
        "_refresh_ghost_positions",
        # integration + thermostat scheduling (parent-only, PR 4/7)
        "first_half",
        "second_half",
        "integrate_first_half",
        "integrate_second_half",
        "apply_thermostat",
        # global reductions (parent-only, PR 7)
        "sample_temperature",
        "capture_positions",
    }
)

#: Constructing a comm component in worker context is as much a fork of the
#: parent-owned exchange as calling one.
WORKER_FORBIDDEN_CONSTRUCTORS: frozenset[str] = frozenset({"GhostExchange"})

#: Attribute component naming the shared-memory slab bundle
#: (``SharedRankArrays`` travels as ``init.shared`` / ``self.shared``).
#: Worker-reachable code writing through a ``*.shared.*`` chain bypasses the
#: own-rank row views that make slab writes race-free.
SHARED_SLAB_COMPONENT = "shared"

#: NumPy constructors that allocate a fresh array every call — banned inside
#: registered hot paths (the static complement of ``bench_run_loop.py``'s
#: runtime allocation budget).  ``np.ufunc.at`` and out-less ``.astype`` are
#: handled structurally by the rule, not by this name set.
ALLOCATING_CONSTRUCTORS: frozenset[str] = frozenset(
    {"zeros", "empty", "ones", "full", "concatenate", "stack", "hstack", "vstack"}
)

#: The only production modules allowed to name a low-precision dtype (the PR 6
#: precision-policy boundary): policy definitions, the packed table cast and
#: the GEMM backend.
DTYPE_SANCTIONED_SUFFIXES: tuple[str, ...] = (
    "repro/deepmd/precision.py",
    "repro/deepmd/compression.py",
    "repro/deepmd/gemm.py",
)

#: Attribute names that count as low-precision dtype literals.
LOW_PRECISION_ATTRS: frozenset[str] = frozenset({"float32", "float16", "half"})

#: Path fragment scoping the fixed-order-reduction rule (the PR 7 bitwise
#: invariant lives in the parallel package).
PARALLEL_SCOPE = "repro/parallel/"

#: The serving package carries the same fixed-order contract (PR 9): a
#: request's segment reductions must not depend on which companions it was
#: batched with, so serving loops may not iterate unordered sets either.
SERVING_SCOPE = "repro/serving/"

#: Path fragment scoping production-tree-only rules (tests and benchmarks may
#: probe dtypes freely).
PRODUCTION_SCOPE = "repro/"


def in_production_tree(rel_path: str) -> bool:
    """True when ``rel_path`` lies inside the installed ``repro`` package."""
    return PRODUCTION_SCOPE in rel_path


def in_parallel_package(rel_path: str) -> bool:
    return PARALLEL_SCOPE in rel_path


def in_serving_package(rel_path: str) -> bool:
    return SERVING_SCOPE in rel_path


def is_dtype_sanctioned(rel_path: str) -> bool:
    return any(rel_path.endswith(suffix) for suffix in DTYPE_SANCTIONED_SUFFIXES)
