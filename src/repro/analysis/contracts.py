"""The machine-checkable house contracts consumed by :mod:`repro.analysis.rules`.

Every entry here encodes one of the ROADMAP's architecture notes as data the
AST rules can enforce.  The declarations are intentionally *explicit* — a new
golden site, hot-path registration or sanctioned dtype module is a reviewed
edit to this file (or a ``# reprolint:`` annotation in the source), never an
inference the linter makes on its own.  The worker-context declarations
retired with RL008: the contract that the parent keeps every comm step is
pinned at runtime by the exact sequential == process equality in
``tests/test_parallel_executor.py``.

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
