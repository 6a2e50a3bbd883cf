"""RL003–RL007: the house contracts as AST rules.

Each rule encodes one ROADMAP architecture note (see :mod:`.contracts` for
the declared sites); suppression, pragma bookkeeping and formatting live in
:mod:`.reprolint`.  RL003–RL005 are per-file :class:`Rule` detectors yielding
``(line, message)``; RL006 and RL007 are whole-program :class:`ProgramRule`
detectors over the :class:`~repro.analysis.reprolint.Project` — its call
graph and golden fingerprints — yielding ``(rel_path, line, message)``.
The retired ids (RL001, RL002, RL008) are not reused, and their pragma slugs
are RL000 unknown-slug findings.
"""

from __future__ import annotations

import ast

from . import contracts
from .callgraph import own_nodes
from .fingerprint import find_site_region, golden_site_key, region_fingerprint
from .project import module_name_for
from .reprolint import (
    ParsedFile,
    ProgramRule,
    Project,
    Rule,
    call_name,
    dotted_name,
    is_numpy_root,
)

__all__ = [
    "BackendPurityRule",
    "FixedOrderReductionRule",
    "DtypeDisciplineRule",
    "TransitiveHotPathRule",
    "GoldenDriftRule",
    "ALL_RULES",
    "PROGRAM_RULES",
    "allocation_findings",
]


# ---------------------------------------------------------------------------
# The allocator idioms RL006 looks for
# ---------------------------------------------------------------------------


def allocation_findings(node: ast.Call):
    """``(line, description)`` for each allocator idiom in one call node.

    What RL006 flags in a hot path and everything the call graph proves it
    reaches: ``np.zeros/empty/...`` constructors, ``np.ufunc.at`` scalar
    scatters, and out-less ``.astype`` copies.
    """
    # .astype is matched structurally: the receiver may be any expression
    # (a chained reshape, a subscript), which a dotted-name resolve misses
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        if not _astype_copy_false(node):
            yield node.lineno, "performs an out-less .astype() copy"
        return
    name = call_name(node)
    if name is None:
        return
    parts = name.split(".")
    tail = parts[-1]
    if (
        is_numpy_root(name)
        and len(parts) == 2
        and tail in contracts.ALLOCATING_CONSTRUCTORS
    ):
        yield node.lineno, f"allocates via {name}() every call"
    elif is_numpy_root(name) and len(parts) == 3 and tail == "at":
        yield (
            node.lineno,
            f"uses the {name} scalar scatter loop "
            "(use the bincount scatter_add_* idiom)",
        )


def _astype_copy_false(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "copy" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False


# ---------------------------------------------------------------------------
# RL003 — backend purity
# ---------------------------------------------------------------------------


class BackendPurityRule(Rule):
    """``EngineBackend`` implementations must stay thin.

    The PR 4 invariant: the step sequence, report assembly, trajectory
    capture and thermostat *scheduling* have exactly one implementation site
    (``md/stepping.py``).  A backend that grows its own stepping loop,
    constructs a ``SimulationReport`` or captures trajectory frames forks the
    run loop and silently un-pins the cross-rank parity suite.
    """

    rule_id = "RL003"
    slug = "backend"

    _LOOP_DRIVERS = frozenset(
        {"integrate_first_half", "integrate_second_half", "compute_forces"}
    )

    def applies(self, parsed: ParsedFile) -> bool:
        return not parsed.rel_path.endswith("repro/md/stepping.py")

    def check(self, parsed: ParsedFile):
        for class_qualname, cls in parsed.classes:
            if not self._is_backend(cls):
                continue
            yield from self._check_backend(cls, class_qualname)

    @staticmethod
    def _is_backend(cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            name = dotted_name(base)
            if name is not None and name.rsplit(".", 1)[-1] == "EngineBackend":
                return True
        return False

    def _check_backend(self, cls: ast.ClassDef, class_qualname: str):
        for node in ast.walk(cls):
            if isinstance(node, (ast.For, ast.While)):
                driver = self._loop_driver_call(node)
                if driver is not None:
                    yield (
                        node.lineno,
                        f"backend {class_qualname} drives {driver}() from its own "
                        "loop; the stepping sequence lives only in md/stepping.py",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and name.rsplit(".", 1)[-1] == "SimulationReport":
                    yield (
                        node.lineno,
                        f"backend {class_qualname} assembles a SimulationReport; "
                        "report assembly belongs to SteppingLoop",
                    )
                elif name is not None and name.endswith("trajectory.append"):
                    yield (
                        node.lineno,
                        f"backend {class_qualname} captures trajectory frames; "
                        "capture cadence belongs to SteppingLoop",
                    )
        yield from self._check_thermostat_calls(cls, class_qualname)

    def _loop_driver_call(self, loop: ast.AST) -> str | None:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and name.rsplit(".", 1)[-1] in self._LOOP_DRIVERS:
                    return name.rsplit(".", 1)[-1]
        return None

    @staticmethod
    def _check_thermostat_calls(cls: ast.ClassDef, class_qualname: str):
        """``thermostat.apply`` may only run inside the protocol hook."""
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.endswith("apply_thermostat"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name is not None and name.endswith("thermostat.apply"):
                        yield (
                            node.lineno,
                            f"backend {class_qualname}.{method.name} applies the "
                            "thermostat outside the apply_thermostat hook",
                        )


# ---------------------------------------------------------------------------
# RL004 — fixed-order reductions
# ---------------------------------------------------------------------------


class FixedOrderReductionRule(Rule):
    """No iteration over set-typed collections in the parallel or serving packages.

    The PR 7 bitwise invariant: every gather/reduction iterates ranks in
    fixed index order.  A ``for`` loop (or comprehension) over a ``set`` /
    ``frozenset`` has hash order, which varies across processes — wrap the
    collection in ``sorted(...)`` or keep it a list.  PR 9 extends the scope
    to the serving package, whose per-system segment reductions carry the
    same promise: a request's numbers must not depend on the iteration order
    of whatever companions it happened to be batched with.
    """

    rule_id = "RL004"
    slug = "order"

    def applies(self, parsed: ParsedFile) -> bool:
        return contracts.in_parallel_package(parsed.rel_path) or contracts.in_serving_package(
            parsed.rel_path
        )

    def check(self, parsed: ParsedFile):
        # module level plus each function scope gets its own set-name table
        scopes: list[ast.AST] = [parsed.tree] + [node for _, node in parsed.functions]
        for scope in scopes:
            set_names = self._set_assigned_names(scope)
            for node in self._own_nodes(scope):
                iterables = []
                if isinstance(node, ast.For):
                    iterables.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iterables.extend(gen.iter for gen in node.generators)
                for iterable in iterables:
                    if self._is_set_expr(iterable, set_names):
                        yield (
                            iterable.lineno,
                            "iteration over an unordered set; reductions must run "
                            "in fixed rank order (wrap in sorted(...))",
                        )

    @staticmethod
    def _own_nodes(scope: ast.AST):
        """Walk ``scope`` without descending into nested function scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _set_assigned_names(cls, scope: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in cls._own_nodes(scope):
            if isinstance(node, ast.Assign) and cls._is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            return name in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in set_names
        return False


# ---------------------------------------------------------------------------
# RL005 — dtype discipline
# ---------------------------------------------------------------------------


class DtypeDisciplineRule(Rule):
    """Low-precision dtypes appear only at the sanctioned policy boundary.

    The PR 6 contract: everything between the fp64 environment build and the
    fp64 reductions runs at ``PrecisionPolicy.compute_dtype`` — production
    code outside ``precision.py``/``compression.py``/``gemm.py`` must not
    hard-code ``np.float32``/``np.float16`` (a literal there either forks the
    policy or silently downgrades an accumulation).
    """

    rule_id = "RL005"
    slug = "dtype"

    def applies(self, parsed: ParsedFile) -> bool:
        return contracts.in_production_tree(parsed.rel_path) and not (
            contracts.is_dtype_sanctioned(parsed.rel_path)
        )

    def check(self, parsed: ParsedFile):
        for node in ast.walk(parsed.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in contracts.LOW_PRECISION_ATTRS
            ):
                root = dotted_name(node)
                if root is not None and is_numpy_root(root):
                    yield (
                        node.lineno,
                        f"low-precision dtype literal {root} outside the "
                        "sanctioned precision-policy modules",
                    )


# ---------------------------------------------------------------------------
# RL006 — transitive hot-path allocation (call-graph propagation)
# ---------------------------------------------------------------------------


class TransitiveHotPathRule(ProgramRule):
    """Hot paths, and everything they reach, must stay allocation-free.

    The static complement of ``bench_run_loop.py``'s zero-allocation budget.
    ``np.zeros/empty/...``, ``np.ufunc.at`` scalar scatters and out-less
    ``.astype`` casts are flagged in the body of a ``# reprolint: hot-path``
    marked function and in everything the conservative call graph proves it
    reaches: a helper allocating ``np.zeros`` per call is just as much a
    steady-state allocation as the same line inlined into the marked body.
    Boundaries: a ``# reprolint: cold-path <reason>`` marked function (and its
    callees) is exempt — the rebuild/cache-build cadence — and golden regions
    are excluded (reference code allocates by design).  Per-line exemptions
    use an ``allow[alloc]`` pragma with a written reason (reference branches,
    empty-pair early-outs).
    """

    rule_id = "RL006"
    slug = "alloc"

    def check(self, project: Project):
        index = project.index
        hot_roots = self._marked_ids(project, "hot")
        if not hot_roots:
            return
        cold_ids = self._marked_ids(project, "cold")
        golden_ids = self._golden_function_ids(project)
        stop = lambda fid: fid in cold_ids or fid in golden_ids  # noqa: E731
        origin = {root: root for root in hot_roots}
        origin.update(project.callgraph.reachable_from(sorted(hot_roots), stop=stop))
        for fid in sorted(origin):
            info = index.functions[fid]
            if not contracts.in_production_tree(info.rel_path):
                continue
            root = index.functions[origin[fid]]
            where = (
                f"hot path {info.qualname}"
                if fid == origin[fid]
                else f"{info.qualname} (reachable from hot path {root.qualname})"
            )
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                for line, description in allocation_findings(node):
                    yield info.rel_path, line, f"{where} {description}"

    @staticmethod
    def _marked_ids(project: Project, which: str) -> set[str]:
        ids: set[str] = set()
        for rel_path, parsed in project.files.items():
            module = module_name_for(rel_path)
            marked = (
                parsed.hot_path_functions()
                if which == "hot"
                else parsed.cold_path_functions()
            )
            for qualname, _ in marked:
                fid = f"{module}::{qualname}"
                if fid in project.index.functions:
                    ids.add(fid)
        return ids

    @staticmethod
    def _golden_function_ids(project: Project) -> set[str]:
        ids: set[str] = set()
        for site in contracts.GOLDEN_SITES:
            for rel_path, parsed in project.files.items():
                if not rel_path.endswith(site.path_suffix):
                    continue
                module = module_name_for(rel_path)
                for qualname, _ in parsed.functions:
                    if (
                        site.qualname is None
                        or qualname == site.qualname
                        or qualname.startswith(site.qualname + ".")
                    ):
                        ids.add(f"{module}::{qualname}")
        return ids


# ---------------------------------------------------------------------------
# RL007 — golden-drift fingerprints
# ---------------------------------------------------------------------------


class GoldenDriftRule(ProgramRule):
    """Golden regions must match their recorded AST fingerprints.

    The freeze behind every parity pin: a reference is only worth comparing
    against while it stays the un-optimized arithmetic it was recorded as.
    Each ``GOLDEN_SITES`` region is hashed (AST dump, locations excluded, docstrings stripped — comments and
    formatting never trip it) and compared against the hash recorded in
    ``analysis/golden_baseline.json``.  An intentional golden edit is
    refreshed with ``python -m repro.analysis --update-golden --reason
    "..."``; anything else is drift — which subsumes the idiom list the
    retired RL001 kept (einsum/bincount batching, ``workspace=`` pooling,
    fast-path imports: each is a semantic edit).  The rule only runs when a baseline is
    loaded (``lint_paths`` / the CLI), never on in-memory corpus lints; a
    missing or unreadable committed baseline is an RL000 finding there, so
    the freeze cannot silently switch off.
    """

    rule_id = "RL007"
    slug = "drift"

    _REFRESH = "python -m repro.analysis --update-golden --reason '...'"

    def check(self, project: Project):
        if project.golden_baseline is None:
            return
        for site in contracts.GOLDEN_SITES:
            key = golden_site_key(site)
            for rel_path in sorted(project.files):
                if not rel_path.endswith(site.path_suffix):
                    continue
                parsed = project.files[rel_path]
                region = find_site_region(site, parsed)
                if region is None:
                    yield (
                        rel_path,
                        1,
                        f"golden site {key} is declared here but the region "
                        "is gone; restore it or update contracts.GOLDEN_SITES",
                    )
                    continue
                line = getattr(region, "lineno", None) or 1
                recorded = project.golden_baseline.get(key)
                if recorded is None:
                    yield (
                        rel_path,
                        line,
                        f"golden site {key} has no recorded fingerprint; "
                        f"record it with {self._REFRESH}",
                    )
                elif region_fingerprint(region) != recorded:
                    yield (
                        rel_path,
                        line,
                        f"golden site {key} drifted from its recorded "
                        "fingerprint; if the edit is intentional, refresh "
                        f"with {self._REFRESH}",
                    )


ALL_RULES = (
    BackendPurityRule,
    FixedOrderReductionRule,
    DtypeDisciplineRule,
)

PROGRAM_RULES = (
    TransitiveHotPathRule,
    GoldenDriftRule,
)
