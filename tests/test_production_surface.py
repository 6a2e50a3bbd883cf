"""The production package keeps only what runs.

Every top-level function or class and every non-dunder method in the
non-reference ``src/repro`` tree must be referenced in code somewhere in
``src/``, ``benchmarks/`` or ``examples/`` outside its own definition: a
top-level name by a ``Name`` or an ``Attribute`` node of the AST, a method by
an ``Attribute`` only (a local variable or parameter that shares a method's
name does not call it).  A name only tests call is surface
that no user path exercises; it goes, or it is listed in :data:`ALLOWED` with
the reason it stays.  Words in docstrings, comments and strings are not code,
and neither are import statements or ``__all__`` lists: re-exporting a name
does not run it.  Each package's ``__all__`` (the executing and pricing
packages, ``md.forcefields`` and ``analysis``) holds only names that
``src``, ``benchmarks``, ``examples`` or a README code block import from the
package; tests import everything else from its module.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")

#: Why a modelled figure of the paper stays: the deliverable itself.
FIGURE = "one of the paper's modelled results, checked and printed by tests/test_paper_figures.py"

#: Names kept although nothing outside tests calls them, each with its reason.
ALLOWED = {
    "_QualnameIndexer.visit_FunctionDef": "ast.NodeVisitor reaches visit_* methods by dispatch",
    "_QualnameIndexer.visit_AsyncFunctionDef": "ast.NodeVisitor reaches visit_* methods by dispatch",
    "_QualnameIndexer.visit_ClassDef": "ast.NodeVisitor reaches visit_* methods by dispatch",
    "TabulatedEmbeddingSet.packed_dtypes": "probe of the packed low-precision table cache",
    "TabulatedEmbeddingSet.interpolation_errors": "accuracy probe of the Hermite table against the exact nets",
    "NeighborData.has_table": "probe of the lazily derived padded table (README, neighbour lists)",
    "NeighborData.neighbors_of": "one atom's view of the pair list, for inspection",
    "ForceField.numerical_forces": "finite-difference check of any force field's analytic forces",
    "Atoms.from_symbols": "25 test sites build atoms with it; moving it into tests/ removes nothing",
    "_pair_distances_dense": "the dense reference a test compares the RDF pair search against",
    "BerendsenThermostat": "physics feature with its own regression and parity tests",
    "VelocityRescale": "physics feature with its own regression and parity tests",
    "intra_node_balance": "engine-to-modelled-balancer bridge (README, parallel engine)",
    "ghost_count_original": "the paper's eq. (1) ghost count; the 1.44x ghost-overhead figure is pinned on it",
    "ghost_count_load_balanced": "the paper's eq. (2) ghost count; the 1.44x ghost-overhead figure is pinned on it",
    "lint_source": "entry point of reprolint's seeded-violation corpus (one in-memory file under a chosen path)",
    "run_bursts_serial": "the RL007-frozen serial golden that ServingEngine.submit_md is pinned against",
    "LocalEnvironment.neighbor_counts": "probe of each centre row's kept neighbours, which tests size padding with",
    "DeepPotentialForceField.describe": "called through getattr by md.stepping.harvest_force_field_info",
    "table1_packages": FIGURE,
    "fig9_computation": FIGURE,
    "table3_loadbalance": FIGURE,
    "fig10_pair_time_distribution": FIGURE,
    "fig11_strong_scaling": FIGURE,
    "claims_summary": FIGURE,
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.Module):
    """``(name, line, is_attribute)`` of every ``Name`` and ``Attribute`` node: what code names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno, True


def _production(path: Path) -> bool:
    return path.is_relative_to(PACKAGE) and not path.is_relative_to(PACKAGE / "reference")


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` for top-level defs/classes and their non-dunder methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub


def _unused(files) -> dict:
    """Definitions with no use outside their own span: qualname -> ``path:line``.

    ``files`` holds ``(path, tree, is_production)``; only the references that
    name a production definition are indexed, by ``(path, line)``.  A method
    (a dotted qualname) counts only ``Attribute`` references.
    """
    definitions = [
        (path, qualname, node)
        for path, tree, is_production in files
        if is_production
        for qualname, node in _definitions(tree)
    ]
    names = {node.name for _, _, node in definitions}
    uses: dict[str, list[tuple[Path, int, bool]]] = defaultdict(list)
    for path, tree, _ in files:
        for name, line, is_attribute in _references(tree):
            if name in names:
                uses[name].append((path, line, is_attribute))
    unused = {}
    for path, qualname, node in definitions:
        method = "." in qualname
        span = range(node.lineno, node.end_lineno + 1)
        if not any(
            (is_attribute or not method) and (where != path or line not in span)
            for where, line, is_attribute in uses[node.name]
        ):
            unused[qualname] = f"{path}:{node.lineno}"
    return unused


@pytest.fixture(scope="module")
def searched():
    """``(path from the root, tree)`` of every Python file under :data:`SEARCHED`, each parsed once."""
    return [
        (path.relative_to(ROOT), ast.parse(path.read_text()))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


@pytest.fixture(scope="module")
def surface(searched):
    """Production names with no use outside their own definition: qualname -> ``path:line``."""
    return _unused([(path, tree, _production(ROOT / path)) for path, tree in searched])


def test_every_production_name_is_used_outside_tests(surface):
    stray = {name: where for name, where in surface.items() if name not in ALLOWED}
    assert not stray, "names nothing but tests use (delete them, or allow them with a reason):\n" + "\n".join(
        f"  {where}  {name}" for name, where in sorted(stray.items(), key=lambda item: item[1])
    )


def test_every_allowed_name_is_still_unused(surface):
    # an entry whose name gained a production caller is stale: drop it
    stale = sorted(set(ALLOWED) - set(surface))
    assert not stale, f"allowlisted names that production code now uses: {stale}"


def test_only_code_references_count():
    # docstrings, comments and strings name nothing; Name and Attribute nodes do
    tree = ast.parse('"""See Box.orthorhombic."""\n# cartesian coordinates\nx = "speedup_over"\ny = box.wrap(z)\n')
    assert sorted(name for name, _, _ in _references(tree)) == ["box", "wrap", "x", "y", "z"]


def test_a_same_named_local_is_not_a_use_of_a_method():
    package = ast.parse("class Engine:\n    def stats(self): ...\ndef helper(): ...\nclass Spec: ...\n")
    caller = ast.parse("def run(stats):\n    stats = stats + 1\n    return Engine(), helper(stats), pkg.Spec\n")
    files = [(Path("pkg.py"), package, True), (Path("caller.py"), caller, False)]
    # a top-level def or class is used by a Name or an Attribute; the method's namesakes are not uses
    assert _unused(files) == {"Engine.stats": "pkg.py:2"}
    files.append((Path("client.py"), ast.parse("engine.stats()\n"), False))
    assert _unused(files) == {}


#: Settable values of the pricing layer (``perfmodel/`` and ``core/``):
#: dataclass init fields plus defaulted parameters, counted by
#: :func:`_settable_values`.  A new pricing knob fails here; raise the pin
#: only with the reason the knob must be settable, and lower it when one goes.
#: 182 -> 161 when the kernel and step classes became functions of a
#: ``SystemSpec`` and an ``OptimizationConfig`` (no second copy of the network
#: shape, no option restating a config field) and ``SystemSpec`` lost two
#: fields nothing read.  161 -> 127 when each modelled figure of
#: ``core/experiments.py`` became a function of the paper's one grid (module
#: constants; no caller priced another) and the four one-claim helpers folded
#: into ``claims_summary``.  The executing packages took the same cut next
#: (:data:`EXECUTION_SETTABLE_VALUES`).
PRICING_SETTABLE_VALUES = 127

#: The same count over the executing packages.  355 -> 350 when
#: ``Simulation``/``DomainDecomposedSimulation`` stopped taking ``timers``,
#: ``DomainDecomposedSimulation`` ``topology`` and ``ServingEngine`` its
#: compression grid, none of which any caller set.  350 -> 349 when
#: ``PrecisionPolicy`` lost ``env_dtype``: the environment matrix is always
#: built in float64, and nothing read the field.  349 -> 348 when
#: ``AdmissionQueue`` lost ``max_wait_ms``: admission takes whatever is
#: pending, so no timer is left to set.  348 -> 307 when every knob that
#: no caller in ``src``, ``benchmarks``, ``examples`` or ``tests`` passes
#: became a constant (the copper Gupta/Morse parameters, FCC symbol and
#: lattice constant, water density, the training sets' perturbation and
#: jitter, the finite-difference step, the interpolation-error sample count,
#: the neighbour-budget margin, the pair style's compression floor, the ghost
#: byte size of ``measured_comm_volume``, zero-momentum velocities, one
#: training pass per epoch) or went (``FastMLP.__call__``, ``Trainer.train``'s
#: ``verbose`` print), and the fields an object sets itself (GEMM counters,
#: neighbour-list build state, request timestamps and future, table rows,
#: phase totals) left ``__init__``.  307 -> 304 when ``double`` became the
#: identity case of the one kernel path (``GemmBackend.matmul`` lost
#: ``native_out``: every product comes back at its compute dtype), the
#: engine's forward halo always writes into the executor's sinks (its
#: ``sinks=None`` allocating branch never ran) and ``ScopedWorkspace.buffer``,
#: which no scoped consumer calls, went.  304 -> 299 when ``ScopedWorkspace``
#: went: a scope is a ``Workspace`` of its own names that shares its parent's
#: counters, so the proxy's five defaulted parameters left with it.
EXECUTION_SETTABLE_VALUES = 299
EXECUTION_PACKAGES = ("md", "deepmd", "parallel", "serving", "training", "utils")
PRICING_PACKAGES = ("perfmodel", "core")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _init_field(statement) -> bool:
    """An annotated class-body name that the dataclass ``__init__`` takes."""
    if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(statement.annotation):
        return False
    value = statement.value
    keywords = value.keywords if isinstance(value, ast.Call) else []
    return not any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in keywords)


def _settable_values(tree: ast.Module) -> int:
    """Dataclass init fields plus parameters with a default, over one module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(_init_field(statement) for statement in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(default is not None for default in node.args.kw_defaults)
    return count


def _settable_values_under(packages) -> int:
    paths = sorted(path for sub in packages for path in (PACKAGE / sub).rglob("*.py"))
    return sum(_settable_values(ast.parse(path.read_text())) for path in paths)


def test_pricing_layer_settable_values_are_pinned():
    count = _settable_values_under(PRICING_PACKAGES)
    assert count == PRICING_SETTABLE_VALUES, (
        f"perfmodel/ and core/ have {count} settable values, pinned at {PRICING_SETTABLE_VALUES}: "
        "delete the knob nobody sets, or move the pin with the reason"
    )


def test_executing_layer_settable_values_are_pinned():
    count = _settable_values_under(EXECUTION_PACKAGES)
    assert count == EXECUTION_SETTABLE_VALUES, (
        f"{'/, '.join(EXECUTION_PACKAGES)}/ have {count} settable values, pinned at {EXECUTION_SETTABLE_VALUES}: "
        "delete the knob nobody sets, or move the pin with the reason"
    )


def test_settable_values_counts_init_fields_and_defaults():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    k: ClassVar[int] = 2\n"
        "    z: str = field(default='', init=False)\n"
        "class B:\n"
        "    w: int = 3\n"
        "    def f(self, a, b=1, *, c=2, d): ...\n"
        "def g(e=None): ...\n"
    )
    assert _settable_values(tree) == 2 + 2 + 1


def _imported_from(path: Path, node: ast.ImportFrom) -> str | None:
    """The absolute module a ``from ... import`` in ``path`` (from the root) names.

    Relative imports resolve inside ``src``; elsewhere they stay within their
    own script tree and name no ``repro`` package.
    """
    if not node.level:
        return node.module
    if path.parts[0] != "src":
        return None
    package = list(path.with_suffix("").parts[1 : -node.level])
    return ".".join(package + ([node.module] if node.module else []))


def _readme_code():
    """The README's Python code blocks that parse (one lists lint directives, not code)."""
    for block in re.findall(r"```py(?:thon)?\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        try:
            yield ast.parse(textwrap.dedent(block))
        except SyntaxError:
            continue


def _exports(package: str) -> list[str]:
    """The ``__all__`` names of a package's ``__init__`` (``"md.forcefields"`` for a subpackage)."""
    tree = ast.parse((PACKAGE / package.replace(".", "/") / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            return [element.value for element in node.value.elts]
    return []


def test_every_package_export_is_imported_outside_tests(searched):
    # a re-export only tests import is surface no user path needs: tests
    # import the name from its module instead
    imported = defaultdict(set)
    sources = searched + [(Path("README.md"), tree) for tree in _readme_code()]
    for path, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported[_imported_from(path, node)].update(alias.name for alias in node.names)
    idle = {
        package: sorted(set(_exports(package)) - imported[f"repro.{package}"])
        for package in (*EXECUTION_PACKAGES, *PRICING_PACKAGES, "md.forcefields", "analysis")
    }
    idle = {package: names for package, names in idle.items() if names}
    assert not idle, f"re-exports only tests import (drop them from __init__; tests import the module): {idle}"


def test_relative_imports_resolve_to_their_package():
    tree = ast.parse("from ..md import Box\nfrom . import ops\nfrom .engine import step\n")
    nodes = tree.body
    module = Path("src/repro/core/experiments.py")
    package = Path("src/repro/md/__init__.py")
    assert [_imported_from(module, node) for node in nodes] == ["repro.md", "repro.core", "repro.core.engine"]
    assert _imported_from(package, nodes[2]) == "repro.md.engine"
    assert _imported_from(Path("benchmarks/e2e/e2ebench/runner.py"), nodes[1]) is None
