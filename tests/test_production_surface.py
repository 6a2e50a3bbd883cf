"""The production package keeps only what runs.

Every top-level function or class and every non-dunder method in the
non-reference ``src/repro`` tree must be referenced in code — a ``Name`` or an
``Attribute`` node of the AST — somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own definition.  A name only tests call is surface
that no user path exercises; it goes, or it is listed in :data:`ALLOWED` with
the reason it stays.  Words in docstrings, comments and strings are not code,
and neither are import statements or ``__all__`` lists: re-exporting a name
does not run it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")

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
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.Module):
    """``(name, line)`` of every ``Name`` and ``Attribute`` node: what code names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno


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


@pytest.fixture(scope="module")
def surface():
    """Production names with no use outside their own definition: qualname -> ``path:line``.

    Every searched file is parsed once; only the references that name a
    production definition are indexed, by ``(path, line)``.
    """
    parsed = []
    definitions = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            parsed.append((path, tree))
            if _production(path):
                definitions.extend((path, qualname, node) for qualname, node in _definitions(tree))
    names = {node.name for _, _, node in definitions}
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in parsed:
        for name, line in _references(tree):
            if name in names:
                uses[name].append((path, line))
    unused = {}
    for path, qualname, node in definitions:
        span = range(node.lineno, node.end_lineno + 1)
        if not any(where != path or line not in span for where, line in uses[node.name]):
            unused[qualname] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return unused


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
    assert sorted(name for name, _ in _references(tree)) == ["box", "wrap", "x", "y", "z"]


#: Settable values of the pricing layer (``perfmodel/`` and ``core/``):
#: dataclass init fields plus defaulted parameters, counted by
#: :func:`_settable_values`.  A new pricing knob fails here; raise the pin
#: only with the reason the knob must be settable, and lower it when one goes.
#: 182 -> 161 when the kernel and step classes became functions of a
#: ``SystemSpec`` and an ``OptimizationConfig`` (no second copy of the network
#: shape, no option restating a config field) and ``SystemSpec`` lost two
#: fields nothing read.
PRICING_SETTABLE_VALUES = 161

#: The same count over the executing packages.  355 -> 350 when
#: ``Simulation``/``DomainDecomposedSimulation`` stopped taking ``timers``,
#: ``DomainDecomposedSimulation`` ``topology`` and ``ServingEngine`` its
#: compression grid, none of which any caller set.
EXECUTION_SETTABLE_VALUES = 350
EXECUTION_PACKAGES = ("md", "deepmd", "parallel", "serving", "training", "utils")


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
    count = _settable_values_under(("perfmodel", "core"))
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
