"""The production package keeps only what runs.

Every top-level function or class and every non-dunder method in the
non-reference ``src/repro`` tree must be named, as a whole word, somewhere in
``src/``, ``benchmarks/`` or ``examples/`` outside its own definition.  A name
only tests call is surface that no user path exercises; it goes, or it is
listed in :data:`ALLOWED` with the reason it stays.  Import statements and
``__all__`` lists do not count as uses: re-exporting a name does not run it.
"""

from __future__ import annotations

import ast
import re
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
    "suggested_max_neighbors": "sizes config.max_neighbors, the remedy for the neighbour-overflow warning",
    "Atoms.from_symbols": "25 test sites build atoms with it; moving it into tests/ removes nothing",
    "_pair_distances_dense": "the dense reference a test compares the RDF pair search against",
    "BerendsenThermostat": "physics feature with its own regression and parity tests",
    "VelocityRescale": "physics feature with its own regression and parity tests",
    "intra_node_balance": "engine-to-modelled-balancer bridge (README, parallel engine)",
    "ghost_count_original": "the paper's eq. (1) ghost count; the 1.44x ghost-overhead figure is pinned on it",
    "ghost_count_load_balanced": "the paper's eq. (2) ghost count; the 1.44x ghost-overhead figure is pinned on it",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _statements(body):
    """Every statement of ``body``, nested blocks included (expressions are not visited)."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(stmt, field, ()))


def _not_a_use(stmt: ast.stmt) -> bool:
    """Imports and ``__all__`` lists mention a name without running it."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


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

    Every searched file is parsed and tokenized once; only the words that
    name a production definition are indexed, by ``(path, line)``.
    """
    parsed = []
    definitions = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            tree = ast.parse(text)
            skipped = set()
            for stmt in _statements(tree.body):
                if _not_a_use(stmt):
                    skipped.update(range(stmt.lineno, stmt.end_lineno + 1))
            parsed.append((path, text, skipped))
            if _production(path):
                definitions.extend((path, qualname, node) for qualname, node in _definitions(tree))
    names = {node.name for _, _, node in definitions}
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, text, skipped in parsed:
        for lineno, line in enumerate(text.splitlines(), 1):
            if lineno not in skipped:
                for word in names.intersection(_WORD.findall(line)):
                    uses[word].append((path, lineno))
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
