"""A conservative whole-program call graph over the :class:`ProjectIndex`.

Edges are added only where the resolver can *prove* the callee from the
indexed symbol tables.  There are four edge kinds, the ones RL006's hot paths
actually reach through:

* name calls — a def nested in an enclosing function, a module function or an
  imported function;
* constructor calls — ``ClassName(...)`` edges to ``__init__`` through the
  indexed MRO;
* ``self.m()`` / ``cls.m()`` — through the owner class's MRO;
* ``Class.m()`` unbound calls and ``mod.f()`` module-attribute calls.

Anything else — multi-level attribute receivers (``self.backend.step()``),
parameters, locals, callbacks — gets no edge, so reachability can only
under-approximate, never invent, a path.  Lambda bodies are attributed to the
enclosing function.
"""

from __future__ import annotations

import ast

from .project import ClassInfo, FunctionInfo, ProjectIndex

__all__ = ["CallGraph", "own_nodes"]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(func: ast.AST):
    """Walk a function body without descending into nested def/class scopes.

    Lambda bodies *are* descended into: a lambda has no qualname of its own,
    so its calls belong to the function that defines it.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """``caller function id -> callee function ids``."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: dict[str, set[str]] = {}

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls(index)
        for info in index.functions.values():
            for node in own_nodes(info.node):
                if isinstance(node, ast.Call):
                    callee = graph._callee(info, node.func)
                    if callee is not None:
                        graph.edges.setdefault(info.id, set()).add(callee.id)
        return graph

    # -- reachability ----------------------------------------------------------
    def reachable_from(self, roots, stop=None) -> dict[str, str]:
        """BFS over the edges: ``{reached function id: originating root id}``.

        ``stop`` is an optional predicate on function ids; a function it
        accepts is neither reported nor traversed through (the ``cold-path``
        boundary semantics).  Roots themselves are not included.
        """
        origin: dict[str, str] = {}
        queue: list[tuple[str, str]] = []
        root_ids = set()
        for root in roots:
            root_ids.add(root)
            queue.append((root, root))
        while queue:
            current, root = queue.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee in origin or callee in root_ids:
                    continue
                if stop is not None and stop(callee):
                    continue
                origin[callee] = root
                queue.append((callee, root))
        return origin

    # -- construction ----------------------------------------------------------
    def _callee(self, info: FunctionInfo, func: ast.AST) -> FunctionInfo | None:
        """The one function a call target provably runs, else ``None``."""
        if isinstance(func, ast.Name):
            return self._nested_def(info, func.id) or self._resolved(info.module, func.id)
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return None  # multi-level receivers, subscripts, call results
        receiver, method = func.value.id, func.attr
        if receiver in ("self", "cls") and info.class_id is not None:
            return self.index.lookup_method(self.index.classes[info.class_id], method)
        owner = self.index.resolve(info.module, receiver)
        if isinstance(owner, ClassInfo):
            return self.index.lookup_method(owner, method)
        return self._resolved(info.module, f"{receiver}.{method}")

    def _nested_def(self, info: FunctionInfo, name: str) -> FunctionInfo | None:
        """A def named ``name`` nested in an enclosing *function* (innermost first)."""
        parts = info.qualname.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if f"{info.module}::{prefix}" not in self.index.functions:
                continue  # class-level prefixes don't provide name visibility
            candidate = self.index.functions.get(f"{info.module}::{prefix}.{name}")
            if candidate is not None:
                return candidate
        return None

    def _resolved(self, module: str, dotted: str) -> FunctionInfo | None:
        """A function, or a class's ``__init__`` (through the indexed MRO)."""
        target = self.index.resolve(module, dotted)
        if isinstance(target, ClassInfo):
            return self.index.lookup_method(target, "__init__")
        return target
