"""One-pass whole-program index over every linted file.

:class:`ProjectIndex` turns a set of :class:`~repro.analysis.reprolint.ParsedFile`
objects into the symbol tables the call-graph resolver needs: the dotted module
name of every file, every function and class (with its methods and the base
classes as written), and every import binding (absolute and relative,
``import x as y`` and ``from . import z``).

Resolution is deliberately *conservative*: a name that cannot be traced to a
definition inside the linted roots resolves to ``None`` and the call graph adds
no edge for it.  RL006 only ever acts on edges the index can prove, so an
unresolvable receiver bounds its reach instead of widening it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from .reprolint import ParsedFile, dotted_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ProjectIndex",
    "module_name_for",
]


def module_name_for(rel_path: str) -> str:
    """The dotted module name a file would import as (``src/`` stripped)."""
    parts = list(PurePosixPath(rel_path).with_suffix("").parts)
    while parts and parts[0] in (".", "src"):
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One indexed function/method definition."""

    id: str  # "<module>::<qualname>"
    module: str
    qualname: str
    rel_path: str
    node: ast.AST
    class_id: str | None = None  # owning class id when this is a method


@dataclass
class ClassInfo:
    """One indexed class: its methods and the base names as written."""

    id: str  # "<module>::<qualname>"
    module: str
    base_refs: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> function id


def _symbol_id(module: str, qualname: str) -> str:
    return f"{module}::{qualname}"


class ProjectIndex:
    """Modules, classes, functions and import bindings across all linted files."""

    def __init__(self) -> None:
        self.modules: set[str] = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: per-module import bindings: local name -> absolute dotted target
        self.imports: dict[str, dict[str, str]] = {}

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(cls, parsed_files: dict[str, ParsedFile]) -> "ProjectIndex":
        index = cls()
        for rel_path, parsed in parsed_files.items():
            index._index_file(rel_path, parsed)
        return index

    def _index_file(self, rel_path: str, parsed: ParsedFile) -> None:
        module = module_name_for(rel_path)
        self.modules.add(module)
        class_quals = {qualname for qualname, _ in parsed.classes}
        for qualname, node in parsed.classes:
            info = ClassInfo(
                id=_symbol_id(module, qualname),
                module=module,
                base_refs=[
                    ref for ref in (dotted_name(base) for base in node.bases) if ref
                ],
            )
            self.classes[info.id] = info
        for qualname, node in parsed.functions:
            owner, _, name = qualname.rpartition(".")
            class_id = _symbol_id(module, owner) if owner in class_quals else None
            info = FunctionInfo(
                id=_symbol_id(module, qualname),
                module=module,
                qualname=qualname,
                rel_path=rel_path,
                node=node,
                class_id=class_id,
            )
            self.functions[info.id] = info
            if class_id is not None:
                self.classes[class_id].methods.setdefault(name, info.id)
        self.imports[module] = self._import_bindings(module, parsed.tree)

    @classmethod
    def _import_bindings(cls, module: str, tree: ast.Module) -> dict[str, str]:
        # imports are collected from the whole tree (function-level imports
        # included) and bound at module granularity — a deliberate
        # approximation that lets a function-local import resolve
        bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = cls._relative_base(module, node.level, node.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{base}.{alias.name}" if base else alias.name
        return bindings

    @staticmethod
    def _relative_base(module: str, level: int, target: str | None) -> str | None:
        if level == 0:
            return target or ""
        parts = module.split(".")
        if level > len(parts):
            return None
        base_parts = parts[: len(parts) - level]
        if target:
            base_parts.append(target)
        return ".".join(base_parts)

    # -- symbol resolution -----------------------------------------------------
    def _split_absolute(self, dotted: str) -> tuple[str, str] | None:
        """``(module, qualname)`` for an absolute dotted path, longest module wins."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                return module, ".".join(parts[i:])
        return None

    def resolve(
        self, module: str, dotted: str, _visited: frozenset[str] = frozenset()
    ) -> FunctionInfo | ClassInfo | None:
        """Resolve a name used in ``module`` to a Function/ClassInfo, or ``None``.

        Checks definitions in the module itself, then import bindings
        (following re-exports through ``__init__`` style modules).  The cycle
        guard keys on ``(module, name)``: a bare-name guard would make every
        ``from x import f`` shadow itself.
        """
        local = _symbol_id(module, dotted)
        if not dotted or local in _visited:
            return None
        _visited = _visited | {local}
        if local in self.functions:
            return self.functions[local]
        if local in self.classes:
            return self.classes[local]
        head, _, rest = dotted.partition(".")
        binding = self.imports.get(module, {}).get(head)
        if binding is None:
            return None
        split = self._split_absolute(f"{binding}.{rest}" if rest else binding)
        if split is None:
            return None
        return self.resolve(*split, _visited)

    # -- method lookup ---------------------------------------------------------
    def lookup_method(
        self, class_info: ClassInfo, name: str, _visited: frozenset[str] = frozenset()
    ) -> FunctionInfo | None:
        """The method ``name`` on ``class_info`` or its indexed bases (MRO-lite)."""
        if class_info.id in _visited:
            return None
        _visited = _visited | {class_info.id}
        method_id = class_info.methods.get(name)
        if method_id is not None:
            return self.functions[method_id]
        for ref in class_info.base_refs:
            base = self.resolve(class_info.module, ref)
            if isinstance(base, ClassInfo):
                found = self.lookup_method(base, name, _visited)
                if found is not None:
                    return found
        return None
