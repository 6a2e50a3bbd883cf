"""reprolint — an AST-based invariant linter for the house contracts.

The runtime test tiers catch a contract violation steps after the fact (a
parity diff, an allocation counter); this framework catches it at parse time
with a ``file:line`` diagnostic.  It is dependency-free: files are parsed with
:mod:`ast`, comments are recovered with :mod:`tokenize` (so pragma text inside
string literals — e.g. the rule self-test corpus — is never mistaken for a
directive), and each rule walks the tree through a small registry.

Two rule shapes exist.  Per-file :class:`Rule` subclasses see one
:class:`ParsedFile` at a time (RL003–RL005).  Whole-program
:class:`ProgramRule` subclasses see a :class:`Project` — every parsed file
plus the :class:`~repro.analysis.project.ProjectIndex` and
:class:`~repro.analysis.callgraph.CallGraph` built over them — and power the
transitive contracts (RL006 hot-path propagation, RL007 golden fingerprints,
RL008 worker-context discipline).

Pragmas
-------
Directives are recognised on real comment tokens only:

``# reprolint: hot-path``
    on a ``def`` line (or the line directly above it) registers that function
    as a per-step hot path for the allocation rule (RL006: its body and,
    through the call graph, everything it reaches).

``# reprolint: cold-path <reason>``
    on a ``def`` (same binding rules) declares a rebuild-only boundary: RL006
    propagation stops there.  The reason is mandatory.

``# reprolint: allow[<slug>] <reason>``
    on the offending line suppresses the rule with that slug there.  The
    reason is mandatory — an exemption without a written justification is
    itself a diagnostic — and a suppression that no longer suppresses
    anything is flagged too, so stale pragmas cannot accumulate.

Running
-------
``python -m repro.analysis [paths...]`` lints the given files/directories
(default: ``src tests benchmarks``, the CI gate) and exits non-zero on any
finding.  Programmatic entry points: :func:`lint_paths` and, for the
self-test corpora, :func:`lint_source` / :func:`lint_sources`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .contracts import COLD_PATH_MARKER, HOT_PATH_MARKER

__all__ = [
    "Violation",
    "Pragma",
    "ParsedFile",
    "Rule",
    "ProgramRule",
    "Project",
    "lint_source",
    "lint_sources",
    "lint_paths",
    "iter_python_files",
]

#: Rule id used for framework-level findings (pragma hygiene, syntax errors).
FRAMEWORK_RULE_ID = "RL000"
FRAMEWORK_SLUG = "pragma"

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*(?P<body>.*\S)")
_ALLOW_RE = re.compile(r"allow\[(?P<slug>[A-Za-z0-9_-]+)\]\s*(?P<reason>.*)")


@dataclass(frozen=True)
class Violation:
    """One finding, formatted ``path:line: RULE message``."""

    path: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


@dataclass
class Pragma:
    """One ``# reprolint:`` directive recovered from a comment token."""

    line: int
    kind: str  # "allow" | "hot-path" | "cold-path" | "unknown"
    slug: str | None = None
    reason: str = ""
    raw: str = ""
    used: bool = False


class _QualnameIndexer(ast.NodeVisitor):
    """Records the dotted qualname of every function/class definition."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.functions: list[tuple[str, ast.AST]] = []
        self.classes: list[tuple[str, ast.ClassDef]] = []

    def _enter(self, node, registry) -> None:
        self.stack.append(node.name)
        registry.append((".".join(self.stack), node))
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node, self.functions)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node, self.functions)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node, self.classes)


@dataclass
class ParsedFile:
    """A parsed source file plus the indexes the rules consume."""

    rel_path: str
    source: str
    tree: ast.Module
    pragmas: dict[int, list[Pragma]] = field(default_factory=dict)
    functions: list[tuple[str, ast.AST]] = field(default_factory=list)
    classes: list[tuple[str, ast.ClassDef]] = field(default_factory=list)

    @classmethod
    def parse(cls, source: str, rel_path: str) -> "ParsedFile":
        tree = ast.parse(source, filename=rel_path)
        indexer = _QualnameIndexer()
        indexer.visit(tree)
        parsed = cls(
            rel_path=rel_path,
            source=source,
            tree=tree,
            functions=indexer.functions,
            classes=indexer.classes,
        )
        parsed._collect_pragmas()
        return parsed

    # -- pragmas ---------------------------------------------------------------
    def _collect_pragmas(self) -> None:
        """Recover directives from COMMENT tokens (never string literals)."""
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):  # pragma: no cover
            comments = []
        for line, text in comments:
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            body = match.group("body").strip()
            if body == HOT_PATH_MARKER:
                pragma = Pragma(line=line, kind=HOT_PATH_MARKER, raw=body)
            elif body == COLD_PATH_MARKER or body.startswith(COLD_PATH_MARKER + " "):
                pragma = Pragma(
                    line=line,
                    kind=COLD_PATH_MARKER,
                    reason=body[len(COLD_PATH_MARKER):].strip(),
                    raw=body,
                )
            else:
                allow = _ALLOW_RE.fullmatch(body)
                if allow is not None:
                    pragma = Pragma(
                        line=line,
                        kind="allow",
                        slug=allow.group("slug"),
                        reason=allow.group("reason").strip(),
                        raw=body,
                    )
                else:
                    pragma = Pragma(line=line, kind="unknown", raw=body)
            self.pragmas.setdefault(line, []).append(pragma)

    def allow_pragma(self, line: int, slug: str) -> Pragma | None:
        """The ``allow[slug]`` directive on ``line``, if any."""
        for pragma in self.pragmas.get(line, ()):
            if pragma.kind == "allow" and pragma.slug == slug:
                return pragma
        return None

    # -- hot/cold-path registries ----------------------------------------------
    def _marker_functions(self, kind: str) -> tuple[list[tuple[str, ast.AST]], list[int]]:
        """Functions bound to ``kind`` markers, plus unbound marker lines.

        A marker binds to a ``def`` whose header line carries it, or that
        starts on the line immediately below a marker-only comment line.
        """
        marker_lines = {
            line
            for line, pragmas in self.pragmas.items()
            if any(p.kind == kind for p in pragmas)
        }
        if not marker_lines:
            return [], []
        registered = []
        claimed: set[int] = set()
        for qualname, node in self.functions:
            if node.lineno in marker_lines:
                registered.append((qualname, node))
                claimed.add(node.lineno)
            elif node.lineno - 1 in marker_lines:
                registered.append((qualname, node))
                claimed.add(node.lineno - 1)
        return registered, sorted(marker_lines - claimed)

    def hot_path_functions(self) -> list[tuple[str, ast.AST]]:
        """Functions registered via the ``hot-path`` marker."""
        registered, orphans = self._marker_functions(HOT_PATH_MARKER)
        self._orphan_markers: list[int] = orphans
        return registered

    def orphan_hot_path_markers(self) -> list[int]:
        """Hot-path marker lines that did not bind to any function definition."""
        if not hasattr(self, "_orphan_markers"):
            self.hot_path_functions()
        return self._orphan_markers

    def cold_path_functions(self) -> list[tuple[str, ast.AST]]:
        """Functions registered as RL006 boundaries via the ``cold-path`` marker."""
        registered, orphans = self._marker_functions(COLD_PATH_MARKER)
        self._orphan_cold_markers: list[int] = orphans
        return registered

    def orphan_cold_path_markers(self) -> list[int]:
        if not hasattr(self, "_orphan_cold_markers"):
            self.cold_path_functions()
        return self._orphan_cold_markers

    def reasonless_cold_path_markers(self) -> list[int]:
        """Cold-path markers missing their mandatory reason."""
        return sorted(
            line
            for line, pragmas in self.pragmas.items()
            for p in pragmas
            if p.kind == COLD_PATH_MARKER and not p.reason
        )


class Rule:
    """Base class: one invariant, one rule id, one pragma slug."""

    rule_id: str = "RL999"
    slug: str = "unnamed"
    description: str = ""

    def applies(self, parsed: ParsedFile) -> bool:
        return True

    def check(self, parsed: ParsedFile):
        """Yield ``(line, message)`` candidates; suppression is handled by
        the framework so rules stay pure detectors."""
        raise NotImplementedError  # pragma: no cover


@dataclass
class Project:
    """Every parsed file plus the whole-program indexes (built lazily once)."""

    files: dict[str, ParsedFile]
    index: "object" = None  # ProjectIndex
    callgraph: "object" = None  # CallGraph
    #: ``{golden site key: recorded hash}`` — ``None`` disables RL007 (the
    #: in-memory corpus default; ``lint_paths`` loads the committed baseline).
    golden_baseline: dict[str, str] | None = None

    @classmethod
    def build(
        cls,
        files: dict[str, ParsedFile],
        golden_baseline: dict[str, str] | None = None,
    ) -> "Project":
        from .callgraph import CallGraph
        from .project import ProjectIndex

        index = ProjectIndex.build(files)
        return cls(
            files=files,
            index=index,
            callgraph=CallGraph.build(index),
            golden_baseline=golden_baseline,
        )


class ProgramRule:
    """A whole-program invariant: sees the :class:`Project`, not one file."""

    rule_id: str = "RL999"
    slug: str = "unnamed"
    description: str = ""

    def check(self, project: Project):
        """Yield ``(rel_path, line, message)`` candidates."""
        raise NotImplementedError  # pragma: no cover


# ---------------------------------------------------------------------------
# Shared AST helpers used by the rules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    return dotted_name(node.func)


def is_numpy_root(name: str) -> bool:
    return name.split(".", 1)[0] in ("np", "numpy")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _active_rules() -> list[Rule]:
    from .rules import ALL_RULES

    return [rule_cls() for rule_cls in ALL_RULES]


def _active_program_rules() -> list[ProgramRule]:
    from .rules import PROGRAM_RULES

    return [rule_cls() for rule_cls in PROGRAM_RULES]


def _pragma_hygiene(parsed: ParsedFile, known_slugs: set[str]) -> list[Violation]:
    """Framework findings: malformed, reason-less and stale pragmas."""
    findings: list[Violation] = []

    def hygiene(line: int, message: str) -> None:
        exemption = parsed.allow_pragma(line, FRAMEWORK_SLUG)
        if exemption is not None and exemption.reason:
            exemption.used = True
            return
        findings.append(Violation(parsed.rel_path, line, FRAMEWORK_RULE_ID, message))

    for line in sorted(parsed.pragmas):
        for pragma in parsed.pragmas[line]:
            if pragma.kind == "unknown":
                hygiene(line, f"unrecognised reprolint directive {pragma.raw!r}")
            elif pragma.kind == "allow":
                if pragma.slug not in known_slugs:
                    hygiene(line, f"allow[{pragma.slug}] names no known rule slug")
                elif not pragma.reason:
                    hygiene(
                        line,
                        f"allow[{pragma.slug}] carries no reason; every exemption "
                        "must say why it is safe",
                    )
                elif not pragma.used and pragma.slug != FRAMEWORK_SLUG:
                    hygiene(
                        line,
                        f"allow[{pragma.slug}] suppresses nothing here; remove the "
                        "stale pragma",
                    )
    for line in parsed.orphan_hot_path_markers():
        hygiene(line, "hot-path marker is not attached to a function definition")
    for line in parsed.orphan_cold_path_markers():
        hygiene(line, "cold-path marker is not attached to a function definition")
    for line in parsed.reasonless_cold_path_markers():
        hygiene(
            line,
            "cold-path marker carries no reason; say why the function is "
            "rebuild-only (e.g. cold-path built once per rebuild, cached)",
        )
    return findings


def lint_sources(
    sources: dict[str, str],
    golden_baseline: dict[str, str] | None = None,
) -> list[Violation]:
    """Lint a set of in-memory sources as one project.

    Per-file rules run first, then the whole-program rules over the project
    built from every parseable file, then pragma hygiene (last, so a pragma
    whose only job is suppressing a program-rule finding is not reported
    stale).  ``golden_baseline`` feeds RL007; ``None`` disables it.
    """
    rules = _active_rules()
    program_rules = _active_program_rules()
    known_slugs = (
        {rule.slug for rule in rules}
        | {rule.slug for rule in program_rules}
        | {FRAMEWORK_SLUG}
    )
    violations: list[Violation] = []
    parsed_files: dict[str, ParsedFile] = {}
    for rel_path, source in sources.items():
        try:
            parsed_files[rel_path] = ParsedFile.parse(source, rel_path)
        except SyntaxError as exc:
            violations.append(
                Violation(rel_path, exc.lineno or 1, FRAMEWORK_RULE_ID, f"syntax error: {exc.msg}")
            )
    for parsed in parsed_files.values():
        for rule in rules:
            if not rule.applies(parsed):
                continue
            for line, message in rule.check(parsed):
                pragma = parsed.allow_pragma(line, rule.slug)
                if pragma is not None:
                    pragma.used = True
                    continue
                violations.append(Violation(parsed.rel_path, line, rule.rule_id, message))
    if parsed_files:
        project = Project.build(parsed_files, golden_baseline=golden_baseline)
        for rule in program_rules:
            for rel_path, line, message in rule.check(project):
                parsed = parsed_files[rel_path]
                pragma = parsed.allow_pragma(line, rule.slug)
                if pragma is not None:
                    pragma.used = True
                    continue
                violations.append(Violation(rel_path, line, rule.rule_id, message))
    for parsed in parsed_files.values():
        violations.extend(_pragma_hygiene(parsed, known_slugs))
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return violations


def lint_source(source: str, rel_path: str) -> list[Violation]:
    """Lint in-memory source as if it lived at ``rel_path`` (rule self-tests).

    The single file forms a one-file project, so the call-graph rules fire on
    edges provable inside it; RL007 stays off (no baseline).
    """
    return lint_sources({rel_path: source})


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, deduplicated and sorted.

    Overlapping arguments (``src src/repro``) yield each file once;
    ``__pycache__`` and hidden directories are skipped.
    """
    seen: set[str] = set()
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            candidates = path.rglob("*.py")
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if any(
                part == "__pycache__" or (part.startswith(".") and part not in (".", ".."))
                for part in candidate.parts
            ):
                continue
            key = candidate.resolve().as_posix()
            if key in seen:
                continue
            seen.add(key)
            files.append(candidate)
    return sorted(files, key=lambda p: p.as_posix())


def lint_paths(
    paths: list[str | Path],
    golden_baseline: dict[str, str] | None | object = "default",
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``; violations in path order.

    RL007 checks against the committed ``analysis/golden_baseline.json`` by
    default; pass an explicit mapping to substitute one, or ``None`` to
    disable fingerprint checking.
    """
    if golden_baseline == "default":
        from .fingerprint import load_golden_baseline

        golden_baseline = load_golden_baseline()
    sources: dict[str, str] = {}
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        rel_path = path.as_posix()
        try:
            sources[rel_path] = path.read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - unreadable file
            violations.append(Violation(rel_path, 1, FRAMEWORK_RULE_ID, f"unreadable: {exc}"))
    violations.extend(lint_sources(sources, golden_baseline=golden_baseline))
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return violations
