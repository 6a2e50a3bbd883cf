"""reprolint, the AST-based invariant linter (``python -m repro.analysis``)."""

from .reprolint import Violation, lint_paths, lint_source, lint_sources

__all__ = [
    "Violation",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
