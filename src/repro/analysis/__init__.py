"""reprolint, the AST-based invariant linter (``python -m repro.analysis``).

The linter itself is :mod:`repro.analysis.reprolint` (``lint_paths``,
``lint_source``, ``lint_sources``, ``Violation``); nothing outside tests
imports it through the package, so the package re-exports nothing.
"""
