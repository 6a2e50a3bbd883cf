"""CLI: ``python -m repro.analysis [paths...]`` — lint the house invariants.

Prints one ``path:line: RLxxx message`` line per finding and a per-rule count
summary, then exits 0 when every contract holds and 1 otherwise.  The default
targets are ``src tests benchmarks``; CI lints ``src tests benchmarks
examples``.  ``--update-golden --reason "..."`` refreshes the RL007
fingerprint baseline after an intentional golden edit.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .fingerprint import (
    DEFAULT_BASELINE_PATH,
    collect_fingerprints,
    write_golden_baseline,
)
from .reprolint import ParsedFile, Violation, iter_python_files, lint_paths

DEFAULT_PATHS = ["src", "tests", "benchmarks"]


def render_text(violations: list[Violation]) -> str:
    """The findings, one per line, then ``reprolint: clean`` or the counts."""
    lines = [violation.format() for violation in violations]
    counts = Counter(violation.rule_id for violation in violations)
    if counts:
        summary = ", ".join(f"{rule_id}: {n}" for rule_id, n in sorted(counts.items()))
        lines.append(f"reprolint: {len(violations)} violation(s) ({summary})")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines)


def _update_golden(paths: list[str], reason: str) -> int:
    parsed_files: dict[str, ParsedFile] = {}
    for path in iter_python_files(paths):
        rel_path = path.as_posix()
        try:
            parsed_files[rel_path] = ParsedFile.parse(
                path.read_text(encoding="utf-8"), rel_path
            )
        except (OSError, SyntaxError):
            continue
    fingerprints, missing = collect_fingerprints(parsed_files)
    if missing:
        for key in missing:
            print(f"golden site {key} not found under {' '.join(paths)}", file=sys.stderr)
        return 2
    write_golden_baseline(fingerprints, reason)
    print(f"recorded {len(fingerprints)} golden fingerprint(s) in {DEFAULT_BASELINE_PATH}")
    print(f"reason: {reason}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: AST-enforced architecture invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="refresh analysis/golden_baseline.json from the current tree (RL007)",
    )
    parser.add_argument(
        "--reason",
        default=None,
        help="why the golden regions changed (required with --update-golden)",
    )
    args = parser.parse_args(argv)

    if args.update_golden:
        if not args.reason or not args.reason.strip():
            parser.error("--update-golden requires --reason (why did the golden regions change?)")
        return _update_golden(args.paths, args.reason.strip())

    violations = lint_paths(args.paths)
    print(render_text(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
