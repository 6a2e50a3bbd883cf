"""AST-normalized fingerprints of the declared golden regions (RL007).

A golden region is frozen against any semantic change at all.  A region's
fingerprint is the SHA-256 of its ``ast.dump`` with locations excluded and
docstrings stripped, so comments, blank lines, formatting and documentation
edits never trip the rule while a changed constant, reordered statement or
renamed local does.

The recorded hashes live in ``analysis/golden_baseline.json`` next to this
module and are refreshed only through ``python -m repro.analysis
--update-golden --reason "..."`` — the mandatory reason is stored alongside
the hashes so the history of intentional golden edits stays in the file.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path

from .contracts import GOLDEN_SITES, GoldenSite

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "golden_site_key",
    "region_fingerprint",
    "collect_fingerprints",
    "load_golden_baseline",
    "write_golden_baseline",
]

#: The committed baseline consumed by ``lint_paths`` and CI.
DEFAULT_BASELINE_PATH = Path(__file__).with_name("golden_baseline.json")

_DOC_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def golden_site_key(site: GoldenSite) -> str:
    """The stable identity a site's hash is recorded under."""
    return f"{site.path_suffix}::{site.qualname or '<module>'}"


def _strip_docstrings(node: ast.AST) -> ast.AST:
    for scope in ast.walk(node):
        if not isinstance(scope, _DOC_SCOPES) or not scope.body:
            continue
        first = scope.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            scope.body = scope.body[1:] or [ast.Pass()]
    return node


def region_fingerprint(node: ast.AST) -> str:
    """A location-free, docstring-free hash of one golden region's AST."""
    clean = _strip_docstrings(copy.deepcopy(node))
    dump = ast.dump(clean, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def find_site_region(site: GoldenSite, parsed) -> ast.AST | None:
    """The AST region a site declares inside one parsed file, if present."""
    if site.qualname is None:
        return parsed.tree
    for qualname, node in parsed.functions + parsed.classes:
        if qualname == site.qualname:
            return node
    return None


def collect_fingerprints(parsed_files: dict) -> tuple[dict[str, str], list[str]]:
    """``({site key: hash}, [keys of sites missing from the parsed set])``."""
    fingerprints: dict[str, str] = {}
    missing: list[str] = []
    for site in GOLDEN_SITES:
        region = None
        for rel_path, parsed in sorted(parsed_files.items()):
            if rel_path.endswith(site.path_suffix):
                region = find_site_region(site, parsed)
                if region is not None:
                    break
        if region is None:
            missing.append(golden_site_key(site))
        else:
            fingerprints[golden_site_key(site)] = region_fingerprint(region)
    return fingerprints, missing


def load_golden_baseline(path: str | Path = DEFAULT_BASELINE_PATH) -> dict[str, str] | None:
    """The recorded ``{site key: hash}`` map, or ``None`` when absent/invalid."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    fingerprints = payload.get("fingerprints") if isinstance(payload, dict) else None
    if not isinstance(fingerprints, dict):
        return None
    return {str(k): str(v) for k, v in fingerprints.items()}


def write_golden_baseline(
    fingerprints: dict[str, str], reason: str, path: str | Path = DEFAULT_BASELINE_PATH
) -> None:
    payload = {
        "comment": (
            "AST-normalized golden-region fingerprints (RL007). Refresh only via "
            "`python -m repro.analysis --update-golden --reason '...'`."
        ),
        "reason": reason,
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
