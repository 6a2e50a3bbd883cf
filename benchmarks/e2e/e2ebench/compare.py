"""``--compare A.json B.json``: did B get worse than A, metric by workload?

Each file is a result file (``--out``) holding one or more runs of the full
command.  For every (end-to-end metric, workload) pair the medians, quartiles,
change and the declared bound are printed with one verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread is wider than the bound and the two sides overlap,
                so the bound cannot be resolved either way: run more

With several runs per file the quartiles are taken over the runs' values;
with one run they are the in-run quartiles over its rounds.  ``failed_frac``
regresses on any increase.  Layer metrics that are counts fixed by the inputs
are diffed exactly.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import NamedTuple

from . import metrics
from .stats import quartiles


def _runs(path: Path) -> list[dict]:
    document = json.loads(path.read_text())
    if "runs" not in document:
        raise SystemExit(f"{path}: not a result file written by run.py --out")
    return document["runs"]


class Side(NamedTuple):
    """One metric on one workload in one result file."""

    median: float
    q1: float
    q3: float
    lo: float  # the range the overlap test uses: min/max over runs,
    hi: float  # or the in-run quartiles when there is a single run
    n_runs: int


def _side(runs: list[dict], workload: str, metric: str) -> Side | None:
    records = [
        run["workloads"][workload]["end_to_end"][metric]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]
    if not records:
        return None
    values = [r["value"] for r in records]
    if len(values) >= 2:
        q1, median, q3 = quartiles(values)
        return Side(median, q1, q3, min(values), max(values), len(values))
    only = records[0]
    return Side(only["value"], only["q1"], only["q3"], only["q1"], only["q3"], 1)


def _failed_frac(runs: list[dict], workload: str) -> float | None:
    values = [run["workloads"][workload]["failed_frac"] for run in runs if workload in run["workloads"]]
    return statistics.median(values) if values else None


def verdict(a: Side, b: Side, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)``; ``worse_by`` is B's loss as a share of A's median."""
    worse_by = (a.median - b.median) / a.median if better == "higher" else (b.median - a.median) / a.median
    spread = max((a.q3 - a.q1) / a.median, (b.q3 - b.q1) / b.median)
    overlap = a.lo <= b.hi and b.lo <= a.hi
    if spread > bound and overlap:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(path_a: Path, path_b: Path) -> int:
    declaration = metrics.load_declaration()
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    for label, path, runs in (("A", path_a, runs_a), ("B", path_b, runs_b)):
        print(f"{label} = {path}: {len(runs)} run(s), seeds {[run['seed'] for run in runs]}")
    print(
        f"{'workload':<12} {'metric':<18} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    tally = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in metrics.ALL:
        for declared in declaration["end_to_end"]:
            a = _side(runs_a, workload, declared["name"])
            b = _side(runs_b, workload, declared["name"])
            if a is None or b is None:
                continue
            result, worse_by = verdict(a, b, declared["better"], declared["bound"])
            tally[result] += 1
            print(
                f"{workload:<12} {declared['name']:<18} "
                f"{f'{a.median:.5g} [{a.q1:.5g}, {a.q3:.5g}]':<34} {f'{b.median:.5g} [{b.q1:.5g}, {b.q3:.5g}]':<34} "
                f"{worse_by:>+9.2%} {declared['bound']:>6.0%}  {result}"
            )
        failed_a, failed_b = _failed_frac(runs_a, workload), _failed_frac(runs_b, workload)
        if failed_a is not None and failed_b is not None:
            result = "regressed" if failed_b > failed_a else "ok"
            tally[result] += 1
            print(
                f"{workload:<12} {'failed_frac':<18} {failed_a:<34.6g} {failed_b:<34.6g} {'':>9} {'any':>6}  {result}"
            )

    print("\nexact counts (per-layer metrics fixed by the inputs and the seed; first run of each side):")
    differing = 0
    for workload in metrics.ALL:
        layer_a = runs_a[0]["workloads"].get(workload, {}).get("per_layer", {})
        layer_b = runs_b[0]["workloads"].get(workload, {}).get("per_layer", {})
        for name in sorted(set(layer_a) & set(layer_b)):
            if not metrics.is_exact_count(name):
                continue
            va, vb = layer_a[name]["value"], layer_b[name]["value"]
            same = va == vb
            differing += not same
            print(f"  {workload:<12} {name:<44} {va:>16.10g} {vb:>16.10g}  {'same' if same else 'DIFFERENT'}")
    print(
        f"\n{tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved; "
        f"{differing} exact count(s) differ"
    )
    return 1 if tally["regressed"] else 0
