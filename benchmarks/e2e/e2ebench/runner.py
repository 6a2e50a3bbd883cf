"""The run shape every workload goes through, inside its own subprocess.

one cold set-up -> warm-up -> >= 9 timed rounds with tracing off -> peak RSS ->
correctness check -> set-up x N from fresh objects (median -> ``setup_s``) ->
traced pass (spans in memory, written once at the end).  End-to-end
numbers only ever come from the untraced rounds.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
import numpy as np

from . import metrics
from .environment import OUT_DIR, describe
from .md_workloads import MDWorkload
from .serving_workloads import ServingWorkload
from .stats import summary
from .tracing import Tracer

MIN_ROUNDS = 9
#: Fresh warm constructions timed for ``setup_s``: at least five; cheap set-ups
#: repeat (up to 25, within ~1.5 s) because a 0.01-0.1 s construction is noisy.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 25, 1.5


def make_workload(name: str, seed: int, smoke: bool):
    workload_class = MDWorkload if name in metrics.MD else ServingWorkload
    return workload_class(name, seed, smoke)


def _peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(measured: dict, setup_seconds: list[float], peak_rss: float) -> dict:
    rates = [n / wall for n, wall in measured["rounds"]]
    if "latency_rounds_ms" in measured:  # per-request samples (serving), round by round
        # the median over rounds of each round's median: a slow spell of the
        # box moves the rounds it covers, not the figure, while it covers
        # fewer than half of them
        p50 = summary([float(np.median(r)) for r in measured["latency_rounds_ms"]])
    else:  # wall time of one unit of work (an MD step), per round
        p50 = summary([1e3 * wall / n for n, wall in measured["rounds"]])
    return {
        "throughput_per_s": summary(rates, measured.get("throughput")),
        "latency_p50_ms": p50,
        "setup_s": summary(setup_seconds),
        "peak_rss_mb": {"value": peak_rss, "q1": peak_rss, "q3": peak_rss, "n": 1},
    }


def _timed_setups(workload) -> list[float]:
    """Seconds of each fresh warm construction (each closed straight away)."""
    seconds: list[float] = []
    while len(seconds) < MIN_SETUPS or (len(seconds) < MAX_SETUPS and sum(seconds) < SETUP_BUDGET_S):
        start = time.perf_counter()
        fresh = workload.setup()
        seconds.append(time.perf_counter() - start)
        workload.close(fresh)
    return seconds


def run_workload(name: str, seed: int, seconds: float, e2e: bool, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns its result record (never raises)."""
    record = {"workload": name, "seed": seed, "seconds": seconds, "smoke": smoke}
    try:
        record.update(_run(name, seed, seconds, e2e, trace, smoke))
    except Exception:  # noqa: BLE001 - a crashed workload is a failed workload, reported as such
        record.update(correct=False, attempted=1, failed=1, error=traceback.format_exc())
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def _run(name: str, seed: int, seconds: float, e2e: bool, trace: bool, smoke: bool) -> dict:
    declaration = metrics.load_declaration()
    workload = make_workload(name, seed, smoke)
    inputs = workload.make_inputs()
    # inputs and imports are permanent: keep the collector from re-walking them
    gc.collect()
    gc.freeze()

    # the first construction is cold (lazy imports, first-touch pages): it is
    # reported beside setup_s but is not part of it
    start = time.perf_counter()
    target = workload.setup()
    cold_setup = time.perf_counter() - start
    try:
        workload.warm_up(target)
        if smoke:
            min_rounds, window = 1, 0.5
        elif e2e:
            min_rounds, window = MIN_ROUNDS, seconds
        else:  # only a reference for bench.trace_overhead_frac is needed
            min_rounds, window = 3, seconds / 3.0
        measured = workload.measure(target, window, min_rounds)
        # read before the check (its fp64 reference is not the workload) and
        # before the repeated set-ups (freed-and-refilled heaps inflate it)
        peak_rss = _peak_rss_mib()
        check = workload.check(target)
        setup_seconds = _timed_setups(workload) if e2e else [cold_setup]
        failed = measured["failed"] if check["ok"] else measured["attempted"]
        end_to_end = _end_to_end(measured, setup_seconds, peak_rss)
        throughput = end_to_end["throughput_per_s"]["value"]
        result = {
            "correct": bool(check["ok"] and failed == 0),
            "attempted": measured["attempted"],
            "failed": failed,
            "inputs": inputs,
            "check": check,
            "rounds": len(measured["rounds"]),
            "derived": {**workload.derived(throughput), "setup_cold_s": cold_setup},
            "env": describe(),
        }
        if e2e:
            for metric, value in end_to_end.items():
                value["unit"] = declaration["end_to_end_by_name"][metric]["unit"]
            result["end_to_end"] = end_to_end
        if trace:
            tracer = Tracer(name)
            with tracer.span(f"{name}.traced_pass"):
                layer = workload.trace(target, tracer, 1.0 if smoke else seconds / 3.0, throughput)
            expected = set(metrics.layer_metrics_for(name)) - workload.omitted_metrics
            if set(layer) != expected:
                raise RuntimeError(
                    f"{name} layer metrics differ from the declaration: missing "
                    f"{sorted(expected - set(layer))}, undeclared {sorted(set(layer) - expected)}"
                )
            result["per_layer"] = {
                metric: {"value": float(layer[metric]), "unit": declaration["per_layer_by_name"][metric]["unit"]}
                for metric in sorted(layer)
            }
            trace_file = OUT_DIR / f"trace-{name}.json"
            tracer.write(trace_file)
            result["trace_file"] = str(trace_file.relative_to(metrics.REPO_ROOT))
        return result
    finally:
        workload.close(target)
        sequential = getattr(workload, "sequential", None)
        if sequential is not None:
            sequential.close()
