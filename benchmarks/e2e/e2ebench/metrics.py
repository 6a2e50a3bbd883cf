"""What the benchmark declares: ``BENCHMARK.json`` plus who emits what.

``BENCHMARK.json`` (repo root) is the single declaration of metric names,
units, directions and regression bounds, and of the workloads the driver
*gates* — four of the harness's six (``ALL`` below): the contract's time
limit buys either six short runs or four long ones, and the other two
(``dp_ranks``, ``serve_burst``) enter no layer a gated workload does not;
``run.py`` still runs all six.  The schema has no room for *which workload
measures which layer*, so that table lives here.  A workload must emit exactly
the layer metrics listed for it — the runner fails loudly on a missing or an
undeclared name.
"""

from __future__ import annotations

import json

from .environment import REPO_ROOT

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

MD = ("dp_serial", "lj_serial", "dp_ranks", "lj_ranks")
SERIAL = ("dp_serial", "lj_serial")
RANKED = ("dp_ranks", "lj_ranks")
DP = ("dp_serial", "dp_ranks")
SERVING = ("serve_burst", "serve_open")
#: Every workload of the harness, in the order ``run.py`` runs them.
ALL = MD + SERVING

#: Layer metric -> the workloads that measure it.  Layers are this repo's
#: modules; a workload that never enters a layer emits nothing for it (the
#: one-line contract output reports 0 there: no time spent, no work done).
LAYER_WORKLOADS = {
    "bench.trace_overhead_frac": ALL,
    # deepmd: span on dp_serial, replays on one rank's snapshot on dp_ranks
    "deepmd.pair_style.compute_ms": DP,
    "deepmd.envmat.build_ms": DP,
    "deepmd.envmat.valid_pairs": DP,
    "deepmd.envmat.pad_frac": DP,
    "deepmd.model.evaluate_ms": DP,
    "deepmd.model.self_ms": DP,
    "deepmd.compression.table_ms": DP,
    "deepmd.compression.rows": DP,
    "deepmd.compression.computed_mb": DP,
    "deepmd.compression.table_build_s": DP,
    "deepmd.networks.fit_ms": DP,
    "deepmd.gemm.flops": DP,
    "deepmd.gemm.cast_bytes": DP,
    "deepmd.model.evaluate_many_ms": SERVING,
    # md
    "md.neighbor.build_ms": SERIAL,
    "md.neighbor.builds_per_100_steps": SERIAL,
    "md.neighbor.pairs": SERIAL,
    "md.neighbor.check_ms": SERIAL,
    "md.forcefields.lj_compute_ms": ("lj_serial",),
    "md.integrators.step_ms": SERIAL,
    "md.simulation.compute_forces_self_ms": SERIAL,
    "md.stepping.run_overhead_ms": SERIAL,
    "md.workspace.misses_per_step": SERIAL,
    "md.workspace.pool_mb": SERIAL,
    # parallel
    "parallel.engine.compute_forces_ms": RANKED,
    "parallel.engine.integrate_ms": RANKED,
    "parallel.engine.parent_self_ms": RANKED,
    "parallel.executor.publish_ms": RANKED,
    "parallel.executor.rebuild_ms": RANKED,
    "parallel.executor.prepare_ms": RANKED,
    "parallel.executor.finish_ms": RANKED,
    "parallel.executor.dispatch_wait_ms": RANKED,
    "parallel.executor.speedup_vs_sequential": RANKED,  # omitted below 2 visible cores
    "parallel.threadpool.roundtrip_us": RANKED,
    "parallel.exchange.ghosts_per_rank": RANKED,
    "parallel.exchange.forward_bytes_per_step": RANKED,
    "parallel.exchange.messages_per_step": RANKED,
    "parallel.exchange.deliver_ms": RANKED,
    "parallel.loadbalance.atom_sdmr_pct": RANKED,
    "parallel.loadbalance.pair_time_sdmr_pct": RANKED,
    # serving
    "serving.queue.wait_ms_mean": SERVING,
    "serving.engine.service_ms_mean": SERVING,
    "serving.engine.batch_width_mean": SERVING,
    "serving.engine.batches": SERVING,
    "serving.engine.latency_p95_ms": SERVING,
    "serving.engine.latency_p99_ms": SERVING,
    "serving.engine.sync_systems_per_s": SERVING,
    "serving.engine.pipeline_efficiency": ("serve_burst",),
    "serving.batch.prepare_us_per_system": SERVING,
    "serving.batch.pack_ms": SERVING,
    "serving.loadgen.late_ms_p99": ("serve_open",),
    "serving.loadgen.achieved_per_s": ("serve_open",),
    "serving.loadgen.max_backlog": ("serve_open",),
}

#: Layer metrics that are counts fixed by the inputs: the same seed must give
#: the same number, so ``--compare`` diffs them exactly instead of by spread.
EXACT_COUNT_PATTERNS = (
    "pairs", ".rows", ".flops", ".builds_", "bytes", ".messages", ".computed_mb", ".ghosts_per_rank"
)


def is_exact_count(name: str) -> bool:
    return any(pattern in name for pattern in EXACT_COUNT_PATTERNS)


def load_declaration() -> dict:
    """``BENCHMARK.json`` with name-keyed views of its metric lists."""
    declaration = json.loads(BENCHMARK_JSON.read_text())
    declaration["workload_names"] = [w["name"] for w in declaration["workloads"]]
    declaration["end_to_end_by_name"] = {m["name"]: m for m in declaration["end_to_end"]}
    declaration["per_layer_by_name"] = {m["name"]: m for m in declaration["per_layer"]}
    return declaration


def layer_metrics_for(workload: str) -> list[str]:
    return [name for name, workloads in LAYER_WORKLOADS.items() if workload in workloads]
