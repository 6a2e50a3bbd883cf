"""The two serving workloads: ``serve_burst`` (closed loop) and ``serve_open``.

Same engine, same request pool, two traffic shapes.  ``serve_burst`` keeps a
sliding window of requests outstanding from one client thread, so every
admitted batch is full (width 32): it measures the capacity of the threaded
pipeline.  ``serve_open`` sends on a seeded Poisson schedule well below that
capacity and times every request from the moment it was *due*: batches are
2-3 wide and the 2 ms admission window dominates, so admission-policy and
prep-thread changes show here and are invisible to ``serve_burst``.  Wider
batches raise throughput and lengthen latency; both workloads exist so that
trade shows.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.md import Atoms, Box, Workspace
from repro.serving import ServingEngine, ServingStats, evaluate_serial, pack_systems, prepare_system

from .stats import median_ms
from .tracing import Tracer

REQUEST_TIMEOUT_S = 30.0
CHECKED_RESPONSES = 64
PARITY_ATOL = 1e-10
BATCH_WIDTH = 32


@dataclass(frozen=True)
class ServingSpec:
    pool_size: int
    warmup_seconds: float
    window: int  # closed loop: requests kept outstanding
    round_requests: int  # closed loop: completions per timed round
    rate_per_s: float  # open loop: Poisson arrival rate
    slice_seconds: float  # open loop: the window is cut into rounds this long


_BURST = dict(window=64, rate_per_s=0.0, slice_seconds=0.0)
_OPEN = dict(window=0, round_requests=0)
SPECS = {
    "serve_burst": ServingSpec(pool_size=3200, warmup_seconds=5.0, round_requests=1600, **_BURST),
    "serve_open": ServingSpec(pool_size=3200, warmup_seconds=4.0, rate_per_s=600.0, slice_seconds=1.0, **_OPEN),
}
SMOKE_SPECS = {
    "serve_burst": ServingSpec(pool_size=128, warmup_seconds=0.3, round_requests=200, **_BURST),
    "serve_open": ServingSpec(pool_size=128, warmup_seconds=0.3, rate_per_s=300.0, slice_seconds=0.125, **_OPEN),
}


class ServingWorkload:
    """Run shape hooks for one serving workload (driven by ``runner.run_workload``)."""

    omitted_metrics: frozenset = frozenset()

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.spec = (SMOKE_SPECS if smoke else SPECS)[name]
        self.seed = seed
        self.closed_loop = name == "serve_burst"
        self._cursor = 0

    # -- inputs -------------------------------------------------------------------
    def make_inputs(self) -> dict:
        """The model seed, the request pool and the arrival gaps, all from the seed.

        Clusters follow ``bench_serving_throughput.py``: 4-12 copper atoms on a
        jittered 3x3x3 grid in a non-periodic 40 A box (the brute-force branch
        of ``md.neighbor``).  The pool is reused cyclically, so memory does not
        grow with run length.
        """
        self._weights, sizes, geometry, self._arrivals = np.random.SeedSequence(self.seed).spawn(4)
        sizes = np.random.default_rng(sizes).integers(4, 13, size=self.spec.pool_size)
        rng = np.random.default_rng(geometry)
        grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        self.box = Box.cubic(40.0, periodic=False)
        self.pool = []
        for n in sizes:
            n = int(n)
            positions = grid[:n] * 2.4 + rng.normal(scale=0.15, size=(n, 3)) + 2.0
            self.pool.append(
                Atoms(
                    positions=positions,
                    types=np.zeros(n, dtype=np.int64),
                    masses=np.full(n, 63.546),
                )
            )
        return {
            "n_requests_pool": len(self.pool),
            "atoms_in_pool": int(sizes.sum()),
            "positions_sum": float(sum(a.positions.sum() for a in self.pool)),
        }

    def _next_index(self) -> int:
        index = self._cursor
        self._cursor = (index + 1) % len(self.pool)
        return index

    # -- run shape ------------------------------------------------------------------
    def setup(self):
        """First ``repro`` constructor call -> first served request."""
        config = DeepPotentialConfig(
            type_names=("Cu",),
            cutoff=4.5,
            cutoff_smooth=3.5,
            embedding_sizes=(6, 12),
            axis_neurons=4,
            fitting_sizes=(16, 16),
            max_neighbors=16,
            seed=np.random.default_rng(self._weights),
        )
        engine = ServingEngine(
            DeepPotential(config), precision="double", compressed=True, max_batch_size=BATCH_WIDTH, max_wait_ms=2.0
        )
        engine.start()
        engine.submit(self.pool[0], self.box).result(timeout=REQUEST_TIMEOUT_S)
        return engine

    def close(self, engine) -> None:
        engine.stop()

    def warm_up(self, engine) -> None:
        if self.closed_loop:
            self._closed_loop(engine, self.spec.warmup_seconds, min_rounds=0)
        # the open loop warms up inside its own schedule (requests due before
        # the measured window count for nothing), so arrivals never pause

    def measure(self, engine, seconds: float, min_rounds: int, tracer: Tracer | None = None) -> dict:
        engine.stats = ServingStats()  # engine-side wait/service accounting restarts here
        if self.closed_loop:
            result = self._closed_loop(engine, seconds, min_rounds, tracer)
        else:
            # an already-warm engine (the traced pass) needs no long lead-in
            warmup = self.spec.warmup_seconds if tracer is None else min(0.5, self.spec.warmup_seconds)
            result = self._open_loop(engine, seconds, warmup, tracer)
        self._engine_stats = engine.stats
        return result

    def derived(self, throughput: float) -> dict:
        return {}

    def _collect(self, future, index: int, keep: dict | None):
        """Wait for one response; returns ``(t_done, failed)``."""
        try:
            output = future.result(timeout=REQUEST_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - raised or timed out: the request failed, the run goes on
            return time.perf_counter(), True
        t_done = time.perf_counter()
        if keep is not None and len(keep) < CHECKED_RESPONSES:
            keep.setdefault(index, output)
        return t_done, not math.isfinite(output.energy)

    def _closed_loop(self, engine, seconds: float, min_rounds: int, tracer: Tracer | None = None) -> dict:
        """One client thread (this one) keeping ``window`` requests outstanding;
        stops at the first round boundary past ``seconds`` and ``min_rounds``."""
        spec = self.spec
        outstanding: deque = deque()
        self._responses = {}

        def submit():
            index = self._next_index()
            t_submit = time.perf_counter()
            outstanding.append((engine.submit(self.pool[index], self.box), index, t_submit))

        for _ in range(spec.window):
            submit()
        rounds, by_round, failed = [], [[]], 0
        start = round_start = time.perf_counter()
        while True:
            future, index, t_submit = outstanding.popleft()
            t_done, bad = self._collect(future, index, self._responses)
            failed += bad
            by_round[-1].append((t_done - t_submit) * 1e3)
            if tracer is not None:
                tracer.record("serving.request", t_submit, t_done)
            if len(by_round[-1]) == spec.round_requests:
                rounds.append((spec.round_requests, t_done - round_start))
                round_start = t_done
                if len(rounds) >= min_rounds and t_done - start >= seconds:
                    break
                by_round.append([])
            submit()
        for future, index, _ in outstanding:  # drain the window, uncounted
            self._collect(future, index, None)
        attempted = spec.round_requests * len(rounds)
        return {"rounds": rounds, "latency_rounds_ms": by_round, "attempted": attempted, "failed": failed}

    def _open_loop(self, engine, seconds: float, warmup: float, tracer: Tracer | None = None) -> dict:
        """A generator thread sends on the seeded Poisson schedule; this thread
        collects.  Latency runs from each request's *due* time, so a stall in
        the generator or the engine is charged to every request it delays.
        Requests due during the first ``warmup`` seconds count for nothing;
        the rest fall into rounds of ``slice_seconds`` by their due time."""
        spec = self.spec
        n_slices = max(1, round(seconds / spec.slice_seconds))
        horizon = warmup + seconds
        rng = np.random.default_rng(self._arrivals)
        gaps = rng.exponential(1.0 / spec.rate_per_s, size=int(horizon * spec.rate_per_s * 1.2) + 16)
        due = np.cumsum(gaps)
        due = due[due < horizon]
        indices = [self._next_index() for _ in due]
        sent: queue.SimpleQueue = queue.SimpleQueue()
        progress = {"completed": 0, "max_backlog": 0}
        self._responses = {}
        origin = time.perf_counter() + 0.05

        def generate():
            for k, offset in enumerate(due):
                t_due = origin + offset
                delay = t_due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                future = engine.submit(self.pool[indices[k]], self.box)
                sent.put((future, indices[k], t_due, time.perf_counter()))
                progress["max_backlog"] = max(progress["max_backlog"], k + 1 - progress["completed"])

        generator = threading.Thread(target=generate, name="loadgen")
        generator.start()
        measured_from = origin + warmup
        lateness, failed, t_done = [], 0, measured_from
        by_slice: list[list[float]] = [[] for _ in range(n_slices)]
        try:
            for _ in due:
                future, index, t_due, t_sent = sent.get(timeout=REQUEST_TIMEOUT_S)
                measured = t_due >= measured_from
                t_done, bad = self._collect(future, index, self._responses if measured else None)
                progress["completed"] += 1
                if not measured:
                    continue
                failed += bad
                lateness.append((t_sent - t_due) * 1e3)
                k = min(int((t_due - measured_from) / seconds * n_slices), n_slices - 1)
                by_slice[k].append((t_done - t_due) * 1e3)
                if tracer is not None:
                    tracer.record("serving.request", t_due, t_done)
        finally:
            generator.join()
        self._loadgen = {
            "serving.loadgen.late_ms_p99": float(np.percentile(lateness, 99)),
            "serving.loadgen.achieved_per_s": len(lateness) / seconds,
            "serving.loadgen.max_backlog": progress["max_backlog"],
        }
        return {
            "rounds": [(len(s), seconds / n_slices) for s in by_slice],
            # completions over the time they took: window start -> last result
            "throughput": len(lateness) / (t_done - measured_from),
            "latency_rounds_ms": [s for s in by_slice if s],
            "attempted": len(lateness),
            "failed": failed,
        }

    # -- correctness ------------------------------------------------------------------
    def check(self, engine) -> dict:
        """Sampled responses equal the one-at-a-time serial reference."""
        model = engine.model
        table = model.compressed_embeddings()
        worst = 0.0
        for index, output in self._responses.items():
            system = prepare_system(model, self.pool[index], self.box)
            (reference,) = evaluate_serial(model, [system], compressed=True, compression_table=table)
            worst = max(
                worst,
                abs(output.energy - reference.energy),
                float(np.abs(output.forces - reference.forces).max()),
            )
        enough = len(self._responses) >= min(CHECKED_RESPONSES, len(self.pool))
        return {
            "responses_checked": len(self._responses),
            "max_abs_error_vs_serial": worst,
            "ok": bool(enough and worst <= PARITY_ATOL),
        }

    # -- traced pass ------------------------------------------------------------------
    def trace(self, engine, tracer: Tracer, seconds: float, untraced_throughput: float) -> dict:
        """A second, shorter measurement with one span per request, then
        single-thread replays of the pipeline's stages on the same pool."""
        with tracer.span(f"{self.name}.traced_load"):
            traced = self.measure(engine, seconds, min_rounds=1, tracer=tracer)
        traced_throughput = sum(n for n, _ in traced["rounds"]) / sum(w for _, w in traced["rounds"])
        stats = self._engine_stats
        engine_ms = stats.latency_ms()
        latencies = np.concatenate(traced["latency_rounds_ms"])
        out = {
            "bench.trace_overhead_frac": 1.0 - traced_throughput / untraced_throughput,
            "serving.queue.wait_ms_mean": engine_ms["wait_mean"],
            "serving.engine.service_ms_mean": engine_ms["service_mean"],
            "serving.engine.batch_width_mean": stats.mean_batch_size(),
            "serving.engine.batches": stats.n_batches,
            "serving.engine.latency_p95_ms": float(np.percentile(latencies, 95)),
            "serving.engine.latency_p99_ms": float(np.percentile(latencies, 99)),
        }
        if not self.closed_loop:
            out.update(self._loadgen)

        model = engine.model
        sample = [self.pool[i % len(self.pool)] for i in range(8 * BATCH_WIDTH)]
        with tracer.span("serving.batch.prepare_system"):
            start = time.perf_counter()
            systems = [prepare_system(model, atoms, self.box) for atoms in sample]
            out["serving.batch.prepare_us_per_system"] = (time.perf_counter() - start) * 1e6 / len(sample)
        batch_systems = systems[:BATCH_WIDTH]
        workspace = Workspace()
        batch = pack_systems(model, batch_systems, workspace=workspace)
        with tracer.span("serving.batch.pack"):
            out["serving.batch.pack_ms"] = median_ms(
                lambda: pack_systems(model, batch_systems, workspace=workspace), 20
            )
        table = model.compressed_embeddings()

        def evaluate_many():
            return model.evaluate_many(
                batch.env,
                batch.system_of_atom,
                batch.offsets,
                precision=engine.policy,
                backend=engine.backend,
                compressed=True,
                compression_table=table,
                workspace=workspace,
            )

        evaluate_many()
        with tracer.span("deepmd.model.evaluate_many"):
            out["deepmd.model.evaluate_many_ms"] = median_ms(evaluate_many, 20)

        # the synchronous path: prepare -> evaluate_batch -> split at full
        # width on this thread alone (the pipeline is idle: nothing outstanding)
        with tracer.span("serving.engine.sync"):
            served, start = 0, time.perf_counter()
            while time.perf_counter() - start < min(1.0, seconds):
                chunk = [self.pool[self._next_index()] for _ in range(BATCH_WIDTH)]
                engine.evaluate_batch([prepare_system(model, a, self.box) for a in chunk]).split()
                served += BATCH_WIDTH
            sync_rate = served / (time.perf_counter() - start)
        out["serving.engine.sync_systems_per_s"] = sync_rate
        if self.closed_loop:
            # base: the synchronous single-thread rate measured just above
            out["serving.engine.pipeline_efficiency"] = untraced_throughput / sync_rate
        return out
