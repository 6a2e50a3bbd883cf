"""The four MD workloads: ``dp_serial``, ``lj_serial``, ``dp_ranks``, ``lj_ranks``.

Why these four (see ../README.md for the long form): ``dp_*`` spend >= 95 % of
a step inside ``deepmd``; ``lj_*`` never touch it, so they are the bypass
workloads for every ``deepmd`` change and the mechanism workloads for the
neighbour build, the run loop and (ranked) per-step dispatch.  The serial
pair isolates kernels, the ranked pair adds ghost work, the parent's serial
fraction and worker IPC — ``dp_ranks`` with ~0.5 s steps where dispatch is
noise, ``lj_ranks`` with ~12 ms steps where it is a visible share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig, DeepPotentialForceField, GemmBackend
from repro.md import LennardJones, NeighborList, Simulation, Workspace, copper_system, water_system
from repro.md.neighbor import NeighborData, build_neighbor_data
from repro.parallel import (
    DomainDecomposedSimulation,
    MultiprocessRankExecutor,
    PersistentWorkerPool,
    RankExecutor,
)
from repro.parallel.threadpool import worker_reply

from .environment import worker_budget
from .stats import median_ms
from .tracing import Tracer

#: Initial temperatures.  The Deep Potential here is untrained (seeded random
#: weights), so nothing repels: at 300 K a free-flying H crosses the compressed
#: table's 0.5 A floor within ~50 steps and the production path (clamped
#: table) legitimately departs from the fp64 reference.  A 10 K start keeps
#: every pair inside the tabulated range for any run length the harness uses;
#: kernel cost does not depend on velocities.
TEMPERATURE_K = {"dp": 10.0, "lj": 300.0}


@dataclass(frozen=True)
class DPModelSpec:
    cutoff: float
    embedding_sizes: tuple[int, ...]
    axis_neurons: int
    fitting_sizes: tuple[int, ...]
    max_neighbors: int
    compression_points: int


@dataclass(frozen=True)
class MDSpec:
    """One MD workload at one size (full or ``--smoke``)."""

    potential: str  # "dp" (water, Deep Potential) | "lj" (copper, Lennard-Jones)
    size: object  # water molecules | copper cells
    timestep_fs: float
    neighbor_skin: float
    neighbor_every: int
    round_steps: int  # steps per timed ``run()`` call
    warmup_steps: int
    traced_steps: int
    drift_bound: float  # |dE_total| per atom over the timed rounds, eV
    model: DPModelSpec | None = None
    ranks: dict | None = None  # DomainDecomposedSimulation keywords, None = serial


_DP_MODEL = DPModelSpec(
    cutoff=6.0,
    embedding_sizes=(32, 64, 128),
    axis_neurons=8,
    fitting_sizes=(32, 32),
    max_neighbors=100,
    compression_points=512,
)
_DP_RANKS = dict(rank_dims=(2, 2, 1), scheme="node-based", node_balance=True)
_LJ_RANKS = dict(rank_dims=(2, 1, 1), scheme="p2p")
_DP = dict(potential="dp", size=333, timestep_fs=0.25, neighbor_skin=1.5, drift_bound=1e-6, model=_DP_MODEL)
_LJ = dict(potential="lj", timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5, drift_bound=1e-3)

SPECS = {
    "dp_serial": MDSpec(**_DP, neighbor_every=50, round_steps=5, warmup_steps=3, traced_steps=8),
    "lj_serial": MDSpec(**_LJ, size=(14, 14, 14), round_steps=20, warmup_steps=10, traced_steps=30),
    "dp_ranks": MDSpec(**_DP, neighbor_every=10, round_steps=4, warmup_steps=2, traced_steps=10, ranks=_DP_RANKS),
    "lj_ranks": MDSpec(**_LJ, size=(8, 8, 8), round_steps=120, warmup_steps=50, traced_steps=200, ranks=_LJ_RANKS),
}

#: ``--smoke``: the same workloads at toy size (a 64-molecule box needs a
#: shorter cutoff and skin to stay under half the box edge).
_DP_SMOKE = dict(
    size=64,
    neighbor_skin=0.5,
    round_steps=2,
    warmup_steps=1,
    traced_steps=2,
    model=DPModelSpec(
        cutoff=3.0,
        embedding_sizes=(8, 16),
        axis_neurons=4,
        fitting_sizes=(8, 8),
        max_neighbors=24,
        compression_points=128,
    ),
)
_LJ_SMOKE = dict(size=(4, 4, 4), round_steps=10, warmup_steps=5, traced_steps=10)
SMOKE_SPECS = {
    name: replace(spec, **(_DP_SMOKE if spec.potential == "dp" else _LJ_SMOKE)) for name, spec in SPECS.items()
}


# ---------------------------------------------------------------------------
# Delegating wrappers: the only way spans get between the program's layers
# ---------------------------------------------------------------------------


class SpanForceField:
    """Delegates to a force field, recording one span per ``compute``."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self.tracer = tracer
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def compute(self, atoms, box, neighbors, workspace=None):
        with self.tracer.span(self._name):
            return self._inner.compute(atoms, box, neighbors, workspace=workspace)


class SpanExecutor(RankExecutor):
    """Delegates to a rank executor, recording one span per seam call.

    Around ``finish`` it also reads the per-rank worker-side pair seconds the
    engine already accounts (``RankDomain.pair_seconds``) and keeps, per
    call, the busiest worker's share — what the parent's wait would be if
    dispatch and IPC were free.
    """

    def __init__(self, inner: RankExecutor, tracer: Tracer, n_workers: int) -> None:
        self._inner = inner
        self.tracer = tracer
        self._n_workers = n_workers
        self.name = inner.name
        self.busiest_worker_seconds = 0.0

    def bind(self, engine) -> None:
        self.engine = engine
        self._inner.bind(engine)
        # the process executor splits ranks into contiguous runs, one per worker
        self._partition = np.array_split(np.arange(engine.n_ranks), self._n_workers)

    def publish_positions(self) -> None:
        with self.tracer.span("parallel.executor.publish"):
            self._inner.publish_positions()

    def rebuild(self) -> None:
        with self.tracer.span("parallel.executor.rebuild"):
            self._inner.rebuild()

    def prepare(self) -> list:
        with self.tracer.span("parallel.executor.prepare"):
            return self._inner.prepare()

    def halo_sinks(self):
        return self._inner.halo_sinks()

    def finish(self, halos) -> list:
        domains = self.engine.domains
        before = np.array([d.pair_seconds for d in domains])
        with self.tracer.span("parallel.executor.finish"):
            results = self._inner.finish(halos)
        spent = np.array([d.pair_seconds for d in domains]) - before
        self.busiest_worker_seconds += max(float(spent[ranks].sum()) for ranks in self._partition)
        return results

    def close(self) -> None:
        self._inner.close()


def _noop_worker(conn) -> None:
    while worker_reply(conn, lambda message: None, conn.recv()):
        pass


def _workspace_mib(workspace) -> float:
    """Bytes held by a Workspace's pools (it exposes counters, not sizes)."""
    arrays = list(vars(workspace)["_arrays"].values()) + list(vars(workspace)["_capacities"].values())
    return sum(a.nbytes for a in arrays) / 2**20


# ---------------------------------------------------------------------------
# deepmd replays on a snapshot
# ---------------------------------------------------------------------------


def deepmd_replays(force_field, atoms, box, neighbors, rng) -> dict:
    """Per-layer ``deepmd.*`` numbers from public calls on one snapshot.

    ``neighbors`` is what the pair style would be handed for ``atoms`` (a
    rank's masked table for ``dp_ranks``).  Every timing is a median over a
    few repeats after one untimed call (pool buffers allocate on first use).
    """
    model = force_field.model
    policy = force_field.precision
    dtype = np.dtype(policy.compute_dtype)
    table = model.compressed_embeddings(
        n_points=force_field.compression_points,
        min_distance=force_field.compression_min_distance,
    )
    workspace = Workspace()
    backend = GemmBackend()
    out: dict[str, float] = {}

    def build_env():
        return model.build_environment(atoms, box, neighbors, workspace=workspace)

    env = build_env()
    out["deepmd.envmat.build_ms"] = median_ms(build_env, 5)
    valid_pairs = int(env.mask.sum())
    out["deepmd.envmat.valid_pairs"] = valid_pairs
    out["deepmd.envmat.pad_frac"] = 1.0 - valid_pairs / env.mask.size

    def evaluate():
        return model.evaluate(
            atoms,
            box,
            neighbors,
            precision=policy,
            backend=backend,
            compressed=True,
            compression_table=table,
            environment=env,
            workspace=workspace,
        )

    evaluate()
    backend.reset_stats()
    out["deepmd.model.evaluate_ms"] = median_ms(evaluate, 5)
    out["deepmd.gemm.flops"] = backend.stats.flops / 5
    out["deepmd.gemm.cast_bytes"] = backend.stats.cast_bytes / 5

    # the Hermite table and the fitting net, replayed per centre type on the
    # rows / shapes evaluate() just used
    width = table.width
    table_calls, fit_calls, rows = [], [], 0
    fit_dtypes = policy.fitting_dtypes(len(model.config.fitting_sizes) + 1)
    for center_type in range(model.n_types):
        idx = np.nonzero(env.types == center_type)[0]
        if len(idx) == 0:
            continue
        sub = env.select(idx)
        valid = sub.neighbor_types >= 0
        slots = table.slot_index(center_type, sub.neighbor_types[valid])
        s_valid = sub.s[valid]
        rows += len(s_valid)
        values = np.empty((len(s_valid), width), dtype=dtype)
        derivatives = np.empty_like(values)
        table_calls.append(
            lambda slots=slots, s=s_valid, v=values, d=derivatives: table.evaluate_batched(
                slots, s, out_values=v, out_derivatives=d, dtype=dtype
            )
        )
        net = model.fast_fittings()[center_type]
        descriptors = rng.standard_normal((len(idx), model.config.descriptor_dim)).astype(dtype)
        ones = np.ones((len(idx), 1), dtype=dtype)

        def fit(net=net, x=descriptors, ones=ones):
            net.forward(x, backend=backend, dtypes=fit_dtypes, cache=True)
            net.backward_input(ones, backend=backend, dtypes=fit_dtypes)

        fit_calls.append(fit)

    def run_all(calls):
        for call in calls:
            call()

    run_all(table_calls)
    run_all(fit_calls)
    out["deepmd.compression.table_ms"] = median_ms(lambda: run_all(table_calls), 5)
    out["deepmd.networks.fit_ms"] = median_ms(lambda: run_all(fit_calls), 5)
    out["deepmd.compression.rows"] = rows
    # computed from array sizes, not measured: per row the gather reads the
    # (4, M) Hermite operands and writes (M,) values and derivatives, plus the
    # fp64 s value and the int64 slot
    out["deepmd.compression.computed_mb"] = rows * (6 * width * dtype.itemsize + 16) / 2**20
    out["deepmd.model.self_ms"] = (
        out["deepmd.model.evaluate_ms"]
        - out["deepmd.compression.table_ms"]
        - out["deepmd.networks.fit_ms"]
    )
    return out


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


class MDWorkload:
    """Run shape hooks for one MD workload (driven by ``runner.run_workload``)."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.spec = (SMOKE_SPECS if smoke else SPECS)[name]
        self.seed = seed
        self.ranked = self.spec.ranks is not None
        self.n_workers = worker_budget() if self.ranked else 0
        #: with one worker there is no concurrency to compare: counts only
        self.omitted_metrics = (
            {"parallel.executor.speedup_vs_sequential"} if self.ranked and self.n_workers < 2 else set()
        )
        self.force_field = None
        self.sequential = None

    # -- inputs (everything random derives from the seed) ------------------------
    def make_inputs(self) -> dict:
        geometry, velocities, self._weights, self._replay = np.random.SeedSequence(self.seed).spawn(4)
        spec = self.spec
        if spec.potential == "dp":
            self.atoms, self.box, _ = water_system(spec.size, rng=np.random.default_rng(geometry))
        else:
            self.atoms, self.box = copper_system(
                spec.size, perturbation=0.05, rng=np.random.default_rng(geometry)
            )
        self.atoms.initialize_velocities(TEMPERATURE_K[spec.potential], rng=np.random.default_rng(velocities))
        return {
            "n_atoms": len(self.atoms),
            "positions_sum": float(self.atoms.positions.sum()),
            "velocities_sum": float(np.abs(self.atoms.velocities).sum()),
        }

    def _make_force_field(self):
        spec = self.spec
        if spec.potential == "lj":
            return LennardJones(0.05, 2.3, 5.0)
        m = spec.model
        config = DeepPotentialConfig(
            type_names=("O", "H"),
            cutoff=m.cutoff,
            embedding_sizes=m.embedding_sizes,
            axis_neurons=m.axis_neurons,
            fitting_sizes=m.fitting_sizes,
            max_neighbors=m.max_neighbors,
            seed=np.random.default_rng(self._weights),
        )
        return DeepPotentialForceField(
            DeepPotential(config),
            precision="mix-fp32",
            compressed=True,
            compression_points=m.compression_points,
        )

    def _build(self, force_field, executor=None):
        spec = self.spec
        common = dict(
            timestep_fs=spec.timestep_fs,
            neighbor_skin=spec.neighbor_skin,
            neighbor_every=spec.neighbor_every,
        )
        if not self.ranked:
            return Simulation(self.atoms.copy(), self.box, force_field, **common)
        if executor is None:
            executor = "process"
        return DomainDecomposedSimulation(
            self.atoms.copy(),
            self.box,
            force_field,
            executor=executor,
            n_workers=self.n_workers,
            **spec.ranks,
            **common,
        )

    # -- run shape ------------------------------------------------------------------
    def setup(self):
        """First ``repro`` constructor call -> first completed force evaluation."""
        self.force_field = self._make_force_field()
        sim = self._build(self.force_field)
        sim.compute_forces()
        return sim

    def close(self, sim) -> None:
        if self.ranked:
            sim.close()

    def warm_up(self, sim) -> None:
        sim.run(self.spec.warmup_steps)
        if self.ranked:
            self._after_warmup = sim.gather()
        self._energy_start = sim.total_energy()

    def measure(self, sim, seconds: float, min_rounds: int) -> dict:
        steps = self.spec.round_steps
        rounds, builds, failed = [], [], 0
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            report = sim.run(steps)
            rounds.append((steps, time.perf_counter() - t0))
            builds.append(report.neighbor_builds)
            finite = np.isfinite(report.potential_energies) & np.isfinite(report.temperatures)
            failed += int(steps - finite.sum())
        self._energy_end = sim.total_energy()
        if self.ranked:
            # reap the workers now: a child's high-water RSS only shows in
            # RUSAGE_CHILDREN once it has been waited for (the engine stays
            # inspectable after close, and nothing steps it again)
            sim.close()
        # over a fixed prefix of rounds, so the same seed gives the same count
        self._builds = builds[:min_rounds]
        return {"rounds": rounds, "attempted": steps * len(rounds), "failed": failed}

    def derived(self, throughput: float) -> dict:
        """Ungated conveniences printed beside the throughput."""
        return {
            "ns_per_day": throughput * self.spec.timestep_fs * 1e-6 * 86400.0,
            "us_per_step_atom": 1e6 / throughput / len(self.atoms),
        }

    # -- correctness ------------------------------------------------------------------
    def check(self, sim) -> dict:
        drift = abs(self._energy_end - self._energy_start) / len(self.atoms)
        result = {"energy_drift_ev_per_atom": drift}
        if self.ranked:
            result.update(self._check_against_sequential())
        elif self.spec.potential == "dp":
            result.update(self._check_against_double(sim))
        drift_ok = math.isfinite(drift) and drift <= self.spec.drift_bound
        result["ok"] = bool(drift_ok and result.get("ok", True))
        return result

    def _check_against_double(self, sim) -> dict:
        """Production-path forces vs fp64 uncompressed on the same snapshot."""
        ff = self.force_field
        atoms, box = sim.atoms, sim.box
        data = build_neighbor_data(atoms.positions, box, ff.cutoff, self.spec.neighbor_skin)
        production = ff.compute(atoms, box, data, workspace=Workspace())
        reference = DeepPotentialForceField(ff.model, precision="double", compressed=False).compute(
            atoms, box, data
        )
        rmse = float(
            np.sqrt(np.mean((production.forces - reference.forces) ** 2))
            / np.sqrt(np.mean(reference.forces**2))
        )
        energy_error = abs(production.energy - reference.energy) / len(atoms)
        return {
            "force_rel_rmse": rmse,
            "energy_error_ev_per_atom": energy_error,
            "ok": bool(rmse <= 1e-4 and energy_error <= 1e-5),
        }

    def _check_against_sequential(self) -> dict:
        """Process executor bitwise equal to the sequential one after warm-up."""
        self.sequential = self._build(self.force_field, executor="sequential")
        self.sequential.compute_forces()
        self.sequential.run(self.spec.warmup_steps)
        golden, got = self.sequential.gather(), self._after_warmup
        equal = np.array_equal(golden.positions, got.positions) and np.array_equal(
            golden.forces, got.forces
        )
        return {"bitwise_equal_to_sequential": bool(equal), "ok": bool(equal)}

    # -- traced pass ------------------------------------------------------------------
    def trace(self, sim, tracer: Tracer, seconds: float, untraced_throughput: float) -> dict:
        """Per-layer metrics: a fresh, wrapped engine (not ``sim``: wrappers go
        in through constructors) driven hook by hook for a fixed number of
        steps — fixed, not ``seconds``, so exact counts repeat — then replays
        on its final snapshot."""
        if self.ranked:
            return self._trace_ranked(tracer, untraced_throughput)
        return self._trace_serial(tracer, untraced_throughput)

    def _drive(self, sim, tracer: Tracer, steps: int, prefix: str) -> float:
        """``steps`` velocity-Verlet steps through the public EngineBackend
        hooks, in SteppingLoop's order; returns the wall-clock seconds."""
        start = time.perf_counter()
        for _ in range(steps):
            with tracer.span(f"{prefix}.integrate"):
                sim.integrate_first_half()
            with tracer.span(f"{prefix}.compute_forces"):
                sim.compute_forces()
            with tracer.span(f"{prefix}.integrate"):
                sim.integrate_second_half()
            with tracer.span(f"{prefix}.sample"):
                sim.sample_temperature()
        return time.perf_counter() - start

    def _trace_serial(self, tracer: Tracer, untraced_throughput: float) -> dict:
        spec = self.spec
        steps = spec.traced_steps
        dp = spec.potential == "dp"
        ff_span = "deepmd.pair_style.compute" if dp else "md.forcefields.lj_compute"
        wrapped = SpanForceField(self.force_field, Tracer(self.name), ff_span)
        sim = self._build(wrapped)
        sim.compute_forces()
        self._drive(sim, wrapped.tracer, spec.warmup_steps, "md.simulation")
        wrapped.tracer = tracer
        misses = sim.workspace.misses
        build_seconds = sim.neighbor_list.build_seconds
        wall = self._drive(sim, tracer, steps, "md.simulation")
        build_ms = (sim.neighbor_list.build_seconds - build_seconds) * 1e3 / steps

        def per_step_ms(name: str) -> float:
            return tracer.total(name) * 1e3 / steps

        hooks_ms = sum(
            per_step_ms(f"md.simulation.{hook}") for hook in ("integrate", "compute_forces", "sample")
        )
        out = {
            "bench.trace_overhead_frac": 1.0 - (steps / wall) / untraced_throughput,
            "md.integrators.step_ms": per_step_ms("md.simulation.integrate"),
            "md.simulation.compute_forces_self_ms": tracer.self_total("md.simulation.compute_forces")
            * 1e3
            / steps
            - build_ms,
            "md.stepping.run_overhead_ms": 1e3 / untraced_throughput - hooks_ms,
            "md.workspace.misses_per_step": (sim.workspace.misses - misses) / steps,
            "md.workspace.pool_mb": _workspace_mib(sim.workspace),
            "md.neighbor.builds_per_100_steps": 100.0
            * sum(self._builds)
            / (len(self._builds) * spec.round_steps),
        }
        out["deepmd.pair_style.compute_ms" if dp else "md.forcefields.lj_compute_ms"] = per_step_ms(ff_span)

        # replays on the traced engine's final snapshot
        atoms, box = sim.atoms, sim.box
        cutoff = self.force_field.cutoff
        with tracer.span("md.neighbor.build"):
            data = build_neighbor_data(atoms.positions, box, cutoff, spec.neighbor_skin)
        out["md.neighbor.build_ms"] = median_ms(
            lambda: build_neighbor_data(atoms.positions, box, cutoff, spec.neighbor_skin), 3
        )
        out["md.neighbor.pairs"] = len(data.pairs)
        fresh_list = NeighborList(cutoff, spec.neighbor_skin, spec.neighbor_every)
        fresh_list.build(atoms, box)
        out["md.neighbor.check_ms"] = median_ms(lambda: fresh_list.needs_rebuild(atoms, box), 20)
        if dp:
            with tracer.span("deepmd.replays"):
                out.update(self._deepmd_layer(atoms, box, data))
        return out

    def _deepmd_layer(self, atoms, box, data) -> dict:
        out = deepmd_replays(self.force_field, atoms, box, data, np.random.default_rng(self._replay))
        start = time.perf_counter()
        self._make_force_field()  # fresh model: the pair style tabulates eagerly
        out["deepmd.compression.table_build_s"] = time.perf_counter() - start
        return out

    def _trace_ranked(self, tracer: Tracer, untraced_throughput: float) -> dict:
        spec = self.spec
        steps = spec.traced_steps
        executor = SpanExecutor(
            MultiprocessRankExecutor(n_workers=self.n_workers), Tracer(self.name), self.n_workers
        )
        sim = self._build(self.force_field, executor=executor)
        try:
            sim.compute_forces()
            self._drive(sim, executor.tracer, spec.warmup_steps, "parallel.engine")
            executor.tracer = tracer
            executor.busiest_worker_seconds = 0.0
            volume = sim.measured_comm_volume()
            wall = self._drive(sim, tracer, steps, "parallel.engine")
            moved = sim.measured_comm_volume()
            positions = sim.gather().positions
        finally:
            sim.close()

        def per_step_ms(name: str) -> float:
            return tracer.total(name) * 1e3 / steps

        finish_ms = per_step_ms("parallel.executor.finish")
        balance = sim.load_balance_stats()
        out = {
            "bench.trace_overhead_frac": 1.0 - (steps / wall) / untraced_throughput,
            "parallel.engine.compute_forces_ms": per_step_ms("parallel.engine.compute_forces"),
            "parallel.engine.integrate_ms": per_step_ms("parallel.engine.integrate"),
            "parallel.executor.publish_ms": per_step_ms("parallel.executor.publish"),
            "parallel.executor.rebuild_ms": per_step_ms("parallel.executor.rebuild"),
            "parallel.executor.prepare_ms": per_step_ms("parallel.executor.prepare"),
            "parallel.executor.finish_ms": finish_ms,
            "parallel.engine.parent_self_ms": tracer.self_total("parallel.engine.compute_forces")
            * 1e3
            / steps,
            "parallel.executor.dispatch_wait_ms": finish_ms
            - executor.busiest_worker_seconds * 1e3 / steps,
            "parallel.exchange.ghosts_per_rank": float(sim.ghost_counts().mean()),
            "parallel.exchange.forward_bytes_per_step": (
                moved["total_forward_bytes"] - volume["total_forward_bytes"]
            )
            / steps,
            "parallel.exchange.messages_per_step": (moved["messages"] - volume["messages"]) / steps,
            "parallel.exchange.deliver_ms": median_ms(
                lambda: sim.exchange.deliver(sim.scheme_label, 0, positions), 5
            ),
            "parallel.loadbalance.atom_sdmr_pct": balance.atom_stats().sdmr_percent,
            "parallel.loadbalance.pair_time_sdmr_pct": balance.pair_time_stats()["sdmr%"],
        }

        with PersistentWorkerPool(_noop_worker, [()] * self.n_workers) as pool:
            for _ in range(200):
                pool.broadcast(("noop",))
            out["parallel.threadpool.roundtrip_us"] = (
                median_ms(lambda: pool.broadcast(("noop",)), 2000) * 1e3
            )

        if self.n_workers >= 2:
            # base: the same engine on the sequential executor (built by the
            # correctness check), timed the same way as the untraced rounds
            rates = []
            for _ in range(2):
                t0 = time.perf_counter()
                self.sequential.run(spec.round_steps)
                rates.append(spec.round_steps / (time.perf_counter() - t0))
            out["parallel.executor.speedup_vs_sequential"] = untraced_throughput / float(np.median(rates))

        if spec.potential == "dp":
            with tracer.span("deepmd.replays"):
                out.update(self._deepmd_rank_replay(sim.domains[0], sim))
        return out

    def _deepmd_rank_replay(self, domain, sim) -> dict:
        """The deepmd replays on rank 0's owned+ghost system, with the rows the
        rank does not evaluate masked out exactly as its evaluator masks them."""
        atoms = domain.local_atoms(sim.type_names)
        base = build_neighbor_data(atoms.positions, sim.box, sim.cutoff, sim.neighbor_skin)
        keep = (
            np.arange(domain.n_local) < domain.n_owned
            if domain.balance_mask is None
            else domain.balance_mask[domain.local_gids]
        )
        neighbors, counts = base.neighbors.copy(), base.counts.copy()
        neighbors[~keep, :] = -1
        counts[~keep] = 0
        masked = NeighborData(
            neighbors=neighbors,
            counts=counts,
            pairs=np.empty((0, 2), dtype=np.int64),
            cutoff=base.cutoff,
            skin=base.skin,
        )
        out = self._deepmd_layer(atoms, sim.box, masked)
        ff, workspace = self.force_field, Workspace()
        ff.compute(atoms, sim.box, masked, workspace=workspace)
        out["deepmd.pair_style.compute_ms"] = median_ms(
            lambda: ff.compute(atoms, sim.box, masked, workspace=workspace), 5
        )
        return out
