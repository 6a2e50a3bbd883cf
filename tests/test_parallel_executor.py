"""Concurrent-executor parity and node-box load-balancing suite.

The contract this file pins is stricter than the cross-rank 1e-10 budget of
``test_parallel_engine_parity.py``: the multiprocess executor runs *the same
evaluator code on the same float64 slab bytes* as the sequential golden
reference and gathers replies in fixed rank order, so its trajectories must
be **bitwise identical** (``np.testing.assert_array_equal``, no tolerance) —
for water, the exact / compressed / MIX-fp32 Deep Potential paths, the
density (halo-exchange) strategy and a migration-heavy hot gas alike.

Node-box balancing (``node_balance=True``, §III-C) is pinned three ways:

* the engine's assigned counts equal
  :func:`repro.perfmodel.rank_counts_with_balance` *exactly*,
* the balanced trajectory stays within the 1e-10 cross-rank budget of the
  serial reference (the evaluation split must not change the physics),
* the *measured* atom-count SDMR from :meth:`load_balance_stats` drops to
  the balancer's predicted dispersion (Table III made executable).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.pair_style import DeepPotentialForceField
from repro.md import Atoms, Box, LennardJones, Simulation, copper_system, water_system
from repro.md.forcefields import GuptaPotential
from repro.md.forcefields.water import WaterReference
from repro.parallel import DomainDecomposedSimulation, MultiprocessRankExecutor, PersistentWorkerPool
from repro.parallel.executor import SequentialRankExecutor, make_executor
from repro.parallel.threadpool import WorkerError, usable_cpu_count, worker_reply
from repro.perfmodel import balance_comparison, rank_counts_with_balance, rank_counts_without_balance

TOLERANCE = 1.0e-10
N_STEPS = 12  # neighbor_every=5 => initial build + 2 rebuilds + migrations


# ---------------------------------------------------------------------------
# Benchmark systems (same recipes as the cross-rank parity suite)
# ---------------------------------------------------------------------------


def _water_setup():
    atoms, box, topology = water_system(64, rng=4, jitter=0.5)
    atoms.initialize_velocities(500.0, rng=5)
    force_field = lambda: WaterReference(topology, cutoff=4.0)  # noqa: E731
    params = dict(timestep_fs=0.5, neighbor_skin=0.5, neighbor_every=5)
    return atoms, box, force_field, params


def _copper_dp_setup(compressed=False, precision="double"):
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=48,
        seed=0,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(0)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(1, config.descriptor_dim)),
        0.5 + rng.random((1, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-1.0]))
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=6)
    atoms.initialize_velocities(300.0, rng=7)
    force_field = lambda: DeepPotentialForceField(  # noqa: E731
        model, compressed=compressed, precision=precision
    )
    params = dict(timestep_fs=0.5, neighbor_skin=0.4, neighbor_every=5)
    return atoms, box, force_field, params


def _copper_lj_setup():
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=0)
    atoms.initialize_velocities(300.0, rng=1)
    force_field = lambda: LennardJones(0.05, 2.3, 5.0)  # noqa: E731
    params = dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)
    return atoms, box, force_field, params


def _hot_gas_setup():
    """A hot uniform LJ gas that migrates atoms nearly every step."""
    rng = np.random.default_rng(11)
    box = Box.cubic(14.0)
    atoms = Atoms.from_symbols(rng.uniform(0.0, 14.0, size=(96, 3)), ["Cu"] * 96)
    atoms.initialize_velocities(2500.0, rng=12)
    force_field = lambda: LennardJones(0.01, 2.3, 4.0)  # noqa: E731
    params = dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=1)
    return atoms, box, force_field, params


def _engine(setup, rank_dims, scheme="p2p", **kwargs):
    atoms, box, force_field, params = setup
    return DomainDecomposedSimulation(
        atoms.copy(), box, force_field(), rank_dims=rank_dims, scheme=scheme,
        **params, **kwargs,
    )


def _assert_bitwise_lockstep(setup, rank_dims, scheme="p2p", n_steps=N_STEPS, **kwargs):
    """Run sequential vs process executors side by side; everything must be
    bit-identical at every step (not merely within a tolerance)."""
    sequential = _engine(setup, rank_dims, scheme, executor="sequential", **kwargs)
    concurrent = _engine(
        setup, rank_dims, scheme, executor="process",
        n_workers=min(4, sequential.n_ranks), **kwargs,
    )
    assert concurrent.executor_name == "process"
    try:
        for step in range(n_steps):
            sequential.run(1)
            concurrent.run(1)
            reference, gathered = sequential.gather(), concurrent.gather()
            for field in ("positions", "velocities", "forces"):
                np.testing.assert_array_equal(
                    getattr(gathered, field), getattr(reference, field),
                    err_msg=f"{field} not bitwise at step {step} ({rank_dims}, {scheme})",
                )
            assert concurrent._last_energy == sequential._last_energy
            assert concurrent.n_builds == sequential.n_builds
        # identical communication: the parent performs the same ghost refresh
        # and halo forwarding for both executors
        assert concurrent.comm_messages == sequential.comm_messages
        assert concurrent.comm_bytes_forward == sequential.comm_bytes_forward
        assert concurrent.comm_bytes_reverse == sequential.comm_bytes_reverse
        return sequential, concurrent
    finally:
        concurrent.close()


# ---------------------------------------------------------------------------
# Bitwise sequential-vs-process parity across force fields and grids
# ---------------------------------------------------------------------------


class TestExecutorBitwiseParity:
    @pytest.mark.parametrize(
        "rank_dims, scheme", [((2, 2, 1), "p2p"), ((2, 2, 2), "node-based")]
    )
    def test_water(self, rank_dims, scheme):
        _assert_bitwise_lockstep(_water_setup(), rank_dims, scheme)

    def test_single_rank_grid(self):
        """One rank, one worker: the degenerate pool still matches."""
        _assert_bitwise_lockstep(_copper_lj_setup(), (1, 1, 1))

    def test_copper_deep_potential(self):
        _assert_bitwise_lockstep(_copper_dp_setup(), (2, 2, 2), n_steps=8)

    def test_compressed_deep_potential(self):
        _assert_bitwise_lockstep(
            _copper_dp_setup(compressed=True), (2, 1, 1), n_steps=8
        )

    def test_mixed_precision_deep_potential(self):
        """MIX-fp32: same ranks => same batch shapes => still bitwise.

        The cross-rank mixed contract is loose (fp32 GEMMs are not
        bit-invariant to batch *shapes*), but the executor swap keeps every
        per-rank shape identical, so executor parity stays exact."""
        sequential, _ = _assert_bitwise_lockstep(
            _copper_dp_setup(compressed=True, precision="mix-fp32"),
            (2, 1, 1),
            n_steps=8,
        )
        assert sequential.force_field.describe()["precision"] == "mix-fp32"

    def test_gupta_density_halo_path(self):
        """The density strategy ships its halo through the shared slab."""
        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=3)
        atoms.initialize_velocities(400.0, rng=4)
        setup = (
            atoms,
            box,
            lambda: GuptaPotential(cutoff=5.0),
            dict(timestep_fs=1.0, neighbor_skin=0.4, neighbor_every=5),
        )
        _assert_bitwise_lockstep(setup, (2, 2, 1), n_steps=10)

    def test_migration_heavy_hot_gas(self):
        """neighbor_every=1: every step migrates, rebuilds and re-ships the
        structural payloads to the workers."""
        sequential, concurrent = _assert_bitwise_lockstep(
            _hot_gas_setup(), (2, 2, 2), n_steps=10
        )
        assert sequential.n_migrated >= 1
        assert concurrent.n_migrated == sequential.n_migrated


# ---------------------------------------------------------------------------
# Node-box intra-node load balancing (§III-C)
# ---------------------------------------------------------------------------


class TestNodeBoxBalancing:
    def test_assigned_counts_match_balancer_prediction(self):
        engine = _engine(
            _copper_lj_setup(), (2, 2, 1), scheme="node-based", node_balance=True
        )
        engine.run(N_STEPS)
        predicted = rank_counts_with_balance(engine.decomposition, engine.gather().positions)
        np.testing.assert_array_equal(engine.assigned_counts(), predicted)
        assert engine.assigned_counts().sum() == engine.n_global

    @pytest.mark.parametrize(
        "setup_name", ["lj-pair", "dp-peratom"], ids=["lj-pair", "dp-peratom"]
    )
    def test_balanced_trajectory_matches_serial(self, setup_name):
        """Splitting the node-box evaluation must not change the physics."""
        if setup_name == "lj-pair":
            atoms, box, force_field, params = _copper_lj_setup()
            n_steps = N_STEPS
        else:
            atoms, box, force_field, params = _copper_dp_setup()
            n_steps = 8
        serial = Simulation(atoms.copy(), box, force_field(), **params)
        engine = _engine(
            (atoms, box, force_field, params), (2, 2, 1),
            scheme="node-based", node_balance=True,
        )
        for step in range(n_steps):
            serial.run(1)
            engine.run(1)
            gathered = engine.gather()
            np.testing.assert_allclose(
                gathered.positions, serial.atoms.positions, rtol=0.0, atol=TOLERANCE,
                err_msg=f"balanced positions diverged at step {step} ({setup_name})",
            )
            np.testing.assert_allclose(
                gathered.forces, serial.atoms.forces, rtol=0.0, atol=TOLERANCE,
            )
            assert engine._last_energy == pytest.approx(serial._last_energy, abs=TOLERANCE)

    def test_balanced_executors_stay_bitwise(self):
        """node_balance composes with the process executor bit-identically."""
        _assert_bitwise_lockstep(
            _copper_lj_setup(), (2, 2, 1), scheme="node-based", node_balance=True
        )

    def test_measured_sdmr_matches_prediction(self):
        """The measured Table III: balanced assigned counts reproduce the
        balancer's predicted dispersion, and never exceed the owner-computes
        dispersion they replace."""
        setup = _copper_lj_setup()
        plain = _engine(setup, (2, 2, 1), scheme="node-based")
        balanced = _engine(setup, (2, 2, 1), scheme="node-based", node_balance=True)
        plain.run(N_STEPS)
        balanced.run(N_STEPS)

        measured_plain = plain.load_balance_stats()
        measured_balanced = balanced.load_balance_stats()
        assert measured_balanced.label.endswith("+lb]")
        # per-rank pair times are measured wall-clock, not modelled
        assert (measured_plain.pair_times > 0.0).all()
        assert (measured_balanced.pair_times > 0.0).all()

        positions = balanced.gather().positions
        predicted_plain = rank_counts_without_balance(balanced.decomposition, positions)
        predicted_balanced = rank_counts_with_balance(balanced.decomposition, positions)
        np.testing.assert_array_equal(measured_balanced.atom_counts, predicted_balanced)

        measured_sdmr = measured_balanced.atom_stats().sdmr_percent
        predicted_sdmr = (
            balance_comparison(balanced.decomposition, positions, per_atom_time=1e-4, jitter_fraction=0.0)["yes"]
            .atom_stats()
            .sdmr_percent
        )
        assert measured_sdmr == pytest.approx(predicted_sdmr)
        # the balanced split is never more dispersed than owner-computes
        plain_sdmr = measured_plain.atom_stats().sdmr_percent
        assert measured_sdmr <= plain_sdmr + 1e-12
        # sanity: the prediction we matched is the even node-box split
        assert predicted_balanced.max() - predicted_balanced.min() <= 1
        assert predicted_plain.sum() == predicted_balanced.sum() == len(positions)

    def test_p2p_delivery_rejected(self):
        with pytest.raises(ValueError, match="node-based delivery"):
            _engine(_copper_lj_setup(), (2, 2, 1), scheme="p2p", node_balance=True)

    def test_density_strategy_rejected(self):
        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=3)
        setup = (
            atoms, box, lambda: GuptaPotential(cutoff=5.0),
            dict(timestep_fs=1.0, neighbor_skin=0.4, neighbor_every=5),
        )
        with pytest.raises(ValueError, match="'pair' and 'peratom'"):
            _engine(setup, (2, 2, 1), scheme="node-based", node_balance=True)


# ---------------------------------------------------------------------------
# Executor/pool plumbing
# ---------------------------------------------------------------------------


def _echo_worker(conn, tag):
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if not worker_reply(conn, lambda msg: _echo_handler(tag, msg), message):
            break
    conn.close()


def _echo_handler(tag, message):
    if message[0] == "boom":
        raise ValueError(f"worker {tag} exploded")
    return (tag, message)


_POST_CLOSE_SCRIPT = """
import os
import numpy as np
from repro.md import LennardJones, copper_system
from repro.parallel import DomainDecomposedSimulation

atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=0)
atoms.initialize_velocities(300.0, rng=1)
engine = DomainDecomposedSimulation(
    atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0, rank_dims=(2, 2, 1),
    neighbor_skin=0.4, neighbor_every=5, executor="process",
)
engine.run(10)
before = engine.gather()
ghost_sums = [float(domain.ghost_forces.sum()) for domain in engine.domains]
shared = engine._executor.shared
slab = shared.positions
segments = ["/dev/shm/" + block.name.lstrip("/") for block in shared._blocks]
assert all(os.path.exists(path) for path in segments)
engine.close()
after = engine.gather()
for field in ("positions", "velocities", "forces"):
    np.testing.assert_array_equal(getattr(after, field), getattr(before, field))
for domain, ghost_sum in zip(engine.domains, ghost_sums):
    assert not np.shares_memory(domain.positions, slab)
    assert float(domain.ghost_forces.sum()) == ghost_sum
    local = domain.local_atoms(engine.type_names)
    assert len(local) == domain.n_local and np.isfinite(local.positions).all()
assert not any(os.path.exists(path) for path in segments)
print("inspectable")
"""


class TestNonFiniteRankRow:
    """A rank row that goes NaN makes the lists stale, like a serial
    :class:`NeighborList`: the next step fails loudly, naming the row,
    instead of stepping on with NaN energies on the old lists."""

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_next_step_names_the_row(self, executor, rank):
        with _engine(_copper_lj_setup(), (2, 1, 1), executor=executor) as engine:
            engine.run(2)
            engine.domains[rank].positions[0] = np.nan
            gid = int(engine.domains[rank].gids[0])
            with pytest.raises(ValueError, match=rf"rank {rank} position row 0 \(atom {gid}\) is not finite"):
                engine.run(1)


class TestExecutorPlumbing:
    def test_make_executor_names(self):
        assert isinstance(make_executor("sequential"), SequentialRankExecutor)
        assert isinstance(make_executor("process"), MultiprocessRankExecutor)
        instance = SequentialRankExecutor()
        assert make_executor(instance) is instance
        with pytest.raises(KeyError, match="sequential"):
            make_executor("gpu")

    def test_engine_close_is_idempotent(self):
        engine = _engine(_copper_lj_setup(), (2, 1, 1), executor="process")
        engine.run(2)
        engine.close()
        engine.close()

    def test_domain_arrays_live_in_the_slabs_while_open(self):
        """Stepping a rank is publishing it: the parent's views are slab rows."""
        engine = _engine(_copper_lj_setup(), (2, 1, 1), executor="process")
        try:
            engine.run(2)
            shared = engine._executor.shared
            for domain in engine.domains:
                assert np.shares_memory(domain.positions, shared.positions[domain.rank])
                assert np.shares_memory(domain.ghost_positions, shared.positions[domain.rank])
                assert np.shares_memory(domain.forces, shared.forces[domain.rank])
                assert not np.shares_memory(domain.velocities, shared.positions)
        finally:
            engine.close()

    def test_closed_process_engine_stays_inspectable(self):
        """``close()`` unmaps the slabs, so every domain must be back in
        private memory first — reading a stale slab view segfaults, hence the
        subprocess: a crash fails this test, not the session."""
        result = subprocess.run(
            [sys.executable, "-c", _POST_CLOSE_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().endswith("inspectable")

    def test_engine_context_manager(self):
        with _engine(_copper_lj_setup(), (2, 1, 1), executor="process") as engine:
            engine.run(2)
            reference = _engine(_copper_lj_setup(), (2, 1, 1))
            reference.run(2)
            np.testing.assert_array_equal(
                engine.gather().positions, reference.gather().positions
            )

    def test_pool_fixed_order_gather(self):
        with PersistentWorkerPool(_echo_worker, [(i,) for i in range(3)]) as pool:
            replies = pool.broadcast(("ping",))
            assert [tag for tag, _ in replies] == [0, 1, 2]
            replies = pool.broadcast([("a",), ("b",), ("c",)])
            assert [msg[0] for _, msg in replies] == ["a", "b", "c"]
            with pytest.raises(ValueError, match="expected 3 messages"):
                pool.broadcast([("only",), ("two",)])

    def test_pool_propagates_worker_tracebacks(self):
        with PersistentWorkerPool(_echo_worker, [(0,)]) as pool:
            with pytest.raises(WorkerError, match="worker 0 exploded"):
                pool.broadcast(("boom",))
            # the worker survives its own exception and keeps serving
            assert pool.broadcast(("still-alive",)) == [(0, ("still-alive",))]

    def test_pool_names_a_worker_that_died_between_requests(self):
        """Same ``WorkerError`` whether a worker dies mid-request or between
        two: the send to a dead worker used to leak a raw ``BrokenPipeError``."""
        with PersistentWorkerPool(_echo_worker, [(i,) for i in range(2)]) as pool:
            assert pool.broadcast(("ping",)) == [(0, ("ping",)), (1, ("ping",))]
            pool._procs[1].terminate()
            pool._procs[1].join(5.0)
            assert not pool._procs[1].is_alive()
            with pytest.raises(WorkerError, match="worker 1 died"):
                pool.broadcast(("ping",))

    def test_usable_cpu_count_applies_the_cgroup_quota(self, tmp_path, monkeypatch):
        from repro.parallel import threadpool

        mask = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        missing = str(tmp_path / "missing")
        for name in ("CGROUP_V2_CPU_MAX", "CGROUP_V1_CFS_QUOTA", "CGROUP_V1_CFS_PERIOD"):
            monkeypatch.setattr(threadpool, name, missing)
        assert usable_cpu_count() == mask  # no quota file: the affinity mask

        def fake(name, text):
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        monkeypatch.setattr(threadpool, "CGROUP_V2_CPU_MAX", fake("cpu.max", "max 100000\n"))
        assert usable_cpu_count() == mask
        monkeypatch.setattr(threadpool, "CGROUP_V2_CPU_MAX", fake("cpu.max", "50000 100000\n"))
        assert usable_cpu_count() == 1  # half a CPU still runs one worker
        monkeypatch.setattr(threadpool, "CGROUP_V2_CPU_MAX", fake("cpu.max", f"{100000 * (mask + 3)} 100000\n"))
        assert usable_cpu_count() == mask  # a quota above the mask does not raise it

        monkeypatch.setattr(threadpool, "CGROUP_V2_CPU_MAX", missing)
        monkeypatch.setattr(threadpool, "CGROUP_V1_CFS_PERIOD", fake("cfs_period_us", "100000\n"))
        monkeypatch.setattr(threadpool, "CGROUP_V1_CFS_QUOTA", fake("cfs_quota_us", "-1\n"))
        assert usable_cpu_count() == mask
        monkeypatch.setattr(threadpool, "CGROUP_V1_CFS_QUOTA", fake("cfs_quota_us", "100000\n"))
        assert usable_cpu_count() == 1

    def test_worker_count_never_exceeds_cores_by_default(self):
        engine = _engine(_copper_lj_setup(), (2, 2, 2), executor="process")
        try:
            expected = min(engine.n_ranks, usable_cpu_count())
            assert engine._executor.pool.n_workers == expected
        finally:
            engine.close()
