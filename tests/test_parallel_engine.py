"""Unit-level coverage for the domain-decomposed engine.

Report interchangeability with the serial loop (satellite of the parity
suite), measured load-balance / ghost statistics, the measured-comm-volume
bridge into the perf model, topology factories and validation errors.
The step-for-step trajectory contract lives in
``tests/test_parallel_engine_parity.py``.
"""

import numpy as np
import pytest

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.pair_style import DeepPotentialForceField
from repro.md import Atoms, Box, LennardJones, Simulation, copper_system, water_system
from repro.md.forcefields import GuptaPotential
from repro.md.thermostats import BerendsenThermostat
from repro.md.forcefields.water import WaterReference
from repro.md.neighbor import build_neighbor_data
from repro.parallel import DomainDecomposedSimulation, RankTopology
from repro.parallel.domain import RankDomain
from repro.perfmodel import exchange_time, intra_node_balance, modelled_plan, plan_with_measured_volume


def _copper_pair(rng=1, temperature=300.0):
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=rng)
    atoms.initialize_velocities(temperature, rng=rng + 1)
    return atoms, box


def _tiny_dp_force_field():
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=48,
        seed=3,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(3)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(1, config.descriptor_dim)),
        0.5 + rng.random((1, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-1.0]))
    return DeepPotentialForceField(model)


class TestReportParity:
    """Downstream analysis code can consume either loop's outputs."""

    def test_report_fields_match_serial_classical(self):
        atoms, box = _copper_pair()
        serial = Simulation(atoms.copy(), box, GuptaPotential(cutoff=5.0), timestep_fs=2.0,
                            neighbor_skin=0.4, neighbor_every=5)
        engine = DomainDecomposedSimulation(atoms.copy(), box, GuptaPotential(cutoff=5.0), timestep_fs=2.0,
                                            rank_dims=(2, 2, 1), neighbor_skin=0.4, neighbor_every=5)
        serial_report = serial.run(8, trajectory_every=4)
        engine_report = engine.run(8, trajectory_every=4)

        assert engine_report.n_steps == serial_report.n_steps
        assert engine_report.neighbor_builds == serial_report.neighbor_builds
        assert engine_report.force_field_info == serial_report.force_field_info
        np.testing.assert_allclose(
            engine_report.potential_energies, serial_report.potential_energies, rtol=0.0, atol=1e-10
        )
        np.testing.assert_allclose(
            engine_report.temperatures, serial_report.temperatures, rtol=0.0, atol=1e-10
        )
        # classical pair styles report no virial in either loop
        assert serial.last_virial is None and engine.last_virial is None
        assert engine_report.steps_per_second > 0.0
        # both loops account wall-clock spent inside neighbour-list builds
        assert serial_report.neighbor_build_seconds > 0.0
        assert engine_report.neighbor_build_seconds > 0.0
        per_rank = engine.neighbor_build_times()
        assert per_rank.shape == (engine.n_ranks,)
        assert np.all(per_rank > 0.0)
        assert engine_report.neighbor_build_seconds == pytest.approx(per_rank.sum())
        # trajectory snapshots line up frame by frame
        assert len(engine.trajectory) == len(serial.trajectory) == 2
        np.testing.assert_allclose(engine.trajectory[-1], serial.trajectory[-1], atol=1e-10)

    def test_one_rank_gupta_is_bitwise_serial(self):
        """The density evaluator runs ``GuptaPotential``'s own stage functions,
        so with nothing to exchange or filter one rank *is* the serial path."""
        atoms, box = _copper_pair(rng=3)
        common = dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)
        serial = Simulation(atoms.copy(), box, GuptaPotential(cutoff=5.0), **common)
        single = DomainDecomposedSimulation(
            atoms.copy(), box, GuptaPotential(cutoff=5.0), rank_dims=(1, 1, 1), **common
        )
        serial_report, single_report = serial.run(24), single.run(24)
        assert single_report.neighbor_builds == serial_report.neighbor_builds > 1
        gathered = single.gather()
        np.testing.assert_array_equal(gathered.positions, serial.atoms.positions)
        np.testing.assert_array_equal(gathered.velocities, serial.atoms.velocities)
        np.testing.assert_array_equal(gathered.forces, serial.atoms.forces)
        np.testing.assert_array_equal(single_report.potential_energies, serial_report.potential_energies)

    def test_report_fields_match_serial_deep_potential(self):
        atoms, box = _copper_pair(rng=5)
        serial = Simulation(atoms.copy(), box, _tiny_dp_force_field(), timestep_fs=0.5,
                            neighbor_skin=0.4, neighbor_every=4)
        engine = DomainDecomposedSimulation(atoms.copy(), box, _tiny_dp_force_field(), timestep_fs=0.5,
                                            rank_dims=(2, 1, 1), neighbor_skin=0.4, neighbor_every=4)
        serial_report = serial.run(6)
        engine_report = engine.run(6)
        assert engine_report.force_field_info == serial_report.force_field_info
        assert engine_report.force_field_info["precision"] == "double"
        assert engine_report.neighbor_builds == serial_report.neighbor_builds
        np.testing.assert_allclose(engine.last_virial, serial.last_virial, rtol=0.0, atol=1e-9)
        # the engine additionally accounts a comm phase next to the serial set
        assert {"pair", "neigh", "integrate"} <= set(serial_report.timers.totals)
        assert {"pair", "neigh", "integrate", "comm"} <= set(engine_report.timers.totals)

    def test_total_energy_matches_serial(self):
        atoms, box = _copper_pair(rng=7)
        serial = Simulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0, neighbor_skin=0.4)
        engine = DomainDecomposedSimulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0,
                                            rank_dims=(2, 2, 2), neighbor_skin=0.4)
        assert engine.total_energy() == pytest.approx(serial.total_energy(), abs=1e-10)

    def test_thermostatted_run_matches_serial(self):
        """Thermostats act on the gathered system, so parity survives them."""
        atoms, box = _copper_pair(rng=9, temperature=600.0)
        serial = Simulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0,
                            neighbor_skin=0.4, thermostat=BerendsenThermostat(300.0, coupling_fs=100.0))
        engine = DomainDecomposedSimulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0,
                                            rank_dims=(2, 2, 1), neighbor_skin=0.4,
                                            thermostat=BerendsenThermostat(300.0, coupling_fs=100.0))
        serial.run(8)
        engine.run(8)
        np.testing.assert_allclose(engine.gather().velocities, serial.atoms.velocities, atol=1e-10)


class TestMeasuredStatistics:
    def _run_engine(self, rank_dims=(2, 2, 1), scheme="p2p", steps=6):
        atoms, box = _copper_pair(rng=11, temperature=400.0)
        engine = DomainDecomposedSimulation(atoms.copy(), box, GuptaPotential(cutoff=5.0), timestep_fs=2.0,
                                            rank_dims=rank_dims, scheme=scheme,
                                            neighbor_skin=0.4, neighbor_every=3)
        engine.run(steps)
        return atoms, engine

    def test_decomposition_and_ghost_stats_are_measured(self):
        atoms, engine = self._run_engine()
        owned = engine.owned_counts()
        assert owned.sum() == len(atoms)
        assert len(owned) == engine.n_ranks
        assert owned.min() > 0
        ghosts = engine.ghost_stats()
        assert ghosts.total > 0  # multi-rank grids always carry ghosts
        assert len(ghosts.counts) == engine.n_ranks

    def test_load_balance_stats_use_measured_pair_times(self):
        atoms, engine = self._run_engine()
        stats = engine.load_balance_stats()
        assert stats.atom_counts.sum() == len(atoms)
        assert np.all(stats.pair_times > 0.0)  # wall-clock, per rank
        summary = stats.summary()
        assert {"natom", "pair"} <= set(summary)
        comparison = intra_node_balance(engine, rng=0)
        assert {"no", "yes"} <= set(comparison)
        assert comparison["yes"].atom_counts.sum() == len(atoms)

    def test_comm_volume_measured_and_priced(self):
        # 2x2x2 spans two nodes, so the node-based plan has inter-node traffic
        _, engine = self._run_engine(rank_dims=(2, 2, 2), scheme="node-based")
        volume = engine.measured_comm_volume()
        assert volume["exchanges"] == engine.n_builds
        assert volume["mean_ghosts_per_rank"] > 0.0
        assert volume["forward_bytes_per_rank"] > 0.0
        assert volume["total_reverse_bytes"] > 0.0
        assert volume["messages"] > 0

        plan = modelled_plan(engine)
        assert plan.scheme == "lb-4l"
        scaled = plan_with_measured_volume(plan, volume["forward_bytes_per_rank"])
        assert scaled.total_message_bytes == pytest.approx(volume["forward_bytes_per_rank"])
        assert scaled.n_messages == plan.n_messages
        assert [r.threads for r in scaled.rounds] == [r.threads for r in plan.rounds]
        measured_time = exchange_time(scaled)
        assert measured_time > 0.0
        # pricing scales monotonically with the measured volume
        tenfold = plan_with_measured_volume(plan, 10 * volume["forward_bytes_per_rank"])
        assert exchange_time(tenfold) > measured_time

    def test_plan_rescaling_validation(self):
        _, engine = self._run_engine()
        plan = modelled_plan(engine, "p2p-utofu")
        with pytest.raises(ValueError):
            plan_with_measured_volume(plan, -1.0)


class TestConstructionAndValidation:
    def test_rank_grid_topologies(self):
        topo = RankTopology.for_rank_grid((2, 2, 2))
        assert topo.rank_dims == (2, 2, 2)
        assert topo.node_dims == (1, 1, 2)
        assert topo.ranks_per_node == 4
        assert RankTopology.for_rank_grid((1, 1, 1)).n_ranks == 1
        assert RankTopology.for_rank_grid((6, 1, 1)).rank_dims == (6, 1, 1)
        assert RankTopology.for_rank_grid((3, 1, 1)).rank_block == (1, 1, 1)
        with pytest.raises(ValueError):
            RankTopology.for_rank_grid((0, 1, 1))
        with pytest.raises(ValueError):
            RankTopology.for_rank_grid((4, 1, 1), rank_block=(3, 1, 1))

    def test_unknown_scheme_rejected(self):
        atoms, box = _copper_pair()
        with pytest.raises(KeyError):
            DomainDecomposedSimulation(atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0,
                                       rank_dims=(2, 1, 1), scheme="telepathy", neighbor_skin=0.4)

    def test_priced_scheme_labels_refused(self):
        # the engine executes the two delivery patterns; Fig. 7 labels are priced only
        atoms, box = _copper_pair()
        for label in ("lb-4l", "p2p-utofu", "p2p-mpi", "node"):
            with pytest.raises(KeyError):
                DomainDecomposedSimulation(atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0,
                                           rank_dims=(2, 1, 1), scheme=label, neighbor_skin=0.4)
        engine = DomainDecomposedSimulation(atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0,
                                            rank_dims=(2, 1, 1), scheme="node-based", neighbor_skin=0.4)
        assert engine.scheme == engine.scheme_label == "node-based"

    def test_requires_positive_cutoff_and_steps(self):
        atoms, box = _copper_pair()

        class NoCutoff:
            cutoff = 0.0

        with pytest.raises(ValueError):
            DomainDecomposedSimulation(atoms, box, NoCutoff(), timestep_fs=1.0)
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0, neighbor_skin=0.4
        )
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_unknown_parallel_strategy_rejected(self):
        atoms, box = _copper_pair()
        force_field = LennardJones(0.05, 2.3, 5.0)
        force_field.parallel_strategy = "astral-projection"
        with pytest.raises(KeyError):
            DomainDecomposedSimulation(atoms, box, force_field, timestep_fs=1.0, neighbor_skin=0.4)


class TestRankDomainOwnsTheLayout:
    """``positions``/``ghost_positions`` and ``forces``/``ghost_forces`` are the
    owned head and ghost tail of one contiguous local array each."""

    @staticmethod
    def _assert_one_home(domain):
        local = domain.local_positions()
        assert local.shape == (domain.n_local, 3) and local.flags["C_CONTIGUOUS"]
        assert domain.positions.shape == (domain.n_owned, 3)
        assert domain.ghost_positions.shape == (domain.n_ghost, 3)
        for view in (domain.positions, domain.ghost_positions):
            assert view.size == 0 or np.shares_memory(local, view)
        for view in (domain.forces, domain.ghost_forces):
            assert view.size == 0 or np.shares_memory(domain.local_forces(), view)
        atoms = domain.local_atoms(("Cu",))
        assert np.shares_memory(atoms.positions, local) or domain.n_local == 0
        np.testing.assert_array_equal(atoms.ids[: domain.n_owned], domain.gids)

    def test_views_survive_rebuilds_and_migration(self):
        rng = np.random.default_rng(11)
        box = Box.cubic(14.0)
        atoms = Atoms.from_symbols(rng.uniform(0.0, 14.0, size=(96, 3)), ["Cu"] * 96)
        atoms.initialize_velocities(2500.0, rng=12)
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.01, 2.3, 4.0), timestep_fs=2.0,
            rank_dims=(2, 2, 2), neighbor_skin=0.4, neighbor_every=1,
        )
        engine.run(1)
        for domain in engine.domains:
            self._assert_one_home(domain)
        owned_before = engine.owned_counts()
        while np.array_equal(engine.owned_counts(), owned_before):
            engine.run(1)
            assert engine.n_builds < 50, "the hot gas never migrated"
        assert engine.n_migrated >= 1
        for domain in engine.domains:
            self._assert_one_home(domain)

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_empty_rank_and_ghostless_rank_still_bind(self, executor):
        box = Box.cubic(14.0)
        grid = np.stack(np.meshgrid(np.arange(3), np.arange(4), np.arange(4), indexing="ij"), axis=-1)
        atoms = Atoms.from_symbols(grid.reshape(-1, 3) * 2.6 + np.array([0.8, 2.0, 2.0]), ["Cu"] * 48)
        # every atom sits in the x < 7 half: rank 1 of a 2x1x1 grid owns nothing
        with DomainDecomposedSimulation(
            atoms.copy(), box, LennardJones(0.01, 2.3, 4.0), timestep_fs=1.0,
            rank_dims=(2, 1, 1), neighbor_skin=0.4, neighbor_every=2, executor=executor,
        ) as split:
            split.run(4)
            assert split.owned_counts().tolist() == [48, 0]
            for domain in split.domains:
                self._assert_one_home(domain)
            forces = split.gather().forces
        # a single rank receives no ghosts at all
        with DomainDecomposedSimulation(
            atoms.copy(), box, LennardJones(0.01, 2.3, 4.0), timestep_fs=1.0,
            rank_dims=(1, 1, 1), neighbor_skin=0.4, neighbor_every=2, executor=executor,
        ) as single:
            single.run(4)
            assert single.ghost_counts().tolist() == [0]
            self._assert_one_home(single.domains[0])
            np.testing.assert_allclose(single.gather().forces, forces, rtol=0.0, atol=1e-10)

    def test_integrator_steps_a_domain_in_place(self):
        atoms, box = _copper_pair()
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0,
            rank_dims=(2, 1, 1), neighbor_skin=0.4, neighbor_every=5,
        )
        engine.compute_forces()
        domain = engine.domains[0]
        home = domain.positions.__array_interface__["data"][0]
        before = domain.positions.copy()
        engine.integrator.first_half(domain, box, workspace=domain.workspace)
        assert domain.positions.__array_interface__["data"][0] == home
        assert np.shares_memory(domain.positions, domain.local_positions())
        assert not np.array_equal(domain.positions, before)
        np.testing.assert_array_equal(domain.positions, box.wrap(domain.positions))


def _water_reference_setup():
    atoms, box, topology = water_system(27, rng=5, jitter=0.15)
    atoms.initialize_velocities(300.0, rng=6)
    return atoms, box, WaterReference(topology, cutoff=3.0), dict(timestep_fs=0.5, scheme="p2p")


def _copper_setup(force_field, **kwargs):
    atoms, box = _copper_pair()
    return atoms, box, force_field, dict(timestep_fs=2.0, **kwargs)


class TestGhostsAreNeighboursNeverCentres:
    """A rank's build searches only the pairs that touch its primary rows
    (owned atoms, or its node-box share) and gives only those rows a padded
    table row — and only a force field that reads the table ever has one."""

    @pytest.mark.parametrize(
        "setup",
        [
            lambda: _copper_setup(LennardJones(0.05, 2.3, 5.0), scheme="p2p"),
            lambda: _copper_setup(LennardJones(0.05, 2.3, 5.0), scheme="node-based", node_balance=True),
            lambda: _copper_setup(GuptaPotential(cutoff=5.0), scheme="node-based"),
            _water_reference_setup,
        ],
        ids=["lj-p2p", "lj-node-balance", "gupta-node", "water-p2p"],
    )
    def test_pair_molecular_and_density_runs_never_build_a_table(self, setup, monkeypatch):
        atoms, box, force_field, kwargs = setup()
        built = []
        build_neighbors = RankDomain.build_neighbors

        def recording(domain, *args):
            seconds = build_neighbors(domain, *args)
            built.append(domain.neighbors)
            return seconds

        monkeypatch.setattr(RankDomain, "build_neighbors", recording)
        engine = DomainDecomposedSimulation(
            atoms, box, force_field, rank_dims=(2, 2, 1), neighbor_skin=0.4, neighbor_every=3, **kwargs
        )
        engine.run(7)
        assert len(built) == engine.n_builds * engine.n_ranks >= 3 * engine.n_ranks
        assert not any(data.has_table for data in built)
        for domain in engine.domains:
            handed_over = domain.scratch.get("computed")
            assert handed_over is None or not handed_over.has_table

    @pytest.mark.parametrize("node_balance", [False, True])
    def test_a_rank_holds_exactly_the_full_pairs_touching_its_primary_rows(self, node_balance):
        atoms, box = _copper_pair()
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0, rank_dims=(2, 2, 1),
            scheme="node-based", node_balance=node_balance, neighbor_skin=0.4, neighbor_every=5,
        )
        engine.compute_forces()
        ghost_centres = 0
        for domain in engine.domains:
            primary = domain.primary_rows()
            owned_rows = np.arange(domain.n_local) < domain.n_owned
            if node_balance:
                ghost_centres += int((primary & ~owned_rows).sum())
            else:
                np.testing.assert_array_equal(primary, owned_rows)
            full = build_neighbor_data(domain.local_positions(), box, engine.cutoff, engine.neighbor_skin)
            expected = {(int(i), int(j)) for i, j in full.pairs if primary[i] or primary[j]}
            assert 0 < len(expected) < len(full.pairs)
            assert {(int(i), int(j)) for i, j in domain.neighbors.pairs} == expected
        # the node-box share is the one case where a ghost row is a centre
        assert (ghost_centres > 0) == node_balance

    def test_deep_potential_table_has_rows_for_primary_centres_only(self):
        atoms, box = _copper_pair()
        engine = DomainDecomposedSimulation(
            atoms, box, _tiny_dp_force_field(), timestep_fs=1.0, rank_dims=(2, 2, 1),
            scheme="node-based", node_balance=True, neighbor_skin=0.4, neighbor_every=5,
        )
        engine.run(2)
        for domain in engine.domains:
            data, primary = domain.neighbors, domain.primary_rows()
            assert data.has_table  # the environment matrix read it
            assert np.all(data.counts[~primary] == 0) and np.all(data.neighbors[~primary] == -1)
            full = build_neighbor_data(domain.local_positions(), box, engine.cutoff, engine.neighbor_skin)
            np.testing.assert_array_equal(data.counts[primary], full.counts[primary])

    def test_ownerless_rank_finds_nothing_and_a_single_rank_is_the_serial_build(self):
        box = Box.cubic(14.0)
        grid = np.stack(np.meshgrid(np.arange(3), np.arange(4), np.arange(4), indexing="ij"), axis=-1)
        atoms = Atoms.from_symbols(grid.reshape(-1, 3) * 2.6 + np.array([0.8, 2.0, 2.0]), ["Cu"] * 48)
        common = dict(timestep_fs=1.0, neighbor_skin=0.4, neighbor_every=2)
        split = DomainDecomposedSimulation(atoms.copy(), box, LennardJones(0.01, 2.3, 4.0), rank_dims=(2, 1, 1), **common)
        split.compute_forces()
        ownerless = split.domains[1]
        assert ownerless.n_owned == 0 and ownerless.n_ghost > 0
        assert not ownerless.primary_rows().any()
        assert ownerless.neighbors.pairs.shape == (0, 2)

        single = DomainDecomposedSimulation(atoms.copy(), box, LennardJones(0.01, 2.3, 4.0), rank_dims=(1, 1, 1), **common)
        single.compute_forces()
        alone = single.domains[0]
        assert alone.n_ghost == 0 and alone.primary_rows().all()
        serial = build_neighbor_data(alone.local_positions(), box, 4.0, 0.4)
        np.testing.assert_array_equal(alone.neighbors.pairs, serial.pairs)

    def test_local_atoms_is_made_once_per_rebuild_over_the_domains_own_rows(self):
        atoms, box = _copper_pair()
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0,
            rank_dims=(2, 1, 1), neighbor_skin=0.4, neighbor_every=3,
        )
        engine.run(1)
        domain = engine.domains[0]
        local = domain.local_atoms(engine.type_names)
        assert domain.local_atoms(engine.type_names) is local
        assert np.shares_memory(local.positions, domain.local_positions())
        assert np.shares_memory(local.forces, domain.local_forces())
        assert local.ids is domain.local_gids
        builds = engine.n_builds
        while engine.n_builds == builds:
            engine.run(1)
        rebuilt = domain.local_atoms(engine.type_names)
        assert rebuilt is not local
        assert np.shares_memory(rebuilt.positions, domain.local_positions())


@pytest.mark.slow
class TestLargerDecompositionSlow:
    """A 4x2x2 grid on a bigger water box; excluded from tier-1 for speed."""

    def test_water_4x2x2_matches_serial(self):
        atoms, box, topology = water_system(216, rng=21, jitter=0.15)
        atoms.initialize_velocities(400.0, rng=22)
        serial = Simulation(atoms.copy(), box, WaterReference(topology, cutoff=4.0), timestep_fs=0.5,
                            neighbor_skin=0.5, neighbor_every=5)
        engine = DomainDecomposedSimulation(atoms.copy(), box, WaterReference(topology, cutoff=4.0),
                                            timestep_fs=0.5, rank_dims=(4, 2, 2), scheme="p2p",
                                            neighbor_skin=0.5, neighbor_every=5)
        for _ in range(10):
            serial.run(1)
            engine.run(1)
            gathered = engine.gather()
            np.testing.assert_allclose(gathered.positions, serial.atoms.positions, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(gathered.forces, serial.atoms.forces, rtol=0.0, atol=1e-10)
        assert engine.n_builds == serial.neighbor_list.n_builds
