"""The shared run-loop core: report conventions, workspace parity, backends.

Covers the contracts both backends inherit from
:class:`repro.md.stepping.SteppingLoop`:

* ``neighbor_build_seconds`` is a **per-run delta** (the cumulative counter
  convention was a bug: a second ``run()`` used to re-report the first run's
  builds),
* ``trajectory`` survives runs that do not capture (``trajectory_every=0``)
  and resets only when capture is requested,
* sampling edge cases (``sample_every=0``, ``n_steps=0``) and the
  thermostat-before-sampling ordering are identical between the serial and
  domain-decomposed backends,
* the workspace (preallocated) force-field paths match the allocating
  reference paths, and steady-state steps run entirely out of the pools,
* cutoff validation and ``describe()`` harvesting behave identically across
  backends (they are deduplicated into the core).
"""

import numpy as np
import pytest

from repro.md import Atoms, Box, LennardJones, Simulation, Workspace, copper_system, water_system
from repro.md.forcefields import GuptaPotential, MorsePotential
from repro.md.thermostats import BerendsenThermostat, VelocityRescale
from repro.md.forcefields.water import WaterReference
from repro.md.neighbor import build_neighbor_data, first_outside
from repro.md.stepping import harvest_force_field_info, validate_cutoff
from repro.parallel import DomainDecomposedSimulation
from repro.reference.forcefields import ReferenceForceField


def _copper(rng=0, temperature=300.0):
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=rng)
    atoms.initialize_velocities(temperature, rng=rng + 1)
    return atoms, box


def _serial(atoms, box, **kwargs):
    kwargs.setdefault("timestep_fs", 2.0)
    kwargs.setdefault("neighbor_skin", 0.4)
    kwargs.setdefault("neighbor_every", 5)
    return Simulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), **kwargs)


def _engine(atoms, box, **kwargs):
    kwargs.setdefault("timestep_fs", 2.0)
    kwargs.setdefault("neighbor_skin", 0.4)
    kwargs.setdefault("neighbor_every", 5)
    kwargs.setdefault("rank_dims", (2, 1, 1))
    return DomainDecomposedSimulation(atoms.copy(), box, LennardJones(0.05, 2.3, 5.0), **kwargs)


BACKENDS = {"serial": _serial, "engine": _engine}


# ---------------------------------------------------------------------------
# neighbor_build_seconds: per-run delta, not the cumulative counter
# ---------------------------------------------------------------------------


class TestNeighborBuildSecondsPerRun:
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_two_runs_report_their_own_builds(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        first = sim.run(8)
        second = sim.run(8)
        # both runs rebuild (neighbor_every=5), so both report nonzero time
        assert first.neighbor_build_seconds > 0.0
        assert second.neighbor_build_seconds > 0.0
        # the regression: the second report must NOT re-report the first
        # run's builds — the two deltas sum to the cumulative counter
        cumulative = sim.neighbor_build_seconds()
        assert first.neighbor_build_seconds < cumulative
        assert first.neighbor_build_seconds + second.neighbor_build_seconds == pytest.approx(
            cumulative
        )

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_two_runs_report_their_own_build_counts(self, backend):
        """``neighbor_builds`` is a per-run delta like the seconds field.

        The regression: the report used to copy the backend's *cumulative*
        counter, so a second ``run()`` re-reported the first run's builds."""
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        first = sim.run(8)
        second = sim.run(8)
        assert first.neighbor_builds > 0
        assert second.neighbor_builds > 0
        cumulative = sim.neighbor_build_count()
        assert first.neighbor_builds < cumulative
        assert first.neighbor_builds + second.neighbor_builds == cumulative

    def test_first_run_includes_the_initial_build(self):
        atoms, box = _copper()
        sim = _serial(atoms, box)
        report = sim.run(2)
        # the lazily triggered initial build is attributed to the run that
        # caused it: the delta equals the cumulative counter on a fresh sim
        assert report.neighbor_build_seconds == pytest.approx(sim.neighbor_list.build_seconds)


# ---------------------------------------------------------------------------
# trajectory lifecycle
# ---------------------------------------------------------------------------


class TestTrajectoryLifecycle:
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_plain_run_preserves_previous_snapshots(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        sim.run(4, trajectory_every=2)
        frames = [frame.copy() for frame in sim.trajectory]
        assert len(frames) == 2
        sim.run(4)  # no capture: must not silently discard the frames
        assert len(sim.trajectory) == 2
        for kept, expected in zip(sim.trajectory, frames):
            np.testing.assert_array_equal(kept, expected)

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_new_capture_resets_the_trajectory(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        sim.run(4, trajectory_every=1)
        assert len(sim.trajectory) == 4
        sim.run(2, trajectory_every=1)
        assert len(sim.trajectory) == 2

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_held_trajectory_list_survives_a_new_capture(self, backend):
        """A trajectory handed out by one capture run must stay intact when
        a later run re-captures (the loop rebinds, never clears in place)."""
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        sim.run(4, trajectory_every=2)
        held = sim.trajectory
        first_frame = held[0].copy()
        sim.run(2, trajectory_every=1)
        assert sim.trajectory is not held
        assert len(held) == 2
        np.testing.assert_array_equal(held[0], first_frame)

    def test_public_force_and_virial_surfaces_do_not_alias_the_pool(self):
        """atoms.forces / last_virial keep their values across later steps
        even though the force-field outputs live in reused buffers."""
        from repro.deepmd import DeepPotential, DeepPotentialConfig
        from repro.deepmd.pair_style import DeepPotentialForceField

        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=4.5, cutoff_smooth=3.5, embedding_sizes=(6, 12),
            axis_neurons=4, fitting_sizes=(16, 16), max_neighbors=48, seed=0,
        )
        model = DeepPotential(config)
        rng = np.random.default_rng(0)
        model.set_descriptor_stats(
            rng.normal(scale=0.1, size=(1, config.descriptor_dim)),
            0.5 + rng.random((1, config.descriptor_dim)),
        )
        model.set_energy_bias(np.array([-1.0]))
        atoms, box = _copper()
        sim = Simulation(
            atoms.copy(), box, DeepPotentialForceField(model),
            timestep_fs=0.5, neighbor_skin=0.4, neighbor_every=5,
        )
        sim.run(3)
        held_forces = sim.atoms.forces.copy()
        held_virial = sim.last_virial
        held_virial_values = held_virial.copy()
        sim.run(3)
        # the held virial snapshot kept its values (it is not a pool buffer)
        np.testing.assert_array_equal(held_virial, held_virial_values)
        # forces moved on (the dynamics advanced) but never to transient
        # mid-compute garbage: the persistent array always holds a full result
        assert np.abs(sim.atoms.forces - held_forces).max() > 0.0
        assert np.all(np.isfinite(sim.atoms.forces))

    def test_engine_frames_are_independent_snapshots(self):
        """Captured frames must not alias the engine's reusable gather pool."""
        atoms, box = _copper()
        engine = _engine(atoms, box)
        engine.run(4, trajectory_every=2)
        first, second = engine.trajectory
        assert first is not second
        assert np.abs(first - second).max() > 0.0  # atoms moved between frames


# ---------------------------------------------------------------------------
# sampling / thermostat interplay (identical across backends)
# ---------------------------------------------------------------------------


class TestSamplingEdgeCases:
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_sample_every_zero_records_nothing(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        report = sim.run(5, sample_every=0)
        assert report.n_steps == 5
        assert len(report.potential_energies) == 0
        assert len(report.temperatures) == 0
        assert report.mean_temperature == 0.0

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_zero_steps_still_yields_a_report(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        report = sim.run(0)
        assert report.n_steps == 0
        assert len(report.potential_energies) == 0
        assert report.steps_per_second == 0.0

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_negative_steps_rejected(self, backend):
        atoms, box = _copper()
        sim = BACKENDS[backend](atoms, box)
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_thermostat_applies_before_sampling_in_both_backends(self):
        """VelocityRescale pins the temperature *before* it is sampled, so
        every recorded temperature equals the target — in both loops."""
        target = 250.0
        atoms, box = _copper(temperature=500.0)
        for make in BACKENDS.values():
            sim = make(atoms, box, thermostat=VelocityRescale(target))
            report = sim.run(6)
            # n_dof uses 3N-3; rescale targets the same estimator
            np.testing.assert_allclose(report.temperatures, target, rtol=1e-10)

    def test_thermostatted_reports_match_across_backends(self):
        atoms, box = _copper(rng=4, temperature=600.0)
        serial = _serial(atoms, box, thermostat=BerendsenThermostat(300.0, coupling_fs=80.0))
        engine = _engine(atoms, box, thermostat=BerendsenThermostat(300.0, coupling_fs=80.0))
        serial_report = serial.run(10, sample_every=2)
        engine_report = engine.run(10, sample_every=2)
        np.testing.assert_allclose(
            engine_report.potential_energies,
            serial_report.potential_energies,
            rtol=0.0,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            engine_report.temperatures, serial_report.temperatures, rtol=0.0, atol=1e-10
        )


# ---------------------------------------------------------------------------
# workspace (preallocated) vs reference (allocating) force-field paths
# ---------------------------------------------------------------------------


def _force_field_cases():
    atoms_cu, box_cu = copper_system((3, 3, 3), perturbation=0.08, rng=7)
    atoms_w, box_w, topology = water_system(32, rng=8, jitter=0.3)
    return [
        ("lj", LennardJones(0.05, 2.3, 5.0), atoms_cu, box_cu),
        ("morse", MorsePotential(cutoff=5.0), atoms_cu, box_cu),
        ("gupta", GuptaPotential(cutoff=5.0), atoms_cu, box_cu),
        ("water", WaterReference(topology, cutoff=4.0), atoms_w, box_w),
    ]


class TestWorkspaceParity:
    @pytest.mark.parametrize(
        "name, force_field, atoms, box",
        _force_field_cases(),
        ids=[case[0] for case in _force_field_cases()],
    )
    def test_workspace_path_matches_reference(self, name, force_field, atoms, box):
        """Three-way pin: a warmed pool and ``workspace=None`` (``UNPOOLED``)
        run one body, so they agree bit for bit; both agree with the
        ``np.add.at`` reference body to 1e-12 (water has none: its scatter is
        pinned against ``np.add.at`` and its forces against finite differences
        in ``test_md_forcefields.py``)."""
        data = build_neighbor_data(atoms.positions, box, force_field.cutoff, 0.4)
        unpooled = force_field.compute(atoms, box, data)
        reference = None if name == "water" else ReferenceForceField(force_field).compute(atoms, box, data)
        workspace = Workspace()
        for _ in range(2):  # second call exercises fully warmed buffers
            fast = force_field.compute(atoms, box, data, workspace=workspace)
            assert fast.energy == unpooled.energy
            np.testing.assert_array_equal(fast.forces, unpooled.forces)
            np.testing.assert_array_equal(fast.per_atom_energy, unpooled.per_atom_energy)
            if reference is None:
                continue
            assert fast.energy == pytest.approx(reference.energy, abs=1e-10)
            np.testing.assert_allclose(fast.forces, reference.forces, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                fast.per_atom_energy, reference.per_atom_energy, rtol=0.0, atol=1e-12
            )

    def test_workspace_trajectory_matches_reference_loop(self):
        """40 steps across rebuilds: the pooled LJ path and the allocating
        LJ reference agree through the whole loop."""
        atoms, box = _copper(rng=11)
        pooled = _serial(atoms, box)
        reference = _serial(atoms, box)
        reference.force_field = ReferenceForceField(reference.force_field)
        pooled.run(40)
        reference.run(40)
        np.testing.assert_allclose(
            pooled.atoms.positions, reference.atoms.positions, rtol=0.0, atol=1e-10
        )
        np.testing.assert_allclose(
            pooled.atoms.velocities, reference.atoms.velocities, rtol=0.0, atol=1e-10
        )

    def test_steady_state_buffers_are_reused(self):
        atoms, box = _copper()
        sim = _serial(atoms, box, neighbor_every=0)
        sim.run(5)
        misses = sim.workspace.misses
        sim.run(10)
        assert sim.workspace.misses == misses, "steady-state steps must not reallocate"
        assert sim.workspace.hits > 0

    def test_workspace_buffer_semantics(self):
        w = Workspace()
        a = w.zeros("a", (4, 3))
        assert w.misses == 1
        a[:] = 5.0
        b = w.zeros("a", (4, 3))
        assert b is a and b.sum() == 0.0 and w.hits == 1
        # shape change reallocates; capacity buffers only grow
        c = w.buffer("a", (6, 3))
        assert c is not a and w.misses == 2
        v1 = w.capacity("p", 10, (3,))
        v2 = w.capacity("p", 8, (3,))
        assert v2.base is v1.base and v2.shape == (8, 3)
        v3 = w.capacity("p", 40, (3,))
        assert v3.base is not v1.base
        # nbytes is what the pool holds: backing stores at capacity, not the views handed out
        assert w.nbytes == c.nbytes + v3.base.nbytes > c.nbytes + v3.nbytes
        scoped = w.scoped("s").capacity("p", 2)  # a scope's buffers live in the parent pool
        assert w.nbytes == c.nbytes + v3.base.nbytes + scoped.base.nbytes


# ---------------------------------------------------------------------------
# shared validation / report assembly
# ---------------------------------------------------------------------------


class TestSharedValidation:
    def test_cutoff_validation_is_shared(self):
        class NoCutoff:
            cutoff = 0.0

        with pytest.raises(ValueError):
            validate_cutoff(NoCutoff())
        atoms, box = _copper()
        for make_backend in (Simulation, DomainDecomposedSimulation):
            with pytest.raises(ValueError, match="positive cutoff"):
                make_backend(atoms.copy(), box, NoCutoff(), timestep_fs=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("quantity", ["position", "velocity"])
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_construction_refuses_a_non_finite_state(self, backend, quantity, bad):
        atoms, box = _copper()
        getattr(atoms, {"position": "positions", "velocity": "velocities"}[quantity])[3, 1] = bad
        with pytest.raises(ValueError, match=rf"^{quantity} row 3 is not finite"):
            BACKENDS[backend](atoms, box)

    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_construction_refuses_a_box_too_short_for_cutoff_plus_skin(self, backend):
        atoms = Atoms.from_symbols(np.array([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]]), ["Cu", "Cu"])
        limit = r"cutoff\+skin \(7\.000 A\) exceeds the minimum-image limit \(4\.000 A\) of the box"
        with pytest.raises(ValueError, match=limit):
            BACKENDS[backend](atoms, Box.cubic(8.0), neighbor_skin=2.0)

    @staticmethod
    def _open_y_copper():
        """The copper lattice 2 A into a y axis that is open and 4 A longer."""
        atoms, box = _copper()
        atoms.positions[:, 1] += 2.0
        return atoms, Box(box.lengths + (0.0, 4.0, 0.0), (True, False, True))

    @pytest.mark.parametrize("coordinate", [-0.5, 50.0])
    @pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
    def test_construction_refuses_an_atom_outside_an_open_axis(self, backend, coordinate):
        atoms, box = self._open_y_copper()
        BACKENDS[backend](atoms, box).run(1)  # inside: runs
        atoms.positions[4, 1] = coordinate
        with pytest.raises(ValueError, match=rf"^position row 4 is outside the open box along y: {coordinate}"):
            BACKENDS[backend](atoms, box)

    def test_serial_rebuild_refuses_an_atom_that_left_an_open_axis(self):
        atoms, box = self._open_y_copper()
        sim = _serial(atoms, box, neighbor_every=1000)
        sim.run(2)
        builds = sim.neighbor_list.n_builds
        sim.atoms.positions[7, 1] = box.lengths[1] + 3.0  # stale by the skin: the next step rebuilds
        with pytest.raises(ValueError, match="^position row 7 is outside the open box along y"):
            sim.run(1)
        assert sim.neighbor_list.n_builds == builds

    def test_ranked_rebuild_refuses_an_atom_that_left_an_open_axis(self):
        atoms, box = self._open_y_copper()
        engine = _engine(atoms, box, neighbor_every=1000)
        engine.run(2)
        engine.domains[1].positions[0, 1] = -3.0
        gid = int(engine.domains[1].gids[0])
        with pytest.raises(ValueError, match=rf"^rank 1 position row 0 \(atom {gid}\) is outside the open box along y"):
            engine.run(1)

    def test_only_a_finite_open_axis_bounds_a_row(self):
        positions = np.array([[0.0, 5.0, 1.0], [-2.0, 20.0, 3.0], [4.0, 5.0, -1.0]])
        lengths = np.array([10.0, 10.0, 10.0])
        assert first_outside(positions, Box(lengths)) is None  # periodic axes wrap
        assert first_outside(positions, Box(np.array([10.0, np.inf, np.inf]), (True, False, False))) is None
        assert first_outside(positions, Box(lengths, (True, False, False))) == (1, 1)  # row-major: row, then axis
        assert first_outside(positions, Box(lengths, (False, True, False))) == (1, 0)
        assert first_outside(positions, Box(lengths, (True, True, False))) == (2, 2)
        assert first_outside(positions[:1], Box(lengths, (False,) * 3)) is None  # x = 0 lies on the face

    def test_force_field_info_harvesting_is_shared(self):
        assert harvest_force_field_info(LennardJones(0.05, 2.3, 5.0)) == {}

        class Described:
            cutoff = 5.0

            def describe(self):
                return {"path": "x"}

        assert harvest_force_field_info(Described()) == {"path": "x"}

    def test_phase_seconds_is_a_per_run_breakdown(self):
        atoms, box = _copper()
        sim = _serial(atoms, box)
        report = sim.run(6)
        assert {"pair", "neigh", "integrate"} <= set(report.phase_seconds)
        assert sum(report.phase_seconds.values()) == pytest.approx(report.elapsed_seconds)
        second = sim.run(6)
        # per-run: the cumulative timers keep growing but the breakdown is new
        assert sum(second.phase_seconds.values()) == pytest.approx(second.elapsed_seconds)
        assert second.timers.total() > sum(second.phase_seconds.values())
