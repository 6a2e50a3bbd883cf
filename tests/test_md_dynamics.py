"""Integration, thermostats, the simulation loop and RDF analysis."""

import numpy as np
import pytest

from repro.md import (
    LangevinThermostat,
    LennardJones,
    Simulation,
    copper_system,
    radial_distribution_function,
    water_system,
)
from repro.md.forcefields import GuptaPotential
from repro.md.integrators import VelocityVerlet
from repro.md.rdf import partial_rdf, rdf_overlap_error
from repro.md.thermostats import BerendsenThermostat, VelocityRescale
from repro.units import temperature as instantaneous_temperature


class TestVelocityVerlet:
    def test_invalid_timestep(self):
        with pytest.raises(ValueError):
            VelocityVerlet(0.0)

    def test_free_particle_moves_linearly(self):
        from repro.md import Atoms, Box

        box = Box.cubic(100.0)
        atoms = Atoms.from_symbols(np.array([[1.0, 1.0, 1.0]]), ["Cu"])
        atoms.velocities[0] = [0.01, 0.0, 0.0]
        integrator = VelocityVerlet(2.0)
        # one force-free step: both half kicks are zero, the drift is v * dt
        integrator.first_half(atoms, box)
        integrator.second_half(atoms, box)
        np.testing.assert_allclose(atoms.positions[0], [1.02, 1.0, 1.0])
        np.testing.assert_array_equal(atoms.velocities[0], [0.01, 0.0, 0.0])

    def test_nve_energy_conservation_copper(self):
        atoms, box = copper_system((3, 3, 3), rng=0)
        atoms.initialize_velocities(150.0, rng=1)
        sim = Simulation(atoms, box, GuptaPotential(cutoff=5.0), timestep_fs=2.0, neighbor_skin=0.3)
        e0 = sim.total_energy()
        sim.run(40)
        e1 = sim.total_energy()
        drift_per_atom = abs(e1 - e0) / len(atoms)
        assert drift_per_atom < 2.0e-4  # eV/atom over 80 fs


class TestThermostats:
    def _lj_copper_sim(self, thermostat, steps=60):
        atoms, box = copper_system((3, 3, 3), rng=2)
        atoms.initialize_velocities(600.0, rng=3)
        sim = Simulation(
            atoms, box, GuptaPotential(cutoff=5.0), timestep_fs=2.0, neighbor_skin=0.3, thermostat=thermostat
        )
        sim.run(steps)
        return instantaneous_temperature(atoms.masses, atoms.velocities)

    def test_langevin_drives_towards_target(self):
        final = self._lj_copper_sim(LangevinThermostat(300.0, damping_fs=20.0, rng=4))
        assert 150.0 < final < 500.0

    def test_berendsen_reduces_temperature_gap(self):
        final = self._lj_copper_sim(BerendsenThermostat(300.0, coupling_fs=50.0))
        assert final < 600.0

    def test_berendsen_hot_start_stays_finite(self):
        """Regression: a hot start with aggressive coupling must not NaN.

        With the current temperature far above the target and dt/tau large,
        the raw weak-coupling sqrt argument 1 + (dt/tau)(T0/T - 1) goes
        negative; the old code silently filled the velocities with NaN.  The
        clamped factor must keep a single step inside the documented
        [min_factor, max_factor] window instead.
        """
        atoms, box = copper_system((2, 2, 2), rng=9)
        atoms.initialize_velocities(30000.0, rng=10)  # far above target
        thermostat = BerendsenThermostat(300.0, coupling_fs=5.0)
        before = instantaneous_temperature(atoms.masses, atoms.velocities)
        # dt/tau = 2.0, T0/T ~ 0.01 -> raw sqrt argument ~ -0.98
        thermostat.apply(atoms, timestep_fs=10.0)
        assert np.all(np.isfinite(atoms.velocities))
        after = instantaneous_temperature(atoms.masses, atoms.velocities)
        assert after == pytest.approx(before * thermostat.min_factor**2)

    def test_berendsen_cold_start_capped_by_max_factor(self):
        """The heating direction is clamped symmetrically at max_factor."""
        atoms, box = copper_system((2, 2, 2), rng=11)
        atoms.initialize_velocities(1.0, rng=12)  # essentially frozen
        thermostat = BerendsenThermostat(300.0, coupling_fs=5.0)
        before = instantaneous_temperature(atoms.masses, atoms.velocities)
        thermostat.apply(atoms, timestep_fs=10.0)
        after = instantaneous_temperature(atoms.masses, atoms.velocities)
        assert np.all(np.isfinite(atoms.velocities))
        assert after == pytest.approx(before * thermostat.max_factor**2)

    def test_berendsen_gentle_coupling_unchanged(self):
        """In-window rescales match the unclamped textbook factor exactly."""
        atoms, box = copper_system((2, 2, 2), rng=13)
        atoms.initialize_velocities(450.0, rng=14)
        current = instantaneous_temperature(atoms.masses, atoms.velocities)
        expected = atoms.velocities * np.sqrt(
            1.0 + (0.5 / 100.0) * (300.0 / current - 1.0)
        )
        BerendsenThermostat(300.0, coupling_fs=100.0).apply(atoms, timestep_fs=0.5)
        np.testing.assert_array_equal(atoms.velocities, expected)

    def test_velocity_rescale_hits_target_exactly(self):
        atoms, box = copper_system((2, 2, 2), rng=5)
        atoms.initialize_velocities(500.0, rng=6)
        VelocityRescale(250.0).apply(atoms, 1.0)
        assert instantaneous_temperature(atoms.masses, atoms.velocities) == pytest.approx(250.0)

    def test_thermostat_parameter_validation(self):
        with pytest.raises(ValueError):
            LangevinThermostat(-1.0)
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, coupling_fs=0.0)
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, min_factor=0.0)
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, min_factor=1.5)
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, max_factor=0.9)
        with pytest.raises(ValueError):
            VelocityRescale(300.0, every=0)
        with pytest.raises(ValueError, match="damping time must be positive"):
            LangevinThermostat(300.0, damping_fs=0.0)
        with pytest.raises(ValueError, match="temperature must be non-negative"):
            VelocityRescale(-1.0)


class TestSimulation:
    def test_requires_positive_cutoff(self):
        atoms, box = copper_system((2, 2, 2))

        class NoCutoff:
            cutoff = 0.0

        with pytest.raises(ValueError):
            Simulation(atoms, box, NoCutoff(), timestep_fs=1.0)

    def test_report_contents_and_timers(self):
        atoms, box = copper_system((3, 3, 3), rng=7)
        atoms.initialize_velocities(100.0, rng=8)
        sim = Simulation(atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=1.0, neighbor_skin=0.3)
        report = sim.run(10, trajectory_every=5)
        assert report.n_steps == 10
        assert len(report.potential_energies) == 10
        assert report.neighbor_builds >= 1
        assert {"pair", "neigh", "integrate"} <= set(report.timers.totals)
        assert len(sim.trajectory) == 2
        assert report.mean_temperature > 0.0

    def test_negative_steps_rejected(self):
        atoms, box = copper_system((2, 2, 2))
        sim = Simulation(atoms, box, LennardJones(0.05, 2.3, 3.0), timestep_fs=1.0, neighbor_skin=0.3)
        with pytest.raises(ValueError):
            sim.run(-1)


class TestRDF:
    def test_ideal_gas_rdf_is_flat(self):
        from repro.md import Atoms, Box

        rng = np.random.default_rng(0)
        box = Box.cubic(20.0)
        atoms = Atoms.from_symbols(rng.uniform(0, 20, size=(3000, 3)), ["Cu"] * 3000)
        rdf = partial_rdf(atoms, box, 0, 0, r_max=8.0, n_bins=40)
        # ignore the first few bins (few counts); the tail should hover around 1
        assert np.abs(rdf.g[10:] - 1.0).mean() < 0.1

    def test_fcc_first_peak_at_nearest_neighbor_distance(self):
        atoms, box = copper_system((4, 4, 4))
        rdf = partial_rdf(atoms, box, 0, 0, r_max=5.0, n_bins=100)
        peak_r, peak_g = rdf.first_peak()
        assert peak_r == pytest.approx(3.615 / np.sqrt(2.0), abs=0.1)
        assert peak_g > 5.0

    def test_water_oh_peak_near_bond_length(self):
        atoms, box, _ = water_system(64, rng=1)
        rdf = partial_rdf(atoms, box, 0, 1, r_max=4.0, n_bins=80)
        peak_r, _ = rdf.first_peak()
        assert peak_r == pytest.approx(1.0, abs=0.15)

    def test_trajectory_average_and_overlap_error(self):
        atoms, box, _ = water_system(27, rng=2)
        frames = [atoms.positions, atoms.positions + 0.01]
        rdf_a = radial_distribution_function(frames, box, atoms.types, 0, 0, r_max=4.0)
        rdf_b = radial_distribution_function([atoms.positions], box, atoms.types, 0, 0, r_max=4.0)
        err = rdf_overlap_error(rdf_a, rdf_b)
        assert err >= 0.0
        assert err < 0.5

    def test_overlap_error_requires_same_binning(self):
        atoms, box, _ = water_system(8, rng=3)
        a = partial_rdf(atoms, box, 0, 0, r_max=4.0, n_bins=10)
        b = partial_rdf(atoms, box, 0, 0, r_max=4.0, n_bins=20)
        with pytest.raises(ValueError):
            rdf_overlap_error(a, b)

    def test_empty_frames_rejected(self):
        from repro.md import Box

        with pytest.raises(ValueError):
            radial_distribution_function([], Box.cubic(5.0), None, 0, 0)


class TestRDFPairSearch:
    """The binned pair search behind the RDF vs the dense golden reference.

    ``_pair_distances`` used to materialize a dense (N_a, N_b, 3) displacement
    tensor — O(N^2) memory that fell over at production sizes.  It now routes
    through the binned neighbour search; the dense formulation is kept as
    ``_pair_distances_dense`` purely as the parity reference here.
    """

    def _random_two_species(self, n, seed, length=12.0):
        from repro.md import Atoms, Box

        rng = np.random.default_rng(seed)
        box = Box.cubic(length)
        positions = rng.uniform(0.0, length, size=(n, 3))
        types = np.repeat([0, 1], [n // 2, n - n // 2])
        atoms = Atoms(positions=positions, types=types, masses=np.ones(n))
        return atoms, box

    @pytest.mark.parametrize("n", [60, 400], ids=["brute-path", "binned-path"])
    def test_same_species_distances_match_dense_reference(self, n):
        from repro.md.rdf import _pair_distances, _pair_distances_dense

        atoms, box = self._random_two_species(n, seed=4)
        pos = atoms.positions[atoms.types == 0]
        r_max = 5.0
        dense = _pair_distances_dense(pos, pos, box, same=True)
        dense = np.sort(dense[dense <= r_max])
        binned = np.sort(_pair_distances(pos, pos, box, True, r_max))
        np.testing.assert_allclose(binned, dense, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("n", [60, 400], ids=["brute-path", "binned-path"])
    def test_cross_species_distances_match_dense_reference(self, n):
        from repro.md.rdf import _pair_distances, _pair_distances_dense

        atoms, box = self._random_two_species(n, seed=5)
        pos_a = atoms.positions[atoms.types == 0]
        pos_b = atoms.positions[atoms.types == 1]
        r_max = 4.5
        dense = _pair_distances_dense(pos_a, pos_b, box, same=False)
        dense = np.sort(dense[dense <= r_max])
        binned = np.sort(_pair_distances(pos_a, pos_b, box, False, r_max))
        np.testing.assert_allclose(binned, dense, rtol=0.0, atol=0.0)

    def test_partial_rdf_matches_dense_histogram(self):
        """g(r) computed through the binned search equals the histogram of
        the dense reference distances bin-for-bin."""
        from repro.md.rdf import _pair_distances_dense

        atoms, box = self._random_two_species(500, seed=6)
        r_max, n_bins = 5.0, 60
        result = partial_rdf(atoms, box, 0, 1, r_max=r_max, n_bins=n_bins)
        pos_a = atoms.positions[atoms.types == 0]
        pos_b = atoms.positions[atoms.types == 1]
        dense = _pair_distances_dense(pos_a, pos_b, box, same=False)
        dense = dense[dense > 1.0e-9]
        edges = np.linspace(0.0, r_max, n_bins + 1)
        hist, _ = np.histogram(dense, bins=edges)
        shells = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
        ideal = len(pos_a) * len(pos_b) * shells / box.volume
        expected = np.divide(hist.astype(float), ideal, out=np.zeros(n_bins), where=ideal > 0)
        np.testing.assert_allclose(result.g, expected, rtol=0.0, atol=1e-12)

    def test_large_system_runs_without_dense_tensor(self):
        """A 6000-atom RDF (dense tensor would be ~0.9 GB) completes."""
        atoms, box = self._random_two_species(6000, seed=7, length=30.0)
        result = partial_rdf(atoms, box, 0, 0, r_max=6.0, n_bins=50)
        assert np.abs(result.g[20:] - 1.0).mean() < 0.2  # ideal-gas-like tail
