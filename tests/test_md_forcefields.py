"""Reference force fields: analytic forces vs finite differences, physics sanity."""

import hashlib

import numpy as np
import pytest
from test_md_neighbor import _BOX_KINDS, _box_matrix_case

from repro.md import Atoms, Box, LennardJones, Simulation, Workspace, copper_system, water_system
from repro.md.forcefields import GuptaPotential, MorsePotential, WaterReference, pairs
from repro.md.neighbor import build_neighbor_data
from repro.md.workspace import minimum_image_into, scatter_add_scalars, scatter_add_vectors
from repro.reference.forcefields import accumulate_pair_forces


def builder(box, cutoff):
    return lambda atoms: build_neighbor_data(atoms.positions, box, cutoff)


def numerical_forces_loop_reference(force_field, atoms, box, neighbors_builder, delta=1.0e-5):
    """The original per-element triple loop, kept as the regression oracle for
    the vectorized ``ForceField.numerical_forces``."""
    base = atoms.copy()
    forces = np.zeros_like(base.positions)
    for i in range(len(base)):
        for axis in range(3):
            for sign, slot in ((+1.0, 0), (-1.0, 1)):
                trial = base.copy()
                trial.positions[i, axis] += sign * delta
                trial.positions = box.wrap(trial.positions)
                nd = neighbors_builder(trial)
                energy = force_field.compute(trial, box, nd).energy
                if slot == 0:
                    e_plus = energy
                else:
                    e_minus = energy
            forces[i, axis] = -(e_plus - e_minus) / (2.0 * delta)
    return forces


class TestNumericalForcesVectorized:
    """Regression: the vectorized finite-difference helper reproduces the
    per-element loop it replaced, bit for bit."""

    def test_matches_loop_reference(self):
        atoms, box = copper_system((2, 2, 2), perturbation=0.08, rng=9)
        subset = atoms.select(np.arange(8))
        lj = LennardJones(epsilon=0.1, sigma=2.3, cutoff=3.5)
        fast = lj.numerical_forces(subset, box, builder(box, 3.5))
        slow = numerical_forces_loop_reference(lj, subset, box, builder(box, 3.5))
        np.testing.assert_array_equal(fast, slow)

    def test_matches_analytic_forces(self):
        atoms, box = copper_system((2, 2, 2), perturbation=0.08, rng=10)
        lj = LennardJones(epsilon=0.1, sigma=2.3, cutoff=3.5)
        data = build_neighbor_data(atoms.positions, box, 3.5)
        analytic = lj.compute(atoms, box, data).forces
        numeric = lj.numerical_forces(atoms, box, builder(box, 3.5))
        np.testing.assert_allclose(analytic, numeric, atol=5e-6)

    def test_empty_system(self):
        from repro.md import Atoms, Box

        box = Box.cubic(10.0)
        atoms = Atoms.from_symbols(np.zeros((0, 3)), [])
        lj = LennardJones(epsilon=0.1, sigma=2.3, cutoff=3.5)
        assert lj.numerical_forces(atoms, box, builder(box, 3.5)).shape == (0, 3)


class TestLennardJones:
    def test_minimum_at_sigma_times_2_to_sixth(self):
        lj = LennardJones(epsilon=0.5, sigma=2.0, cutoff=8.0, shift=False)
        r_min = 2.0 * 2.0 ** (1.0 / 6.0)
        import numpy as np

        from repro.md import Atoms, Box

        box = Box.cubic(30.0)
        atoms = Atoms.from_symbols(np.array([[0.0, 0, 0], [r_min, 0, 0]]), ["Cu", "Cu"])
        data = build_neighbor_data(atoms.positions, box, 8.0)
        result = lj.compute(atoms, box, data)
        assert result.energy == pytest.approx(-0.5, rel=1e-9)
        np.testing.assert_allclose(result.forces, 0.0, atol=1e-9)

    def test_forces_match_finite_differences(self, small_copper):
        atoms, box = small_copper
        lj = LennardJones(epsilon=0.05, sigma=2.3, cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        analytic = lj.compute(atoms, box, data).forces
        numeric = lj.numerical_forces(atoms, box, builder(box, 5.0))
        np.testing.assert_allclose(analytic, numeric, atol=5e-6)

    def test_energy_shift_makes_cutoff_continuous(self):
        lj = LennardJones(epsilon=0.5, sigma=2.0, cutoff=6.0, shift=True)
        from repro.md import Atoms, Box

        box = Box.cubic(30.0)
        atoms = Atoms.from_symbols(np.array([[0.0, 0, 0], [5.999, 0, 0]]), ["Cu", "Cu"])
        data = build_neighbor_data(atoms.positions, box, 6.0)
        assert abs(lj.compute(atoms, box, data).energy) < 1e-4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LennardJones(-1.0, 1.0, 1.0)


class TestMorse:
    def test_equilibrium_distance_has_zero_force(self):
        from repro.md import Atoms, Box

        morse = MorsePotential(cutoff=8.0, shift=False)
        box = Box.cubic(30.0)
        atoms = Atoms.from_symbols(np.array([[0.0, 0, 0], [morse.r0, 0, 0]]), ["Cu", "Cu"])
        data = build_neighbor_data(atoms.positions, box, 8.0)
        result = morse.compute(atoms, box, data)
        assert result.energy == pytest.approx(-morse.d, rel=1e-6)
        np.testing.assert_allclose(result.forces, 0.0, atol=1e-9)

    def test_forces_match_finite_differences(self, small_copper):
        atoms, box = small_copper
        morse = MorsePotential(cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        analytic = morse.compute(atoms, box, data).forces
        numeric = morse.numerical_forces(atoms, box, builder(box, 5.0))
        np.testing.assert_allclose(analytic, numeric, atol=5e-6)


class TestGupta:
    def test_cohesive_energy_close_to_copper(self):
        atoms, box = copper_system((3, 3, 3))
        gupta = GuptaPotential(cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        e_per_atom = gupta.compute(atoms, box, data).energy / len(atoms)
        # Experimental copper cohesive energy is about -3.49 eV/atom.
        assert -4.0 < e_per_atom < -2.8

    def test_forces_vanish_on_perfect_lattice(self):
        atoms, box = copper_system((3, 3, 3))
        gupta = GuptaPotential(cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        np.testing.assert_allclose(gupta.compute(atoms, box, data).forces, 0.0, atol=1e-10)

    def test_forces_match_finite_differences(self, small_copper):
        atoms, box = small_copper
        gupta = GuptaPotential(cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        analytic = gupta.compute(atoms, box, data).forces
        numeric = gupta.numerical_forces(atoms, box, builder(box, 5.0))
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_per_atom_energy_sums_to_total(self, small_copper):
        atoms, box = small_copper
        gupta = GuptaPotential(cutoff=5.0)
        data = build_neighbor_data(atoms.positions, box, 5.0)
        result = gupta.compute(atoms, box, data)
        assert result.per_atom_energy.sum() == pytest.approx(result.energy, rel=1e-12)


class TestWaterReference:
    def test_forces_match_finite_differences(self):
        atoms, box, topology = water_system(64, rng=3)
        water = WaterReference(topology, cutoff=6.0)
        data = build_neighbor_data(atoms.positions, box, 6.0)
        analytic = water.compute(atoms, box, data).forces
        numeric = water.numerical_forces(atoms, box, builder(box, 6.0))
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_intramolecular_terms_zero_at_equilibrium_geometry(self):
        atoms, box, topology = water_system(8, rng=4)
        water = WaterReference(topology, cutoff=6.0)
        forces = np.zeros_like(atoms.positions)
        per_atom = np.zeros(len(atoms))
        bond_energy = water._bond_terms(atoms, box, forces, per_atom)
        angle_energy = water._angle_terms(atoms, box, forces, per_atom)
        assert bond_energy == pytest.approx(0.0, abs=1e-8)
        assert angle_energy == pytest.approx(0.0, abs=1e-8)

    def test_total_force_is_zero(self):
        atoms, box, topology = water_system(27, rng=5)
        water = WaterReference(topology, cutoff=4.5)
        data = build_neighbor_data(atoms.positions, box, 4.5)
        total = water.compute(atoms, box, data).forces.sum(axis=0)
        np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestBlockedPairKernel:
    """LJ and Morse run in blocks of ``PAIR_BLOCK_ROWS`` rows of the pair list.

    The block size is a cache decision only: one row per block, a small odd
    size and one block for everything give the default's energy, per-atom
    energies and forces bit for bit, from a warmed pool and from
    ``UNPOOLED``, on every geometry of the box matrix and on perfect copper
    FCC, where exact distance ties sit on the cutoff.
    """

    @staticmethod
    def _at_block_sizes(monkeypatch, force_field, atoms, box, data):
        pool = Workspace()

        def outputs(workspace):
            result = force_field.compute(atoms, box, data, workspace=workspace)
            return result.energy, result.per_atom_energy.copy(), result.forces.copy()

        default = outputs(pool)
        assert len(data.pairs) > 0
        for block in (pairs.PAIR_BLOCK_ROWS, 1, 7, len(data.pairs) + 1):
            monkeypatch.setattr(pairs, "PAIR_BLOCK_ROWS", block)
            for workspace in (pool, None):
                for got, want in zip(outputs(workspace), default):
                    np.testing.assert_array_equal(got, want, err_msg=f"block={block}, pooled={workspace is pool}")
        monkeypatch.undo()

    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_block_size_never_selects_arithmetic(self, kind, monkeypatch):
        rng = np.random.default_rng([35, _BOX_KINDS.index(kind)])
        positions, box, search = _box_matrix_case(kind, 160, rng)
        atoms = Atoms.from_symbols(positions, ["Cu"] * len(positions))
        data = build_neighbor_data(positions, box, search)
        # the pair styles cut inside the search radius, so skin rows are masked
        for force_field in (LennardJones(0.05, 0.8, search - 0.3), MorsePotential(cutoff=search - 0.3)):
            self._at_block_sizes(monkeypatch, force_field, atoms, box, data)

    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_staged_r2_is_the_row_major_einsum(self, kind):
        """The component-major staging sums ``r2`` in the order
        ``np.einsum("ij,ij->i")`` sums a contiguous ``(n, 3)`` row."""
        rng = np.random.default_rng([36, _BOX_KINDS.index(kind)])
        positions, box, search = _box_matrix_case(kind, 400, rng)
        data = build_neighbor_data(positions, box, search)
        coords, i, j = pairs.pair_operands("test", positions, data.pairs, Workspace())
        delta, r2 = pairs.stage_pairs("test", coords, box, i, j, Workspace())
        rows = np.ascontiguousarray(delta)
        np.testing.assert_array_equal(rows, box.minimum_image(positions[i] - positions[j]))
        np.testing.assert_array_equal(r2, np.einsum("ij,ij->i", rows, rows))

    @pytest.mark.parametrize("cutoff", [3.615 / np.sqrt(2.0), 3.615])
    def test_block_size_never_selects_arithmetic_on_fcc_ties(self, cutoff, monkeypatch):
        atoms, box = copper_system((4, 4, 4))
        data = build_neighbor_data(atoms.positions, box, cutoff, skin=0.4)
        for force_field in (LennardJones(0.05, 2.3, cutoff), MorsePotential(cutoff=cutoff)):
            self._at_block_sizes(monkeypatch, force_field, atoms, box, data)

    @pytest.mark.parametrize(
        "force_field, expected",
        [
            (LennardJones(0.05, 2.3, 5.0), "193f4c3f8c10edf3f02ad4d108e06b59512ce6d6bcd69b7d397d51f948399a66"),
            (MorsePotential(cutoff=5.0), "60161c2617d526ccaba26ed11839a5adce4ddf42246cc52241d0bd9c7129222c"),
            (GuptaPotential(cutoff=5.0), "5c062bd350da7a8f82016a3636492808d1a1144fd3cca6dbd7c60aa7246ad582"),
        ],
        ids=["lj", "morse", "gupta"],
    )
    def test_trajectory_is_pinned(self, force_field, expected):
        """sha256 of a fixed-seed 40-step run (23 k pairs: three default
        blocks), recorded on the unblocked kernel (Gupta: on its two-stage
        body, before its pair terms were weighted by centre): final
        positions, velocities and forces, then every sampled potential
        energy."""
        atoms, box = copper_system((6, 6, 6), perturbation=0.05, rng=np.random.default_rng(35))
        atoms.initialize_velocities(300.0, rng=np.random.default_rng(36))
        sim = Simulation(atoms, box, force_field, timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)
        report = sim.run(40)
        digest = hashlib.sha256()
        for array in (atoms.positions, atoms.velocities, atoms.forces, np.asarray(report.potential_energies)):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == expected


class TestHelpers:
    def test_accumulate_pair_forces_newton(self):
        pairs = np.array([[0, 1]])
        pair_forces = np.array([[1.0, 0.0, 0.0]])
        forces = accumulate_pair_forces(2, pairs, pair_forces)
        np.testing.assert_allclose(forces[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(forces[1], [-1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "periodic",
        [(True, True, True), (True, True, False), (False, True, False), (False, False, False)],
        ids=["periodic", "slab", "mixed", "open"],
    )
    def test_minimum_image_into_is_box_minimum_image(self, periodic):
        """The in-place form every pooled path stages through is the same
        arithmetic as ``Box.minimum_image``, images several cells out included."""
        box = Box(np.array([7.0, 9.5, 11.25]), periodic)
        delta = np.random.default_rng(0).uniform(-4.0, 4.0, (500, 3)) * box.lengths
        delta[:3] = [[3.5, -4.75, 5.625], [0.0, 9.5, -11.25], [-17.5, 14.25, 28.125]]  # half-cell ties
        expected = box.minimum_image(delta)
        staged = delta.copy()
        assert minimum_image_into(box, staged, np.empty(len(delta))) is staged
        np.testing.assert_array_equal(staged, expected)
        empty = np.empty((0, 3))
        assert minimum_image_into(box, empty, np.empty(0)).shape == (0, 3)

    def test_bincount_scatters_match_add_at(self):
        """``scatter_add_*`` against the ``np.add.at`` loops they replace, to
        1e-13 at force scale: every index repeated ~100 times per role, a
        non-zero ``out``, empty inputs."""
        rng = np.random.default_rng(1)
        n, m = 40, 4_000
        i, j = rng.integers(0, n, m), rng.integers(0, n, m)
        vectors, scalars = rng.normal(size=(m, 3)), rng.normal(size=m)
        start_v, start_s = rng.normal(size=(n, 3)), rng.normal(size=n)

        expected = start_v.copy()
        np.add.at(expected, i, vectors)
        np.add.at(expected, j, -vectors)
        got = scatter_add_vectors(start_v.copy(), i, j, vectors)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)
        # component-major input (the pair kernels' layout) sums the same columns
        component_major = np.ascontiguousarray(vectors.T).T
        np.testing.assert_array_equal(scatter_add_vectors(start_v.copy(), i, j, component_major), got)

        expected = start_s.copy()
        np.add.at(expected, i, scalars)
        got = scatter_add_scalars(start_s.copy(), i, scalars)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

        none = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(scatter_add_vectors(start_v.copy(), none, none, np.empty((0, 3))), start_v)
        np.testing.assert_array_equal(scatter_add_scalars(start_s.copy(), none, np.empty(0)), start_s)

    def test_momentum_conservation_all_fields(self, small_copper):
        atoms, box = small_copper
        for ff in (LennardJones(0.05, 2.3, 5.0), MorsePotential(cutoff=5.0), GuptaPotential(cutoff=5.0)):
            data = build_neighbor_data(atoms.positions, box, 5.0)
            total = ff.compute(atoms, box, data).forces.sum(axis=0)
            np.testing.assert_allclose(total, 0.0, atol=1e-9)
