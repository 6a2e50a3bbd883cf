"""Lattice and water-box builders."""

import numpy as np
import pytest

from repro.md import copper_system, fcc_lattice, water_system
from repro.md.lattice import cells_for_atom_count
from repro.md.water import water_box_length
from repro.units import CU_LATTICE_CONSTANT


class TestFCC:
    def test_atom_count_is_four_per_cell(self):
        atoms, box = fcc_lattice((3, 4, 5), 3.615)
        assert len(atoms) == 4 * 3 * 4 * 5
        np.testing.assert_allclose(box.lengths, [3 * 3.615, 4 * 3.615, 5 * 3.615])

    def test_nearest_neighbor_distance(self):
        atoms, box = copper_system((3, 3, 3))
        # FCC nearest neighbour distance = a / sqrt(2)
        delta = box.minimum_image(atoms.positions[1:] - atoms.positions[0])
        dmin = np.min(np.linalg.norm(delta, axis=1))
        assert dmin == pytest.approx(CU_LATTICE_CONSTANT / np.sqrt(2.0), rel=1e-6)

    def test_density_matches_copper(self):
        atoms, box = copper_system((4, 4, 4))
        density = len(atoms) / box.volume
        assert density == pytest.approx(4.0 / CU_LATTICE_CONSTANT ** 3, rel=1e-9)

    def test_perturbation_moves_atoms(self):
        ideal, _ = copper_system((2, 2, 2))
        perturbed, _ = copper_system((2, 2, 2), perturbation=0.05, rng=0)
        assert not np.allclose(ideal.positions, perturbed.positions)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fcc_lattice((0, 1, 1), 3.615)
        with pytest.raises(ValueError):
            fcc_lattice((1, 1, 1), -1.0)

    def test_cells_for_atom_count_reaches_target(self):
        cells = cells_for_atom_count(540_000)
        total = 4 * cells[0] * cells[1] * cells[2]
        assert total >= 540_000
        assert total <= 540_000 * 1.05  # within 5 %

    def test_cells_for_atom_count_validation(self):
        with pytest.raises(ValueError):
            cells_for_atom_count(0)


class TestWater:
    def test_water_system_composition(self):
        atoms, box, topology = water_system(27, rng=0)
        assert len(atoms) == 81
        assert atoms.type_names == ("O", "H")
        np.testing.assert_array_equal(np.bincount(atoms.types), [27, 54])
        np.testing.assert_array_equal(np.unique(topology.molecules), np.arange(27))
        assert topology.bonds.shape == (54, 2)
        assert topology.angles.shape == (27, 3)

    def test_water_density_close_to_experimental(self):
        atoms, box, _ = water_system(64, rng=1)
        from repro.units import AVOGADRO, MASSES, WATER_DENSITY

        mass_g = 64 * (MASSES["O"] + 2 * MASSES["H"]) / AVOGADRO
        density = mass_g / (box.volume * 1e-24)
        assert density == pytest.approx(WATER_DENSITY, rel=1e-6)

    def test_oh_bond_lengths_near_one_angstrom(self):
        atoms, box, topology = water_system(27, rng=2)
        delta = box.minimum_image(
            atoms.positions[topology.bonds[:, 0]] - atoms.positions[topology.bonds[:, 1]]
        )
        lengths = np.linalg.norm(delta, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-6)

    def test_molecules_do_not_overlap_badly(self):
        atoms, box, _ = water_system(64, rng=3)
        oxygens = atoms.positions[atoms.types == 0]
        delta = box.minimum_image(oxygens[:, None, :] - oxygens[None, :, :])
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 1.5  # oxygens at least 1.5 A apart on the jittered grid

    def test_box_length_validation(self):
        with pytest.raises(ValueError):
            water_box_length(0)
