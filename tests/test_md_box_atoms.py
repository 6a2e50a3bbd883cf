"""Periodic box and atom container, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Atoms, Box
from repro.units import MASSES


class TestBox:
    def test_volume_and_cubic(self):
        box = Box.cubic(10.0)
        assert box.volume == pytest.approx(1000.0)
        assert Box([1.0, 2.0, 3.0]).volume == pytest.approx(6.0)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Box([1.0, -1.0, 1.0])

    def test_infinite_periodic_length_refused(self):
        """A periodic axis wraps by its length: an infinite one would make
        ``minimum_image`` return NaN (``inf * round(d / inf)``)."""
        with pytest.raises(ValueError, match=r"along x \(periodic\) must be finite: inf"):
            Box([np.inf, 20.0, 20.0])
        with pytest.raises(ValueError, match=r"along z \(periodic\) must be finite: -inf"):
            Box([20.0, 20.0, -np.inf], (False, False, True))
        # an open axis of infinite length stays accepted
        open_box = Box(np.full(3, np.inf), (False,) * 3)
        np.testing.assert_array_equal(open_box.minimum_image([[1.0, 1.0, 1.0]]), [[1.0, 1.0, 1.0]])
        assert Box([np.inf, 20.0, 20.0], (False, True, True)).max_cutoff() == 10.0

    def test_nan_length_refused_on_any_axis(self):
        with pytest.raises(ValueError, match=r"along y \(open\) must be finite: nan"):
            Box([20.0, np.nan, 20.0], (True, False, True))
        with pytest.raises(ValueError, match=r"along z \(periodic\) must be finite: nan"):
            Box([20.0, 20.0, np.nan])

    def test_wrap_puts_positions_inside(self):
        box = Box.cubic(5.0)
        wrapped = box.wrap(np.array([[6.0, -1.0, 12.5]]))
        assert np.all(wrapped >= 0.0) and np.all(wrapped < 5.0)

    def test_wrap_respects_non_periodic_axis(self):
        box = Box(np.array([5.0, 5.0, 5.0]), periodic=(True, True, False))
        wrapped = box.wrap(np.array([[6.0, 6.0, 6.0]]))
        assert wrapped[0, 2] == pytest.approx(6.0)

    def test_minimum_image_distance(self):
        box = Box.cubic(10.0)
        d = np.linalg.norm(box.minimum_image(np.array([0.5, 0.0, 0.0]) - np.array([9.5, 0.0, 0.0])))
        assert d == pytest.approx(1.0)

    def test_max_cutoff_is_half_min_length(self):
        assert Box([10.0, 20.0, 30.0]).max_cutoff() == pytest.approx(5.0)

    @settings(max_examples=50, deadline=None)
    @given(
        coords=st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
        length=st.floats(1.0, 50.0),
    )
    def test_property_minimum_image_within_half_box(self, coords, length):
        box = Box.cubic(length)
        delta = box.minimum_image(np.array(coords))
        assert np.all(np.abs(delta) <= length / 2 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        coords=st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
        length=st.floats(1.0, 50.0),
    )
    def test_property_wrap_idempotent(self, coords, length):
        box = Box.cubic(length)
        once = box.wrap(np.array(coords))
        twice = box.wrap(once)
        np.testing.assert_allclose(once, twice, atol=1e-9)


class TestAtoms:
    def test_from_symbols_builds_type_map(self):
        atoms = Atoms.from_symbols(np.zeros((3, 3)), ["O", "H", "H"])
        assert atoms.type_names == ("O", "H")
        np.testing.assert_array_equal(atoms.types, [0, 1, 1])
        assert atoms.masses[0] == pytest.approx(MASSES["O"])
        assert atoms.n_types == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Atoms(positions=np.zeros((2, 2)), types=np.zeros(2, dtype=int), masses=np.ones(2))
        with pytest.raises(ValueError):
            Atoms(positions=np.zeros((2, 3)), types=np.zeros(3, dtype=int), masses=np.ones(2))

    @staticmethod
    def _two_atoms(**fields):
        return Atoms(positions=np.zeros((2, 3)), types=np.zeros(2, dtype=int), masses=np.ones(2), **fields)

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6)])
    def test_velocities_shape_is_refused(self, bad):
        with pytest.raises(ValueError, match=r"velocities must have shape \(n, 3\) with n = 2"):
            self._two_atoms(velocities=bad)

    @pytest.mark.parametrize("bad", [np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(6)])
    def test_forces_shape_is_refused(self, bad):
        with pytest.raises(ValueError, match=r"forces must have shape \(n, 3\) with n = 2"):
            self._two_atoms(forces=bad)

    @pytest.mark.parametrize("bad", [np.arange(3), np.arange(2).reshape(2, 1), np.array(0)])
    def test_ids_shape_is_refused(self, bad):
        with pytest.raises(ValueError, match=r"ids must have shape \(n,\) with n = 2"):
            self._two_atoms(ids=bad)

    def test_copy_is_independent(self):
        atoms = Atoms.from_symbols(np.zeros((2, 3)), ["Cu", "Cu"])
        clone = atoms.copy()
        clone.positions[0, 0] = 5.0
        assert atoms.positions[0, 0] == 0.0

    def test_select_subset(self):
        atoms = Atoms.from_symbols(np.arange(9.0).reshape(3, 3), ["O", "H", "H"])
        subset = atoms.select(atoms.types == 1)
        assert len(subset) == 2
        np.testing.assert_array_equal(subset.ids, [1, 2])

    def test_initialize_velocities_temperature_and_momentum(self):
        atoms = Atoms.from_symbols(np.zeros((500, 3)), ["Cu"] * 500)
        atoms.initialize_velocities(300.0, rng=0)
        from repro.units import temperature

        t = temperature(atoms.masses, atoms.velocities)
        assert t == pytest.approx(300.0, rel=0.15)
        momentum = (atoms.masses[:, None] * atoms.velocities).sum(axis=0)
        np.testing.assert_allclose(momentum, 0.0, atol=1e-10)

    def test_concatenate(self):
        a = Atoms.from_symbols(np.zeros((2, 3)), ["Cu", "Cu"])
        b = Atoms.from_symbols(np.ones((3, 3)), ["Cu", "Cu", "Cu"])
        merged = a.concatenate(b)
        assert len(merged) == 5

    def test_concatenate_type_map_mismatch(self):
        a = Atoms.from_symbols(np.zeros((1, 3)), ["Cu"])
        b = Atoms.from_symbols(np.zeros((1, 3)), ["O"])
        with pytest.raises(ValueError):
            a.concatenate(b)
