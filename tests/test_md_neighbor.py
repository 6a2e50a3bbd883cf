"""Neighbour-list construction: correctness and invariants."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Box, NeighborList, Simulation, copper_system, neighbor
from repro.md.forcefields import LennardJones
from repro.md.neighbor import (
    BRUTE_FORCE_THRESHOLD,
    PAIR_BLOCK_CANDIDATES,
    NeighborData,
    _axis_shifts,
    _brute_force_pairs,
    _cell_list_pairs,
    _coincident,
    build_neighbor_data,
)
from repro.parallel import DomainDecomposedSimulation


def brute_force_reference(positions, box, cutoff):
    n = len(positions)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(box.minimum_image(positions[i] - positions[j])) <= cutoff:
                pairs.add((i, j))
    return pairs


class TestNeighborData:
    def test_pairs_match_reference_small_system(self):
        atoms, box = copper_system((2, 2, 2), perturbation=0.05, rng=0)
        cutoff = 3.0
        data = build_neighbor_data(atoms.positions, box, cutoff)
        reference = brute_force_reference(atoms.positions, box, cutoff)
        found = {(int(i), int(j)) for i, j in data.pairs}
        assert found == reference

    def test_padded_list_consistent_with_pairs(self):
        atoms, box = copper_system((3, 3, 3), rng=1)
        data = build_neighbor_data(atoms.positions, box, 4.0)
        # every (i, j) pair appears in both atoms' padded rows
        for i, j in data.pairs[:200]:
            assert j in data.neighbors_of(int(i))
            assert i in data.neighbors_of(int(j))
        # counts match the number of non-padding entries
        assert np.all((data.neighbors >= 0).sum(axis=1) == data.counts)

    def test_full_list_is_symmetric(self):
        atoms, box = copper_system((3, 3, 3), perturbation=0.03, rng=2)
        data = build_neighbor_data(atoms.positions, box, 4.5)
        assert data.counts.sum() == 2 * len(data.pairs)

    def test_fcc_coordination_number(self):
        # Perfect FCC: 12 nearest neighbours within a cutoff between 1st and 2nd shell.
        atoms, box = copper_system((3, 3, 3))
        first_shell = 3.615 / np.sqrt(2.0)
        data = build_neighbor_data(atoms.positions, box, 0.5 * (first_shell + 3.615))
        assert np.all(data.counts == 12)

    def test_cell_list_agrees_with_brute_force(self):
        rng = np.random.default_rng(3)
        box = Box.cubic(20.0)
        positions = rng.uniform(0, 20.0, size=(400, 3))
        cutoff = 3.0
        bi, bj = _brute_force_pairs(positions, box, cutoff)
        ci, cj = _cell_list_pairs(positions, box, cutoff)
        brute = {(int(a), int(b)) for a, b in zip(bi, bj)}
        cell = {(int(min(a, b)), int(max(a, b))) for a, b in zip(ci, cj)}
        assert brute == cell

    def test_cutoff_exceeding_minimum_image_raises(self):
        atoms, box = copper_system((2, 2, 2))
        with pytest.raises(ValueError):
            build_neighbor_data(atoms.positions, box, 5.0)

    def test_invalid_parameters(self):
        atoms, box = copper_system((3, 3, 3))
        with pytest.raises(ValueError):
            build_neighbor_data(atoms.positions, box, -1.0)
        with pytest.raises(ValueError):
            build_neighbor_data(atoms.positions, box, 3.0, skin=-0.1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 60))
    def test_property_random_configurations_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        box = Box.cubic(8.0)
        positions = rng.uniform(0, 8.0, size=(n, 3))
        cutoff = 2.5
        data = build_neighbor_data(positions, box, cutoff)
        reference = brute_force_reference(positions, box, cutoff)
        assert {(int(i), int(j)) for i, j in data.pairs} == reference


def _pair_set(pi, pj):
    return {(int(min(a, b)), int(max(a, b))) for a, b in zip(pi, pj)}


class TestCellListBruteForceAgreement:
    """The two build strategies must agree on both sides of the threshold."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 150),
        length=st.floats(9.0, 18.0),
    )
    def test_property_random_boxes(self, seed, n, length):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, length, size=(n, 3))
        box = Box.cubic(length)
        cutoff = 2.8
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell

    def test_below_threshold_build_matches_cell_list(self):
        rng = np.random.default_rng(17)
        n = BRUTE_FORCE_THRESHOLD - 16
        box = Box.cubic(12.0)
        positions = rng.uniform(0.0, 12.0, size=(n, 3))
        cutoff = 3.0
        data = build_neighbor_data(positions, box, cutoff)  # brute-force branch
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert _pair_set(data.pairs[:, 0], data.pairs[:, 1]) == cell

    def test_above_threshold_build_matches_brute_force(self):
        rng = np.random.default_rng(18)
        n = BRUTE_FORCE_THRESHOLD + 100
        box = Box.cubic(14.0)
        positions = rng.uniform(0.0, 14.0, size=(n, 3))
        cutoff = 3.0
        data = build_neighbor_data(positions, box, cutoff)  # cell-list branch
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        assert _pair_set(data.pairs[:, 0], data.pairs[:, 1]) == brute

    def test_above_threshold_never_routes_through_brute_force(self, monkeypatch):
        """No O(N^2) path is reachable above the threshold — any geometry."""
        import repro.md.neighbor as neighbor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("O(N^2) brute-force path reached above threshold")

        monkeypatch.setattr(neighbor_module, "_brute_force_pairs", forbidden)
        rng = np.random.default_rng(19)
        n = BRUTE_FORCE_THRESHOLD + 50
        box = Box.cubic(14.0)
        data = build_neighbor_data(rng.uniform(0.0, 14.0, size=(n, 3)), box, 3.0)
        assert len(data.pairs) > 0


class TestGeneralizedStencil:
    """Slab, thin, non-cubic and mixed-periodicity boxes stay binned.

    Pre-PR, any box with fewer than 3 cells on an axis silently fell back to
    the full O(N^2) search at every size; the generalized per-axis stencil
    must keep every physical geometry on the vectorized path and still agree
    with the golden brute-force reference pair-for-pair.
    """

    def test_large_slab_never_routes_through_brute_force(self, monkeypatch):
        # 200 x 200 x 16 A slab at cutoff+skin 7.5 A: only 2 cells fit on z.
        import repro.md.neighbor as neighbor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("slab build routed through the O(N^2) fallback")

        monkeypatch.setattr(neighbor_module, "_brute_force_pairs", forbidden)
        rng = np.random.default_rng(7)
        box = Box(np.array([200.0, 200.0, 16.0]))
        positions = rng.uniform(0.0, 1.0, size=(4000, 3)) * box.lengths
        data = build_neighbor_data(positions, box, 7.0, skin=0.5)
        assert len(data.pairs) > 0
        assert data.counts.mean() > 1.0

    def test_slab_parity_with_brute_force(self):
        rng = np.random.default_rng(8)
        box = Box(np.array([60.0, 60.0, 16.0]))
        positions = rng.uniform(0.0, 1.0, size=(600, 3)) * box.lengths
        cutoff = 7.5
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell

    def test_single_cell_axis_parity(self):
        # z supports exactly one cell: every shift on that axis collapses to 0
        rng = np.random.default_rng(9)
        box = Box(np.array([40.0, 40.0, 7.0]))
        positions = rng.uniform(0.0, 1.0, size=(300, 3)) * box.lengths
        cutoff = 3.4
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 120),
        lx=st.floats(8.0, 30.0),
        ly=st.floats(8.0, 30.0),
        lz=st.floats(6.0, 30.0),
    )
    def test_property_random_non_cubic_boxes(self, seed, n, lx, ly, lz):
        rng = np.random.default_rng(seed)
        box = Box(np.array([lx, ly, lz]))
        positions = rng.uniform(0.0, 1.0, size=(n, 3)) * box.lengths
        cutoff = 0.45 * min(lx, ly, lz)
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 120),
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        lx=st.floats(5.8, 20.0),
        ly=st.floats(5.8, 20.0),
        lz=st.floats(5.8, 20.0),
    )
    def test_property_mixed_periodicity(self, seed, n, periodic, lx, ly, lz):
        # lengths down to 5.8 A at cutoff 2.8 A produce 2-cell axes, both
        # periodic (wrap-aliased one-sided shift) and non-periodic (full +-1
        # stencil required — a one-sided shift there drops diagonal pairs)
        rng = np.random.default_rng(seed)
        box = Box(np.array([lx, ly, lz]), periodic)
        # spill atoms outside the box on non-periodic axes (up to ~1.5 lengths)
        spill = np.where(np.asarray(periodic), 0.0, 1.5)
        low, high = -spill, 1.0 + spill
        positions = rng.uniform(low, high, size=(n, 3)) * box.lengths
        cutoff = 2.8
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell

    def test_non_periodic_two_cell_axis_diagonal_pairs(self):
        # Regression: a non-periodic axis with exactly 2 cells has no wrap
        # aliasing, so the stencil must keep the -1 shift — with a one-sided
        # {0, +1} set this close pair straddling the z cell boundary on a
        # diagonal (+x, -z) cell pair is silently dropped.
        box = Box(np.array([30.0, 10.0, 10.0]), (True, True, False))
        positions = np.array([[5.1, 1.0, 4.9], [4.9, 1.0, 5.1]])
        cutoff = 5.0
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        assert brute == {(0, 1)}
        assert _pair_set(*_cell_list_pairs(positions, box, cutoff)) == brute

    def test_non_periodic_slab_two_cell_axis_parity(self):
        # 60 x 60 x 10.1 open slab at search radius 5: z supports 2 cells
        rng = np.random.default_rng(21)
        box = Box(np.array([60.0, 60.0, 10.1]), (True, True, False))
        positions = rng.uniform(0.0, 1.0, size=(400, 3)) * box.lengths
        brute = _pair_set(*_brute_force_pairs(positions, box, 5.0))
        cell = _pair_set(*_cell_list_pairs(positions, box, 5.0))
        assert brute == cell
        data = build_neighbor_data(positions, box, 4.0, skin=1.0)
        assert _pair_set(data.pairs[:, 0], data.pairs[:, 1]) == brute

    def test_atoms_exactly_on_box_faces(self):
        box = Box(np.array([12.0, 15.0, 9.0]))
        lx, ly, lz = box.lengths
        # every row sits on a face; no two are periodic images of one place
        positions = np.array(
            [
                [0.0, 0.0, 0.0],
                [lx, 0.6, 0.0],  # wraps onto the first atom's cell
                [0.4, ly, lz],
                [lx, ly, 0.9],
                [0.5, 0.2, 0.1],
                [lx - 0.5, 0.3, 0.2],
                [0.25 * lx, ly, 0.5 * lz],
                [0.25 * lx + 0.4, 0.0, 0.5 * lz],
                [6.0, 7.5, 4.5],
            ]
        )
        cutoff = 2.5
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell
        assert (0, 1) in cell and (0, 3) in cell  # pairs across the x and y faces
        data = build_neighbor_data(positions, box, cutoff)
        assert _pair_set(data.pairs[:, 0], data.pairs[:, 1]) == brute
        # rows on opposite faces at the same place are one place: refused
        positions[1] = [lx, 0.0, 0.0]
        with pytest.raises(ValueError, match="position rows 0 and 1 coincide"):
            _cell_list_pairs(positions, box, cutoff)


class TestNonPeriodicClamping:
    """Non-periodic axes clamp outliers into edge cells instead of wrapping.

    Wrapping ``frac - floor(frac)`` on a non-periodic axis bins an atom more
    than one box length outside into an interior cell; with a non-wrapping
    stencil on that axis its pairs are then silently dropped.
    """

    def test_far_outlier_cluster_keeps_its_pairs(self):
        box = Box(np.array([20.0, 20.0, 15.0]), (True, True, False))
        # a cluster hovering 2+ box lengths above the cell on the open axis
        positions = np.array(
            [
                [5.0, 5.0, 33.0],
                [5.5, 5.0, 33.4],   # within cutoff of the first outlier
                [5.0, 5.5, 34.0],   # within cutoff of both
                [5.0, 5.0, -18.0],  # far below the cell
                [5.4, 5.0, -18.3],  # within cutoff of the one above
                [5.0, 5.0, 7.0],    # inside the box, isolated
            ]
        )
        cutoff = 1.5
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        assert brute == {(0, 1), (0, 2), (1, 2), (3, 4)}
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert cell == brute

    def test_straddling_the_open_boundary(self):
        # one atom just inside the top face, one just outside: wrapping the
        # outside atom to the bottom of the box would separate them
        box = Box(np.array([20.0, 20.0, 15.0]), (True, True, False))
        positions = np.array([[5.0, 5.0, 14.9], [5.0, 5.0, 15.1], [5.0, 5.0, 0.1]])
        cutoff = 1.0
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        assert brute == {(0, 1)}
        assert _pair_set(*_cell_list_pairs(positions, box, cutoff)) == brute

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 80))
    def test_property_outliers_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        box = Box(np.array([16.0, 12.0, 10.0]), (True, False, False))
        frac = rng.uniform([-0.2, -2.5, -2.5], [1.2, 3.5, 3.5], size=(n, 3))
        positions = frac * box.lengths
        cutoff = 2.5
        brute = _pair_set(*_brute_force_pairs(positions, box, cutoff))
        cell = _pair_set(*_cell_list_pairs(positions, box, cutoff))
        assert brute == cell


class TestFp64Prefilter:
    """Atoms far outside a periodic box keep their pairs.

    These translations put the coordinates where a prefilter on unwrapped
    fp32 fractions would lose its precision (the first assertion: its bound,
    ``8 |frac| 2**-23 L``, passes 5 % of the cutoff).  The binned search
    prefilters on wrapped rows, so its fp32 rounding stays that of the box;
    only the ``max_abs * 2**-52`` term of its bound, which covers the fp64
    pass on the raw coordinates, grows.  Translating a periodic box by whole
    box lengths keeps its pairs, and both searches see the same translated
    coordinates.
    """

    @pytest.mark.parametrize("cutoff", [2.6, 3.0, 3.615 / np.sqrt(2.0)], ids=["2.6", "3.0", "fcc-tie"])
    @pytest.mark.parametrize("box_lengths", [1e5, 1e6, 1e7])
    def test_far_translated_copper_matches_brute_force(self, box_lengths, cutoff):
        atoms, box = copper_system((4, 4, 4))
        positions = atoms.positions + box_lengths * box.lengths
        # the fp32 bound, 8 |frac| 2**-23 L, is past 5 % of the cutoff
        assert 8.0 * box_lengths * 2.0**-23 * box.lengths.max() > 0.05 * cutoff
        ci, cj = _cell_list_pairs(positions, box, cutoff)
        order = np.lexsort((cj, ci))
        bi, bj = _brute_force_pairs(positions, box, cutoff)
        assert len(bi) > 0
        np.testing.assert_array_equal(ci[order], bi)
        np.testing.assert_array_equal(cj[order], bj)


def _box_matrix_case(kind: str, n: int, rng):
    """One geometry of the randomized box matrix the classes above cover."""
    if kind == "cubic":
        box, cutoff = Box.cubic(float(rng.uniform(11.0, 18.0))), 2.8
        frac = rng.uniform(0.0, 1.0, size=(n, 3))
    elif kind == "slab":  # two cells on z
        box, cutoff = Box(np.array([40.0, 34.0, 16.0])), 7.5
        frac = rng.uniform(0.0, 1.0, size=(n, 3))
    elif kind == "thin":  # a single cell on z
        box, cutoff = Box(np.array([28.0, 24.0, 7.0])), 3.4
        frac = rng.uniform(0.0, 1.0, size=(n, 3))
    else:  # mixed periodicity, atoms spilling out of the open axes
        periodic = tuple(bool(flag) for flag in rng.integers(0, 2, size=3))
        box, cutoff = Box(rng.uniform(5.8, 20.0, size=3), periodic), 2.8
        spill = np.where(np.asarray(periodic), 0.0, 1.5)
        frac = rng.uniform(-spill, 1.0 + spill, size=(n, 3))
    return frac * box.lengths, box, cutoff


_BOX_KINDS = ("cubic", "slab", "thin", "mixed")
#: both sides of BRUTE_FORCE_THRESHOLD
_BOX_SIZES = (BRUTE_FORCE_THRESHOLD - 30, BRUTE_FORCE_THRESHOLD + 150)


class TestPrimaryRows:
    """``primary=mask``: ghosts are neighbours, never centres.

    The search returns exactly the pairs of the full build that touch a
    primary row — on every geometry and on both build strategies — and the
    padded table has rows for primary centres only.
    """

    @pytest.mark.parametrize("n", _BOX_SIZES)
    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_primary_pairs_are_the_full_pairs_touching_a_primary_row(self, kind, n):
        rng = np.random.default_rng([_BOX_KINDS.index(kind), n])
        for _ in range(6):
            positions, box, cutoff = _box_matrix_case(kind, n, rng)
            full = build_neighbor_data(positions, box, cutoff)
            for fraction in (0.1, 0.5, 0.9):
                mask = rng.uniform(size=n) < fraction
                data = build_neighbor_data(positions, box, cutoff, primary=mask)
                expected = {
                    (int(i), int(j)) for i, j in full.pairs if mask[i] or mask[j]
                }
                found = [(int(i), int(j)) for i, j in data.pairs]
                assert len(found) == len(set(found)), "a pair came back twice"
                assert set(found) == expected

    @pytest.mark.parametrize("n", _BOX_SIZES)
    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_no_mask_and_all_true_mask_are_the_full_build_in_order(self, kind, n):
        rng = np.random.default_rng([7, _BOX_KINDS.index(kind), n])
        for _ in range(4):
            positions, box, cutoff = _box_matrix_case(kind, n, rng)
            full = build_neighbor_data(positions, box, cutoff)
            everyone = build_neighbor_data(positions, box, cutoff, primary=np.ones(n, dtype=bool))
            np.testing.assert_array_equal(everyone.pairs, full.pairs)
            np.testing.assert_array_equal(everyone.neighbors, full.neighbors)
            np.testing.assert_array_equal(everyone.counts, full.counts)

    def test_unmasked_build_is_byte_identical_to_the_pre_mask_build(self):
        # sha256 of ``pairs`` / ``neighbors`` recorded at the commit before the
        # mask existed: serial pair order and table layout did not move
        rng = np.random.default_rng(2024)
        box = Box(np.array([22.0, 17.0, 9.5]), (True, False, True))
        positions = rng.uniform(-0.3, 1.3, size=(500, 3)) * box.lengths
        data = build_neighbor_data(positions, box, 3.1, skin=0.4)
        assert hashlib.sha256(data.pairs.tobytes()).hexdigest() == (
            "da71b4efc4b69b6761ec0e4a66d86cbf61c8450bacbebc0564aa157fbab56c18"
        )
        assert hashlib.sha256(data.neighbors.tobytes()).hexdigest() == (
            "ebf22ae0e6a885de50447883c07d1b2d5ba9dbcef0f99b42c4c0c9e573f3ae96"
        )
        atoms, cbox = copper_system((4, 4, 4), perturbation=0.05, rng=3)
        data = build_neighbor_data(atoms.positions, cbox, 5.0, skin=0.4)
        assert hashlib.sha256(data.pairs.tobytes()).hexdigest() == (
            "5da0a663d77a237b70be7ca1f3fdb476d536a20e5c364f103640c88750ec1dc1"
        )
        assert hashlib.sha256(data.neighbors.tobytes()).hexdigest() == (
            "7ddc5a39f0b97c54062d545d9c63412b0589e9b393b46b3e4c9f8e7cec3fcecb"
        )

    @pytest.mark.parametrize("n", _BOX_SIZES)
    def test_empty_mask_finds_nothing(self, n):
        # the build of a rank that owns no atom
        positions, box, cutoff = _box_matrix_case("cubic", n, np.random.default_rng(5))
        data = build_neighbor_data(positions, box, cutoff, primary=np.zeros(n, dtype=bool))
        assert data.pairs.shape == (0, 2)
        assert data.n_atoms == n
        assert data.counts.tolist() == [0] * n
        assert np.all(data.neighbors == -1)

    @pytest.mark.parametrize("n", _BOX_SIZES)
    def test_single_primary_row_gets_its_whole_environment(self, n):
        positions, box, cutoff = _box_matrix_case("cubic", n, np.random.default_rng(6))
        full = build_neighbor_data(positions, box, cutoff)
        centre = int(np.argmax(full.counts))
        mask = np.zeros(n, dtype=bool)
        mask[centre] = True
        data = build_neighbor_data(positions, box, cutoff, primary=mask)
        assert len(data.pairs) == full.counts[centre] > 0
        assert np.all((data.pairs == centre).any(axis=1))
        assert sorted(data.neighbors_of(centre)) == sorted(full.neighbors_of(centre))

    @pytest.mark.parametrize("n", _BOX_SIZES)
    def test_table_has_full_rows_for_primary_centres_and_empty_rows_otherwise(self, n):
        rng = np.random.default_rng(8)
        positions, box, cutoff = _box_matrix_case("slab", n, rng)
        full = build_neighbor_data(positions, box, cutoff)
        mask = rng.uniform(size=n) < 0.6
        data = build_neighbor_data(positions, box, cutoff, primary=mask)
        assert data.neighbors.shape[0] == n
        np.testing.assert_array_equal(data.counts, np.where(mask, full.counts, 0))
        assert np.all(data.neighbors[~mask] == -1)
        for i in np.nonzero(mask)[0]:
            assert sorted(data.neighbors_of(i)) == sorted(full.neighbors_of(i))

    def test_mask_must_have_one_entry_per_atom(self):
        atoms, box = copper_system((3, 3, 3))
        with pytest.raises(ValueError):
            build_neighbor_data(atoms.positions, box, 3.0, primary=np.ones(5, dtype=bool))


class TestBlockedSearch:
    """The binned search streams its candidates in blocks of whole entries.

    ``PAIR_BLOCK_CANDIDATES`` is a memory decision only: one entry per block,
    a small odd size and one block for everything give the same pairs in the
    same order as the default, on every geometry of the box matrix, with and
    without a primary mask, and on perfect copper FCC, where exact distance
    ties sit on the cutoff.
    """

    @staticmethod
    def _at_block_sizes(monkeypatch, build):
        default = build()
        assert len(default) > 0
        for block in (1, 7, 10**9):
            monkeypatch.setattr(neighbor, "PAIR_BLOCK_CANDIDATES", block)
            np.testing.assert_array_equal(build(), default, err_msg=f"block={block}")
        monkeypatch.undo()

    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_block_size_never_selects_pairs(self, kind, monkeypatch):
        n = BRUTE_FORCE_THRESHOLD + 150
        rng = np.random.default_rng([11, _BOX_KINDS.index(kind)])
        for _ in range(2):
            positions, box, cutoff = _box_matrix_case(kind, n, rng)
            for mask in (None, np.ones(n, dtype=bool), rng.uniform(size=n) < 0.5):
                self._at_block_sizes(
                    monkeypatch, lambda: build_neighbor_data(positions, box, cutoff, primary=mask).pairs
                )

    @pytest.mark.parametrize("search", [3.615 / np.sqrt(2.0), 3.615, 5.4])
    def test_block_size_never_selects_pairs_on_fcc_ties(self, search, monkeypatch):
        atoms, box = copper_system((4, 4, 4))
        mask = np.arange(len(atoms)) % 3 == 0
        for primary in (None, mask):
            self._at_block_sizes(
                monkeypatch, lambda: build_neighbor_data(atoms.positions, box, search, primary=primary).pairs
            )


def _oracle_bin_atoms(positions: np.ndarray, box: Box, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cell_list_pairs_oracle`'s binning, verbatim apart from its name.

    Assign every atom to a cell of an ``n_cells`` grid spanning the box.

    Returns ``(n_cells, flat_index)``.  Periodic axes wrap the fractional
    coordinate; non-periodic axes *clamp* it into [0, 1] — wrapping there
    would teleport an atom that drifted more than one box length outside
    into an interior cell and silently drop its pairs.  Clamping is a
    contraction, so two atoms within the search radius still land at most one
    cell apart and the +-1 stencil stays sufficient.
    """
    lengths = box.lengths
    n_cells = np.maximum((lengths // cutoff).astype(np.int64), 1)
    frac = positions / lengths
    periodic = np.asarray(box.periodic, dtype=bool)
    frac = np.where(periodic, frac - np.floor(frac), np.clip(frac, 0.0, 1.0))
    cell = np.clip((frac * n_cells).astype(np.int64), 0, n_cells - 1)
    flat = (cell[:, 0] * n_cells[1] + cell[:, 1]) * n_cells[2] + cell[:, 2]
    return n_cells, flat


def cell_list_pairs_oracle(
    positions: np.ndarray, box: Box, cutoff: float, primary: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of :func:`_cell_list_pairs`: the search before its
    candidate loop was rewritten (per-axis fractional fp32 prefilter, every
    survivor confirmed in fp64), kept verbatim apart from its name and the
    lint pragmas that only production code needs.

    All i<j pairs within ``cutoff`` using a vectorized binned search.

    One stable sort bins the atoms; occupied cells and the half stencil of
    cell pairs are enumerated as flat arrays; candidate pairs are expanded
    with ``repeat``/``cumsum`` and distance-filtered in blocks of about
    :data:`PAIR_BLOCK_CANDIDATES` (see the module docstring).  Cost scales
    with atoms and occupied cells — there is no Python loop over cells (only
    over blocks) and no brute-force fallback for thin or slab-shaped boxes.

    With a ``primary`` mask only pairs with at least one primary member come
    back: the sort puts each cell's primaries first, and a non-primary atom
    is expanded only onto the leading primaries of the *other* cell, so a
    candidate between two non-primary atoms never exists.  ``None`` and an
    all-true mask sort and expand identically — same pairs, same order.
    """
    n = len(positions)
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty
    positions = np.asarray(positions, dtype=np.float64)
    n_cells, flat = _oracle_bin_atoms(positions, box, cutoff)
    ny, nz = int(n_cells[1]), int(n_cells[2])
    periodic = box.periodic

    # one stable sort groups atoms by cell (primaries leading each cell's
    # run); occupied cells + extents follow from the boundaries of the sorted
    # flat indices (never the total grid)
    order = np.argsort(flat if primary is None else 2 * flat + ~primary, kind="stable")
    sorted_flat = flat[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
    occ_start = np.nonzero(boundary)[0]
    occ_flat = sorted_flat[occ_start]
    occ_count = np.diff(np.append(occ_start, n))
    occ_primary = occ_count if primary is None else np.add.reduceat(primary[order], occ_start, dtype=np.int64)
    n_occ = len(occ_flat)

    occ_cell = np.empty((n_occ, 3), dtype=np.int64)
    occ_cell[:, 2] = occ_flat % nz
    rest = occ_flat // nz
    occ_cell[:, 1] = rest % ny
    occ_cell[:, 0] = rest // ny

    # half stencil over occupied cells: (n_occ, n_shifts) neighbour cells
    sx, sy, sz = (_axis_shifts(int(v), periodic[axis]) for axis, v in enumerate(n_cells))
    shifts = np.stack(np.meshgrid(sx, sy, sz, indexing="ij"), axis=-1).reshape(-1, 3)
    neighbor_cell = occ_cell[:, None, :] + shifts[None, :, :]
    valid = np.ones(neighbor_cell.shape[:2], dtype=bool)
    for axis in range(3):
        if periodic[axis]:
            neighbor_cell[..., axis] %= n_cells[axis]
        else:
            coords = neighbor_cell[..., axis]
            valid &= (coords >= 0) & (coords < n_cells[axis])
    neighbor_flat = (
        neighbor_cell[..., 0] * ny + neighbor_cell[..., 1]
    ) * nz + neighbor_cell[..., 2]
    # each unordered cell pair is emitted once, from its lower-flat side
    valid &= neighbor_flat >= occ_flat[:, None]
    # keep only neighbour cells that are occupied
    slot = np.searchsorted(occ_flat, neighbor_flat)
    slot = np.minimum(slot, n_occ - 1)
    valid &= occ_flat[slot] == neighbor_flat

    src, _ = np.nonzero(valid)
    dst = slot[valid]
    # defensive: wrap aliasing on degenerate grids could repeat a cell pair
    _, unique_idx = np.unique(src * np.int64(n_occ) + dst, return_index=True)
    src, dst = src[unique_idx], dst[unique_idx]

    # batch-expand every cell pair into candidate atom pairs, division-free:
    # one *entry* per (cell pair, left atom); a cross-cell entry expands to
    # the part of the right cell it may pair with (all of it for a primary
    # atom, its leading primaries otherwise), a same-cell entry only to the
    # atoms after it in the sorted order (the strict triangle, cut off at the
    # last primary row), so no candidate is ever generated twice.  The
    # candidate count is known at the cell-pair level, which drops the cell
    # pairs that cannot produce one and also picks the narrowest safe index
    # dtype for the big expansion arrays.
    same_cell = src == dst
    count_a, count_b = occ_count[src], occ_count[dst]
    primary_a, primary_b = occ_primary[src], occ_primary[dst]
    per_pair = np.where(
        same_cell,
        primary_a * (primary_a - 1) // 2 + primary_a * (count_a - primary_a),
        primary_a * count_b + (count_a - primary_a) * primary_b,
    )
    total = int(per_pair.sum())
    if total == 0:
        return empty, empty
    live = per_pair > 0
    src, dst, same_cell = src[live], dst[live], same_cell[live]
    idx_dtype = np.int32 if max(total, n) < np.iinfo(np.int32).max else np.int64
    count_a, count_b, primary_a, primary_b = (
        counts[live].astype(idx_dtype) for counts in (count_a, count_b, primary_a, primary_b)
    )
    n_entries = int(count_a.sum(dtype=np.int64))

    entry_pair = np.repeat(np.arange(len(src), dtype=idx_dtype), count_a)
    entry_off = np.arange(n_entries, dtype=idx_dtype) - np.repeat(
        np.cumsum(count_a, dtype=np.int64).astype(idx_dtype) - count_a, count_a
    )
    entry_slot_i = occ_start.astype(idx_dtype)[src][entry_pair] + entry_off
    same_entry = same_cell[entry_pair]
    # how much of the right cell the entry's atom may pair with
    reach = np.where(entry_off < primary_a[entry_pair], count_b[entry_pair], primary_b[entry_pair])
    reps = np.where(same_entry, np.maximum(reach - 1 - entry_off, 0), reach)
    entry_base_j = np.where(
        same_entry, entry_slot_i + 1, occ_start.astype(idx_dtype)[dst][entry_pair]
    )

    # distance filter in sorted-row space: a reduced-precision prefilter with
    # a rigorous slack bound throws away the ~85% of candidates that are far
    # outside the cutoff at half the memory traffic, then the survivors are
    # confirmed with exactly the arithmetic of ``_brute_force_pairs`` so the
    # two strategies agree pair-for-pair even at the cutoff boundary.
    pos_sorted = np.take(positions, order, axis=0)
    lengths = box.lengths
    frac_sorted = pos_sorted * (1.0 / lengths)
    # conservative error bound for the fractional prefilter: ~4 rounding
    # steps on coordinates of magnitude ``max_abs`` (unwrapped atoms may sit
    # several box lengths outside), converted back to angstrom; the slack
    # guarantees the prefilter never drops a pair the exact pass would keep
    max_abs = max(1.0, float(np.max(np.abs(frac_sorted))))
    f32_error = 8.0 * max_abs * 2.0**-23 * float(lengths.max())
    if f32_error <= 0.05 * cutoff:
        frac = frac_sorted.astype(np.float32)
        slack = np.float32((cutoff + f32_error) * (cutoff + f32_error))
        lengths_sq = (lengths * lengths).astype(np.float32)
    else:
        # degenerate geometry (atoms astronomically far outside the box):
        # prefilter in fp64 with the matching, much smaller error bound
        f64_error = 8.0 * max_abs * 2.0**-52 * float(lengths.max())
        frac = frac_sorted
        slack = (cutoff + f64_error) ** 2
        lengths_sq = lengths * lengths
    # one contiguous column per axis: a block gathers 1-D runs, not rows
    frac_cols = [np.ascontiguousarray(frac[:, axis]) for axis in range(3)]

    # stream the candidates in blocks of whole entries, about
    # ``PAIR_BLOCK_CANDIDATES`` each, cut on the running candidate count;
    # blocks run in entry order, so the output is the same pairs in the same
    # order at any block size and no candidate-sized array ever exists
    reps_end = np.cumsum(reps, dtype=np.int64)
    block = PAIR_BLOCK_CANDIDATES
    cuts = np.searchsorted(reps_end, np.arange(block, total, block, dtype=np.int64), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n_entries])))
    found_i, found_j = [], []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        block_slot_i, block_reps = entry_slot_i[start:stop], reps[start:stop]
        n_block = int(reps_end[stop - 1]) - (int(reps_end[start - 1]) if start else 0)
        # every candidate's j-slot is its entry's base plus a within-run
        # offset; both sides expand with sequential repeats — no division
        slot_i = np.repeat(block_slot_i, block_reps)
        in_j = np.arange(n_block, dtype=idx_dtype) - np.repeat(
            (np.cumsum(block_reps, dtype=np.int64) - block_reps).astype(idx_dtype), block_reps
        )
        slot_j = np.repeat(entry_base_j[start:stop], block_reps) + in_j

        dist2 = None
        for axis, col in enumerate(frac_cols):
            # in place: one block-sized temporary per axis, summed x, y, z
            delta_frac = np.repeat(np.take(col, block_slot_i), block_reps)
            delta_frac -= np.take(col, slot_j)
            if periodic[axis]:
                delta_frac -= np.rint(delta_frac)
            delta_frac *= delta_frac
            delta_frac *= lengths_sq[axis]
            dist2 = delta_frac if dist2 is None else np.add(dist2, delta_frac, out=dist2)
        candidate_idx = np.nonzero(dist2 <= slack)[0]

        # exact confirmation, bitwise-identical to the brute-force reference
        slot_i = slot_i[candidate_idx]
        slot_j = slot_j[candidate_idx]
        delta = np.take(pos_sorted, slot_i, axis=0) - np.take(pos_sorted, slot_j, axis=0)
        delta = box.minimum_image(delta)
        exact2 = np.einsum("ij,ij->i", delta, delta)
        if not exact2.all():
            first = int(np.argmin(exact2))
            raise _coincident(order[slot_i[first]], order[slot_j[first]])
        mask = exact2 <= cutoff * cutoff
        found_i.append(np.take(order, slot_i[mask]))
        found_j.append(np.take(order, slot_j[mask]))
    gi = np.concatenate(found_i)
    gj = np.concatenate(found_j)
    return np.minimum(gi, gj).astype(np.int64), np.maximum(gi, gj).astype(np.int64)


class TestOracleParity:
    """The production search returns the oracle's pairs in the oracle's order.

    :func:`cell_list_pairs_oracle` is the search before its candidate loop
    was rewritten; the rewrite must be ``array_equal`` to it on the box
    matrix with and without a primary mask, on perfect copper FCC at three
    cutoffs that sit on exact distance ties, on copper translated far from
    its box, and on the serial and ranked Lennard-Jones benchmark
    geometries, at block sizes 1, 7 and above the candidate total.
    """

    @staticmethod
    def _assert_parity(monkeypatch, positions, box, cutoff, primary=None):
        """Assert parity at every block size; returns the oracle's pair count."""
        expected = cell_list_pairs_oracle(positions, box, cutoff, primary)
        for block in (1, 7, 10**9):
            monkeypatch.setattr(neighbor, "PAIR_BLOCK_CANDIDATES", block)
            found = _cell_list_pairs(positions, box, cutoff, primary)
            for got, want in zip(found, expected):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want, err_msg=f"block={block}")
        monkeypatch.undo()
        return len(expected[0])

    @pytest.mark.parametrize("n", _BOX_SIZES)
    @pytest.mark.parametrize("kind", _BOX_KINDS)
    def test_box_matrix(self, kind, n, monkeypatch):
        rng = np.random.default_rng([13, _BOX_KINDS.index(kind), n])
        positions, box, cutoff = _box_matrix_case(kind, n, rng)
        masks = [None, np.ones(n, dtype=bool)] + [rng.uniform(size=n) < f for f in (0.1, 0.5, 0.9)]
        assert sum(self._assert_parity(monkeypatch, positions, box, cutoff, mask) for mask in masks) > 0

    @pytest.mark.parametrize("search", [3.615 / np.sqrt(2.0), 3.615, 5.4])
    def test_fcc_ties(self, search, monkeypatch):
        atoms, box = copper_system((4, 4, 4))
        for primary in (None, np.arange(len(atoms)) % 3 == 0):
            assert self._assert_parity(monkeypatch, atoms.positions, box, search, primary) > 0

    @pytest.mark.parametrize("cutoff", [2.6, 3.0, 3.615 / np.sqrt(2.0)], ids=["2.6", "3.0", "fcc-tie"])
    @pytest.mark.parametrize("box_lengths", [1e5, 1e6, 1e7])
    def test_far_translated_copper(self, box_lengths, cutoff, monkeypatch):
        atoms, box = copper_system((4, 4, 4))
        assert self._assert_parity(monkeypatch, atoms.positions + box_lengths * box.lengths, box, cutoff) > 0

    def test_lj_serial_geometry(self, monkeypatch):
        atoms, box = copper_system((14, 14, 14), perturbation=0.05, rng=16)
        assert self._assert_parity(monkeypatch, atoms.positions, box, 5.0 + 0.4) > 0

    def test_lj_ranks_rank_geometry(self, monkeypatch):
        atoms, box = copper_system((8, 8, 8), perturbation=0.05, rng=14)
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(epsilon=0.01, sigma=2.3, cutoff=5.0),
            timestep_fs=1.0, neighbor_skin=0.4, rank_dims=(2, 1, 1), scheme="p2p",
        )
        engine.compute_forces()
        domain = engine.domains[0]
        positions, primary = domain.local_positions(), domain.primary_rows()
        for mask in (None, primary):
            assert self._assert_parity(monkeypatch, positions, box, 5.0 + 0.4, mask) > 0


class TestInfiniteOpenAxis:
    """An open axis of infinite length is binned over its atoms' extent.

    Above the brute-force threshold the search used to divide by the
    infinite length: every distance came out NaN and every pair was lost,
    with only RuntimeWarnings to show for it.
    """

    @staticmethod
    def _cluster():
        atoms, _ = copper_system((4, 4, 4), perturbation=0.05, rng=21)
        return atoms

    @pytest.mark.parametrize(
        "lengths, periodic",
        [((np.inf,) * 3, (False,) * 3), ((14.46, 14.46, np.inf), (True, True, False))],
        ids=["cluster", "slab-in-vacuum"],
    )
    def test_pairs_equal_brute_force(self, lengths, periodic):
        atoms = self._cluster()
        assert len(atoms) > BRUTE_FORCE_THRESHOLD
        box = Box(np.array(lengths), periodic)
        search = 4.5
        brute = _pair_set(*_brute_force_pairs(atoms.positions, box, search))
        assert len(brute) > 0
        mask = np.random.default_rng(22).uniform(size=len(atoms)) < 0.4
        for primary in (None, mask):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = build_neighbor_data(atoms.positions, box, 4.0, skin=0.5, primary=primary)
            expected = brute if primary is None else {(i, j) for i, j in brute if mask[i] or mask[j]}
            assert _pair_set(data.pairs[:, 0], data.pairs[:, 1]) == expected

    def test_lennard_jones_matches_a_large_finite_open_box(self):
        results = []
        for length in (np.inf, 1e4):
            box = Box(np.full(3, length), (False,) * 3)
            sim = Simulation(self._cluster(), box, LennardJones(0.4, 2.3, 5.0), timestep_fs=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                energy = sim.compute_forces()
            results.append((energy, sim.atoms.forces.copy(), len(sim.neighbor_list.data.pairs)))
        (energy, forces, n_pairs), (finite_energy, finite_forces, finite_pairs) = results
        assert n_pairs == finite_pairs > 0
        assert energy < 0.0
        np.testing.assert_allclose(energy, finite_energy, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(forces, finite_forces, rtol=1e-12, atol=1e-12 * np.abs(finite_forces).max())


class TestNonFinitePositions:
    """A NaN or inf coordinate fails the build loudly, naming the row."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_cells", [(2, 2, 2), (4, 4, 4)])  # brute force and binned
    def test_build_names_the_first_non_finite_row(self, bad, n_cells):
        atoms, box = copper_system(n_cells, perturbation=0.05, rng=12)
        positions = atoms.positions.copy()
        positions[17, 1] = bad
        positions[23, 0] = bad
        with pytest.raises(ValueError, match="row 17 is not finite"):
            build_neighbor_data(positions, box, 3.0, skin=0.4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_simulation_refuses_a_non_finite_start(self, bad):
        from repro.md import Simulation

        atoms, box = copper_system((4, 4, 4), perturbation=0.05, rng=13)
        atoms.positions[40, 2] = bad
        with pytest.raises(ValueError, match="position row 40 is not finite"):
            Simulation(atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0, neighbor_skin=0.4)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # wrapping an inf row
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_simulation_stops_at_the_rebuild_after_a_row_goes_non_finite(self, bad):
        # a non-finite displacement counts as stale, so the very next step
        # rebuilds and the build names the row — no rebuild_every wait
        from repro.md import Simulation

        atoms, box = copper_system((4, 4, 4), perturbation=0.05, rng=14)
        atoms.initialize_velocities(300.0, rng=15)
        sim = Simulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=1000
        )
        sim.run(2)
        builds = sim.neighbor_list.n_builds
        atoms.velocities[63, 0] = bad
        with pytest.raises(ValueError, match="row 63 is not finite"):
            sim.run(1)
        assert sim.neighbor_list.n_builds == builds


class TestCoincidentPositions:
    """Two rows at the same place fail the build loudly, naming both rows."""

    @pytest.mark.parametrize("n_cells", [(2, 2, 2), (4, 4, 4)])  # brute force and binned
    def test_build_names_both_coincident_rows(self, n_cells):
        atoms, box = copper_system(n_cells, perturbation=0.05, rng=16)
        positions = atoms.positions.copy()
        positions[20] = positions[5]
        with pytest.raises(ValueError, match="position rows 5 and 20 coincide"):
            build_neighbor_data(positions, box, 3.0, skin=0.4)

    def test_both_branches_of_the_threshold_are_covered(self):
        assert len(copper_system((2, 2, 2))[0]) <= BRUTE_FORCE_THRESHOLD < len(copper_system((4, 4, 4))[0])

    @pytest.mark.parametrize("n_cells", [(2, 2, 2), (4, 4, 4)])
    def test_periodic_images_at_zero_and_box_length_coincide(self, n_cells):
        atoms, box = copper_system(n_cells, perturbation=0.05, rng=17)
        positions = atoms.positions.copy()
        positions[3] = [0.0, 1.1, 2.3]
        positions[30] = [box.lengths[0], 1.1, 2.3]
        with pytest.raises(ValueError, match="position rows 3 and 30 coincide"):
            build_neighbor_data(positions, box, 3.0, skin=0.4)
        # on an open axis the two rows are a box length apart
        open_x = Box(box.lengths, (False, True, True))
        build_neighbor_data(positions, open_x, 3.0, skin=0.4)

    def test_lennard_jones_simulation_refuses_coincident_atoms(self):
        from repro.md import Atoms, Simulation

        atoms = Atoms.from_symbols(np.ones((2, 3)), ["Cu", "Cu"])
        sim = Simulation(atoms, Box.cubic(20.0, periodic=False), LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0)
        with pytest.raises(ValueError, match="position rows 0 and 1 coincide"):
            sim.run(1)


class TestLazyTable:
    """The padded table is derived from the pairs on first read, once."""

    def test_build_produces_pairs_only_until_the_table_is_read(self):
        atoms, box = copper_system((3, 3, 3), perturbation=0.03, rng=9)
        data = build_neighbor_data(atoms.positions, box, 4.0)
        assert not data.has_table
        assert data.n_atoms == len(atoms)  # answering this builds nothing
        assert not data.has_table
        table, counts = data.neighbors, data.counts
        assert data.has_table
        assert data.neighbors is table and data.counts is counts  # cached, not re-derived
        assert data.max_neighbors == table.shape[1]

    def test_a_given_table_is_kept_as_is(self):
        neighbors = np.array([[1, -1], [0, -1], [-1, -1]])
        counts = np.array([1, 1, 0])
        data = NeighborData(
            neighbors=neighbors, counts=counts, pairs=np.empty((0, 2), dtype=np.int64), cutoff=3.0, skin=0.5
        )
        assert data.has_table and data.n_atoms == 3
        assert data.neighbors is neighbors and data.counts is counts

    def test_table_and_counts_come_together(self):
        pairs = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            NeighborData(pairs=pairs, cutoff=3.0, skin=0.0, neighbors=np.full((2, 1), -1))
        with pytest.raises(ValueError):
            NeighborData(pairs=pairs, cutoff=3.0, skin=0.0)  # neither a table nor n_atoms

    def test_serial_lj_run_never_builds_a_table(self):
        from repro.md import Simulation

        atoms, box = copper_system((4, 4, 4), perturbation=0.05, rng=10)
        atoms.initialize_velocities(300.0, rng=11)
        sim = Simulation(
            atoms, box, LennardJones(0.05, 2.3, 5.0), timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=3
        )
        built = []
        build = sim.neighbor_list.build
        sim.neighbor_list.build = lambda *args: built.append(build(*args)) or built[-1]
        sim.run(10)
        assert len(built) >= 3
        assert not any(data.has_table for data in built)


class TestMDInvariants:
    """Physics invariants of forces built on top of the neighbour lists."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_forces_sum_to_zero(self, seed):
        atoms, box = copper_system((2, 2, 2), perturbation=0.12, rng=seed)
        lj = LennardJones(epsilon=0.4, sigma=2.3, cutoff=3.5)
        data = build_neighbor_data(atoms.positions, box, lj.cutoff)
        result = lj.compute(atoms, box, data)
        np.testing.assert_allclose(result.forces.sum(axis=0), np.zeros(3), atol=1.0e-10)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shift=st.tuples(
            st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)
        ),
    )
    def test_energy_translation_invariance(self, seed, shift):
        atoms, box = copper_system((2, 2, 2), perturbation=0.10, rng=seed)
        lj = LennardJones(epsilon=0.4, sigma=2.3, cutoff=3.5)
        data = build_neighbor_data(atoms.positions, box, lj.cutoff)
        energy = lj.compute(atoms, box, data).energy

        moved = atoms.copy()
        moved.positions = box.wrap(moved.positions + np.asarray(shift))
        moved_data = build_neighbor_data(moved.positions, box, lj.cutoff)
        assert abs(lj.compute(moved, box, moved_data).energy - energy) < 1.0e-9


class TestNeighborList:
    def test_skin_avoids_rebuild_for_small_moves(self):
        atoms, box = copper_system((3, 3, 3), rng=4)
        nlist = NeighborList(cutoff=4.0, skin=1.0, rebuild_every=1000)
        nlist.build(atoms, box)
        atoms.positions += 0.1  # well below skin/2
        _, rebuilt = nlist.maybe_rebuild(atoms, box)
        assert not rebuilt
        atoms.positions += 2.0
        _, rebuilt = nlist.maybe_rebuild(atoms, box)
        assert rebuilt

    def test_rebuild_every_forces_refresh(self):
        atoms, box = copper_system((3, 3, 3), rng=5)
        nlist = NeighborList(cutoff=4.0, skin=1.0, rebuild_every=5)
        nlist.build(atoms, box)
        rebuilds = 0
        for _ in range(11):
            _, rebuilt = nlist.maybe_rebuild(atoms, box)
            rebuilds += int(rebuilt)
        assert rebuilds == 2
        assert nlist.n_builds == 3

    def test_atom_count_change_triggers_rebuild(self):
        atoms, box = copper_system((3, 3, 3), rng=6)
        nlist = NeighborList(cutoff=4.0, skin=1.0)
        nlist.build(atoms, box)
        smaller = atoms.select(np.arange(len(atoms) - 1))
        assert nlist.needs_rebuild(smaller, box)

    def test_build_seconds_accumulates_only_on_builds(self):
        atoms, box = copper_system((3, 3, 3), rng=7)
        nlist = NeighborList(cutoff=4.0, skin=1.0, rebuild_every=1000)
        assert nlist.build_seconds == 0.0
        nlist.build(atoms, box)
        after_first = nlist.build_seconds
        assert after_first > 0.0
        _, rebuilt = nlist.maybe_rebuild(atoms, box)  # fresh list: no rebuild
        assert not rebuilt
        assert nlist.build_seconds == after_first
        nlist.build(atoms, box)
        assert nlist.build_seconds > after_first
