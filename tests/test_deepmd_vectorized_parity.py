"""Reference-parity harness: the vectorized Deep Potential inference hot path
is pinned to the scalar (per-atom loop) golden implementation.

Coverage:

* environment matrices — vectorized :func:`build_local_environment` vs the
  scalar :func:`build_local_environment_scalar`, exact to the bit,
* descriptors, per-atom energies, forces and the virial — batched
  :meth:`DeepPotential.evaluate` vs :func:`evaluate_scalar`, to 1e-10 in
  double precision,
* the documented mixed-precision tolerances (MIX-fp32 / MIX-fp16),
* edge cases: an atom with zero neighbours, a fully used padding row, a
  padding budget smaller than the true neighbour count, exact distance ties
  (a perfect lattice), a ghost-masked table, a 0-atom system and a
  ``hypothesis`` sweep over small random systems,

across >= 5 random seeds on both benchmark chemistries (water and copper).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.envmat import build_local_environment
from repro.deepmd.precision import MIX_FP16, MIX_FP32
from repro.md import Box, copper_system, water_system
from repro.md.atoms import Atoms
from repro.md.neighbor import NeighborData, build_neighbor_data
from repro.md.workspace import Workspace
from repro.reference.scalar import (
    atom_raw_descriptor,
    build_local_environment_scalar,
    evaluate_scalar,
)
from repro.serving import pack_systems

SEEDS = [0, 1, 2, 3, 4]

#: Double-precision parity bound between the batched and scalar paths.
DOUBLE_ATOL = 1.0e-10
#: Documented single-precision (MIX-fp32) deviation bounds vs the double
#: scalar reference (measured ~5e-9 forces / ~1e-7 energies; ~100x margin).
FP32_FORCE_ATOL = 1.0e-6
FP32_ENERGY_ATOL = 1.0e-5
#: Documented MIX-fp16 bounds (measured ~1e-5 forces / ~2e-4 energies).
FP16_FORCE_ATOL = 1.0e-3
FP16_ENERGY_ATOL = 1.0e-2
#: Compressed-path MIX-fp32 force bound vs the *same-path* fp64 golden
#: (measured ~7e-7: the fp32 rounding of the packed Hermite nodes dominates
#: over the GEMM rounding).  The compressed reference is the fp64 compressed
#: evaluate — the tabulation error itself is pinned separately by
#: ``tests/test_deepmd_compression.py`` and can exceed these bounds wherever
#: s leaves the tabulated range (constant extrapolation), which is a table
#: property, not a precision one.
COMPRESSED_FP32_FORCE_ATOL = 5.0e-6

ENV_FIELDS = (
    "R",
    "displacements",
    "distances",
    "s",
    "ds_dr",
    "mask",
    "neighbor_indices",
    "neighbor_types",
    "types",
)


def make_system(kind: str, seed: int):
    """A small periodic system plus cutoffs that respect its minimum image."""
    if kind == "water":
        atoms, box, _ = water_system(32, rng=seed)
        return atoms, box, 4.2, 3.4
    atoms, box = copper_system((2, 2, 2), perturbation=0.10, rng=seed)
    return atoms, box, 3.4, 2.8


def make_model(kind: str, seed: int, cutoff: float, cutoff_smooth: float, max_neighbors: int = 64):
    """A tiny untrained model with non-trivial stats and biases."""
    type_names = ("O", "H") if kind == "water" else ("Cu",)
    config = DeepPotentialConfig(
        type_names=type_names,
        cutoff=cutoff,
        cutoff_smooth=cutoff_smooth,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=max_neighbors,
        seed=seed,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(1000 + seed)
    n_types = config.n_types
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(n_types, config.descriptor_dim)),
        0.5 + rng.random((n_types, config.descriptor_dim)),
    )
    model.set_energy_bias(rng.normal(size=n_types))
    return model


def assert_env_equal(env_a, env_b):
    for name in ENV_FIELDS:
        np.testing.assert_array_equal(
            getattr(env_a, name), getattr(env_b, name), err_msg=f"field {name}"
        )


class TestEnvironmentMatrixParity:
    @pytest.mark.parametrize("kind", ["water", "copper"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_vectorized_matches_scalar_exactly(self, kind, seed):
        atoms, box, cutoff, smooth = make_system(kind, seed)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff, skin=0.2)
        self._assert_matches_scalar(atoms, box, neighbors, cutoff, smooth, (None, 64, 8))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_padding_wider_than_neighbor_table(self, seed):
        atoms, box, cutoff, smooth = make_system("copper", seed)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        wide = neighbors.max_neighbors + 17
        env_vec = build_local_environment(atoms, box, neighbors, cutoff, smooth, max_neighbors=wide)
        env_ref = build_local_environment_scalar(atoms, box, neighbors, cutoff, smooth, max_neighbors=wide)
        assert_env_equal(env_vec, env_ref)
        # the extra slots are pure padding
        assert np.all(env_vec.mask[:, neighbors.max_neighbors:] == 0.0)


    @staticmethod
    def _assert_matches_scalar(atoms, box, neighbors, cutoff, smooth, budgets):
        for max_nei in budgets:
            env_vec = build_local_environment(atoms, box, neighbors, cutoff, smooth, max_neighbors=max_nei)
            env_ref = build_local_environment_scalar(atoms, box, neighbors, cutoff, smooth, max_neighbors=max_nei)
            assert_env_equal(env_vec, env_ref)

    def test_exact_distance_ties_fall_back_to_slot_order(self):
        """A perfect lattice: every shell is one big exact tie, with and
        without the budget pass cutting through the middle of a shell."""
        atoms, box = copper_system((3, 3, 3), perturbation=0.0)
        cutoff, smooth = 4.2, 3.4
        neighbors = build_neighbor_data(atoms.positions, box, cutoff, skin=0.2)
        probe = build_local_environment(atoms, box, neighbors, cutoff, smooth)
        shells = np.unique(probe.distances[0][probe.mask[0] > 0.0])
        assert len(shells) < probe.neighbor_counts()[0]  # ties really are exact
        self._assert_matches_scalar(atoms, box, neighbors, cutoff, smooth, (None, 64, 8, 3))

    def test_ghost_masked_table_and_empty_system(self):
        """The ``dp_ranks`` shape — most rows masked to ``-1`` (ghosts the
        rank does not evaluate), pad fraction ~0.8 — and a 0-atom system."""
        atoms, box, cutoff, smooth = make_system("water", 5)
        full = build_neighbor_data(atoms.positions, box, cutoff, skin=0.2)
        neighbors, counts = full.neighbors.copy(), full.counts.copy()
        n_owned = len(atoms) * 2 // 5
        neighbors[n_owned:] = -1
        counts[n_owned:] = 0
        masked = NeighborData(
            neighbors=neighbors, counts=counts, pairs=np.empty((0, 2), dtype=np.int64),
            cutoff=full.cutoff, skin=full.skin,
        )
        env = build_local_environment(atoms, box, masked, cutoff, smooth, max_neighbors=64)
        assert 0.7 < 1.0 - env.mask.mean() < 0.9
        assert not env.mask[n_owned:].any() and np.all(env.neighbor_indices[n_owned:] == -1)
        self._assert_matches_scalar(atoms, box, masked, cutoff, smooth, (None, 64, 8))

        empty = Atoms(positions=np.zeros((0, 3)), types=np.zeros(0, dtype=np.int64), masses=np.zeros(0))
        none = build_neighbor_data(empty.positions, box, cutoff)
        self._assert_matches_scalar(empty, box, none, cutoff, smooth, (None, 4))
        assert build_local_environment(empty, box, none, cutoff, smooth, max_neighbors=4).R.shape == (0, 4, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 40),
        n_types=st.integers(1, 3),
        max_nei=st.one_of(st.none(), st.integers(1, 24)),
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        on_lattice=st.booleans(),
    )
    def test_property_random_systems_match_scalar(self, seed, n, n_types, max_nei, periodic, on_lattice):
        rng = np.random.default_rng(seed)
        box = Box(np.array([7.0, 8.0, 9.0]), periodic)
        if on_lattice:
            # distinct coarse grid sites: exact distance ties (two atoms at
            # one site are refused by the neighbour build)
            sites = rng.choice(125, size=n, replace=False)
            positions = np.stack(np.unravel_index(sites, (5, 5, 5)), axis=1) * 1.5
        else:
            positions = rng.uniform(0.0, 1.0, size=(n, 3)) * box.lengths
        atoms = Atoms(positions=positions, types=rng.integers(0, n_types, size=n), masses=np.ones(n))
        cutoff, smooth = 3.0, 2.2
        neighbors = build_neighbor_data(positions, box, cutoff, skin=float(rng.choice([0.0, 0.4])))
        self._assert_matches_scalar(atoms, box, neighbors, cutoff, smooth, (max_nei,))


class TestInferenceParity:
    @pytest.mark.parametrize("kind", ["water", "copper"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_double_precision_parity(self, kind, seed):
        atoms, box, cutoff, smooth = make_system(kind, seed)
        model = make_model(kind, seed, cutoff, smooth)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        out_vec = model.evaluate(atoms, box, neighbors)
        out_ref = evaluate_scalar(model, atoms, box, neighbors)
        np.testing.assert_allclose(
            out_vec.per_atom_energy, out_ref.per_atom_energy, rtol=0.0, atol=DOUBLE_ATOL
        )
        np.testing.assert_allclose(out_vec.forces, out_ref.forces, rtol=0.0, atol=DOUBLE_ATOL)
        np.testing.assert_allclose(out_vec.virial, out_ref.virial, rtol=0.0, atol=DOUBLE_ATOL)
        assert abs(out_vec.energy - out_ref.energy) < DOUBLE_ATOL * len(atoms)

    @pytest.mark.parametrize("kind", ["water", "copper"])
    def test_descriptor_parity(self, kind):
        seed = 11
        atoms, box, cutoff, smooth = make_system(kind, seed)
        model = make_model(kind, seed, cutoff, smooth)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        env = model.build_environment(atoms, box, neighbors)
        for center_type in range(model.n_types):
            batched = model.compute_raw_descriptors(env, center_type)
            idx = np.nonzero(env.types == center_type)[0]
            for row, i in enumerate(idx):
                scalar = atom_raw_descriptor(model, env, int(i))
                np.testing.assert_allclose(batched[row], scalar, rtol=0.0, atol=DOUBLE_ATOL)

    @pytest.mark.parametrize("compressed", [False, True], ids=["uncompressed", "compressed"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_precision_documented_tolerances(self, seed, compressed):
        """MIX policies vs the fp64 golden of the *same* inference path.

        Uncompressed mixed runs are pinned to the scalar golden reference;
        compressed mixed runs are pinned to the fp64 compressed evaluate, so
        the bound isolates the precision error from the (separately pinned)
        tabulation error.
        """
        atoms, box, cutoff, smooth = make_system("water", seed)
        model = make_model("water", seed, cutoff, smooth)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        if compressed:
            out_ref = model.evaluate(atoms, box, neighbors, compressed=True)
        else:
            out_ref = evaluate_scalar(model, atoms, box, neighbors)
        fp32_force_atol = COMPRESSED_FP32_FORCE_ATOL if compressed else FP32_FORCE_ATOL
        for policy, force_atol, energy_atol in (
            (MIX_FP32, fp32_force_atol, FP32_ENERGY_ATOL),
            (MIX_FP16, FP16_FORCE_ATOL, FP16_ENERGY_ATOL),
        ):
            out = model.evaluate(atoms, box, neighbors, precision=policy, compressed=compressed)
            np.testing.assert_allclose(out.forces, out_ref.forces, rtol=0.0, atol=force_atol)
            np.testing.assert_allclose(
                out.per_atom_energy, out_ref.per_atom_energy, rtol=0.0, atol=energy_atol
            )

    @pytest.mark.parametrize("kind", ["water", "copper"])
    def test_newton_third_law_and_translation_invariance(self, kind):
        seed = 3
        atoms, box, cutoff, smooth = make_system(kind, seed)
        model = make_model(kind, seed, cutoff, smooth)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        out = model.evaluate(atoms, box, neighbors)
        np.testing.assert_allclose(out.forces.sum(axis=0), np.zeros(3), atol=1.0e-9)

        shifted = atoms.copy()
        shifted.positions = box.wrap(shifted.positions + np.array([1.3, -0.7, 2.1]))
        neighbors_shifted = build_neighbor_data(shifted.positions, box, cutoff)
        out_shifted = model.evaluate(shifted, box, neighbors_shifted)
        assert abs(out.energy - out_shifted.energy) < 1.0e-8


class TestPairStyleAndSimulationThreading:
    """The vectorized path is the one path the MD stack drives; the scalar
    golden is a reference function the pair style is pinned against."""

    def test_pair_style_paths_agree(self):
        import inspect

        from repro.deepmd import AccuracyWarning, DeepPotentialForceField

        atoms, box, cutoff, smooth = make_system("copper", 5)
        model = make_model("copper", 5, cutoff, smooth)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)

        fast = DeepPotentialForceField(model)
        out_fast = fast.compute(atoms, box, neighbors)
        out_golden = evaluate_scalar(model, atoms, box, neighbors)
        np.testing.assert_allclose(out_fast.forces, out_golden.forces, rtol=0.0, atol=DOUBLE_ATOL)
        np.testing.assert_allclose(out_fast.virial, out_golden.virial, rtol=0.0, atol=DOUBLE_ATOL)
        assert out_fast.virial is not None

        # one evaluator: no option selects another path
        assert list(inspect.signature(DeepPotentialForceField).parameters) == [
            "model", "precision", "gemm_backend", "compressed", "compression_points",
        ]
        assert not {"path", "framework"} & set(fast.describe())

    def test_neighbor_budget_overflow_warns_once_per_force_field(self):
        import warnings

        from repro.deepmd import AccuracyWarning, DeepPotentialForceField

        atoms, box, cutoff, smooth = make_system("copper", 5)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        densest = int(build_local_environment(atoms, box, neighbors, cutoff, smooth).neighbor_counts().max())

        tight = make_model("copper", 5, cutoff, smooth, max_neighbors=densest - 1)
        for compressed in (False, True):  # one warning per force field, not per model or per step
            force_field = DeepPotentialForceField(tight, compressed=compressed)
            with pytest.warns(AccuracyWarning, match=rf"{densest} neighbours .* max_neighbors={densest - 1}") as caught:
                force_field.compute(atoms, box, neighbors)
                force_field.compute(atoms, box, neighbors, workspace=Workspace())
            assert len(caught) == 1

        exact_fit = DeepPotentialForceField(make_model("copper", 5, cutoff, smooth, max_neighbors=densest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact_fit.compute(atoms, box, neighbors)
            # deliberate truncation below the pair style stays quiet
            build_local_environment(atoms, box, neighbors, cutoff, smooth, max_neighbors=3)

    def test_table_clamp_warns_once_per_compressed_force_field(self):
        """A pair inside ``compression_min_distance`` drives s(r) past the
        table's ``s_max``: the compressed pair style says so once instead of
        silently clamping; the exact pair style and a normal box stay quiet."""
        import warnings

        from repro.deepmd import AccuracyWarning, DeepPotentialForceField

        atoms, box, cutoff, smooth = make_system("water", 0)
        model = make_model("water", 0, cutoff, smooth)
        squeezed = atoms.copy()
        squeezed.positions[1] = squeezed.positions[0] + np.array([0.4, 0.0, 0.0])  # an O-H pair at 0.4 A

        force_field = DeepPotentialForceField(model, compressed=True)
        assert 1.0 / 0.4 > force_field._table.s_max
        with pytest.warns(AccuracyWarning, match=r"closer than compression_min_distance=0\.5 A") as caught:
            for _ in range(2):
                force_field.compute(squeezed, box, build_neighbor_data(squeezed.positions, box, cutoff))
        assert len(caught) == 1

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            neighbors = build_neighbor_data(atoms.positions, box, cutoff)
            DeepPotentialForceField(model, compressed=True).compute(atoms, box, neighbors)
            # no table, nothing to clamp: the exact path reads no s_max
            squeezed_neighbors = build_neighbor_data(squeezed.positions, box, cutoff)
            DeepPotentialForceField(model).compute(squeezed, box, squeezed_neighbors)

    def test_simulation_records_inference_path_and_virial(self):
        from repro.deepmd import DeepPotentialForceField
        from repro.md.simulation import Simulation

        atoms, box, cutoff, smooth = make_system("copper", 6)
        model = make_model("copper", 6, cutoff, smooth)
        sim = Simulation(
            atoms=atoms,
            box=box,
            force_field=DeepPotentialForceField(model),
            timestep_fs=0.5,
            neighbor_skin=0.2,
        )
        report = sim.run(2)
        assert report.force_field_info == sim.force_field.describe()
        assert sim.last_virial is not None and sim.last_virial.shape == (3, 3)


class TestEdgeCases:
    def _isolated_plus_cluster(self):
        """Ten clustered atoms plus one atom out of everyone's cutoff."""
        rng = np.random.default_rng(42)
        box = Box.cubic(30.0)
        cluster = 12.0 + rng.random((10, 3)) * 3.0
        loner = np.array([[2.0, 2.0, 2.0]])
        positions = np.vstack([cluster, loner])
        types = np.zeros(len(positions), dtype=np.int64)
        atoms = Atoms(
            positions=positions,
            types=types,
            masses=np.full(len(positions), 63.5),
            type_names=("Cu",),
        )
        return atoms, box

    def test_atom_with_zero_neighbors(self):
        atoms, box = self._isolated_plus_cluster()
        cutoff, smooth = 4.5, 3.5
        model = make_model("copper", 0, cutoff, smooth, max_neighbors=16)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        env_vec = build_local_environment(atoms, box, neighbors, cutoff, smooth, max_neighbors=16)
        env_ref = build_local_environment_scalar(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=16
        )
        assert_env_equal(env_vec, env_ref)
        assert env_vec.neighbor_counts()[-1] == 0
        assert np.all(env_vec.R[-1] == 0.0)

        out_vec = model.evaluate(atoms, box, neighbors)
        out_ref = evaluate_scalar(model, atoms, box, neighbors)
        np.testing.assert_allclose(out_vec.forces, out_ref.forces, rtol=0.0, atol=DOUBLE_ATOL)
        np.testing.assert_allclose(
            out_vec.per_atom_energy, out_ref.per_atom_energy, rtol=0.0, atol=DOUBLE_ATOL
        )
        # the isolated atom feels no force and only the bias-shifted constant energy
        np.testing.assert_allclose(out_vec.forces[-1], np.zeros(3), atol=1.0e-12)
        assert np.isfinite(out_vec.energy)

    def test_full_padding_row_and_truncation(self):
        atoms, box, cutoff, smooth = make_system("copper", 8)
        neighbors = build_neighbor_data(atoms.positions, box, cutoff)
        env_probe = build_local_environment(atoms, box, neighbors, cutoff, smooth)
        densest = int(env_probe.neighbor_counts().max())
        assert densest >= 2

        # max_neighbors exactly at the densest row: at least one row has no
        # padding at all.
        env_vec = build_local_environment(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=densest
        )
        env_ref = build_local_environment_scalar(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=densest
        )
        assert_env_equal(env_vec, env_ref)
        assert np.any(env_vec.mask.sum(axis=1) == densest)

        # padding budget below the true neighbour count: both paths keep the
        # same closest neighbours.
        env_vec = build_local_environment(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=densest - 1
        )
        env_ref = build_local_environment_scalar(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=densest - 1
        )
        assert_env_equal(env_vec, env_ref)
        assert env_vec.max_neighbors == densest - 1

        model = make_model("copper", 8, cutoff, smooth, max_neighbors=densest)
        out_vec = model.evaluate(atoms, box, neighbors)
        out_ref = evaluate_scalar(model, atoms, box, neighbors)
        np.testing.assert_allclose(out_vec.forces, out_ref.forces, rtol=0.0, atol=DOUBLE_ATOL)


class TestPooledEqualsUnpooled:
    """``workspace=None`` vends fresh arrays into the *same* code a pool feeds:
    the outputs are equal to the bit, and a workspace-less result is owned by
    its caller (the pin that replaced the ``use_workspace`` knob)."""

    @pytest.mark.parametrize("compressed", [False, True], ids=["exact", "compressed"])
    @pytest.mark.parametrize("policy", ["double", "mix-fp32", "mix-fp16"])
    def test_exact_equality_and_ownership(self, policy, compressed):
        atoms, box, cutoff, cutoff_smooth = make_system("water", 0)
        model = make_model("water", 0, cutoff, cutoff_smooth)
        other, other_box, _, _ = make_system("water", 1)
        systems = [
            (a, b, build_neighbor_data(a.positions, b, cutoff))
            for a, b in ((atoms, box), (other, other_box))
        ]
        options = dict(precision=policy, compressed=compressed)

        def run(single_pool, batch_pool):
            single = model.evaluate(*systems[0], workspace=single_pool, **options)
            batch = pack_systems(model, systems, workspace=batch_pool)
            many = model.evaluate_many(
                batch.env, batch.system_of_atom, batch.offsets, workspace=batch_pool, **options
            )
            return single, batch, many

        pools = Workspace(), Workspace()
        run(*pools)
        misses = [pool.misses for pool in pools]
        pooled = run(*pools)  # fully warmed: every buffer request is a pool hit
        assert [pool.misses for pool in pools] == misses
        fresh, again = run(None, None), run(None, None)

        def arrays(result):
            single, batch, many = result
            out = {f"env.{name}": getattr(batch.env, name) for name in ENV_FIELDS}
            out.update(
                system_of_atom=batch.system_of_atom,
                offsets=batch.offsets,
                energy=np.array(single.energy),
                per_atom=single.per_atom_energy,
                forces=single.forces,
                virial=single.virial,
                many_energies=many.energies,
                many_per_atom=many.per_atom_energy,
                many_forces=many.forces,
                many_virials=many.virials,
            )
            return out

        pooled_arrays, fresh_arrays, again_arrays = arrays(pooled), arrays(fresh), arrays(again)
        for name, expected in pooled_arrays.items():
            np.testing.assert_array_equal(fresh_arrays[name], expected, err_msg=name)
            assert not np.shares_memory(fresh_arrays[name], again_arrays[name]), name


    @pytest.mark.parametrize("policy", ["double", "mix-fp32", "mix-fp16"])
    def test_block_size_never_selects_arithmetic(self, policy, monkeypatch):
        """The compressed step's centre blocks are a cache decision: one
        centre per block, the default and one block per type block give the
        same bits, pooled and unpooled — on a full box, on type blocks smaller
        than one centre block, on a centre with no in-cutoff neighbour and on
        the 0-atom serving request."""
        from repro.deepmd import compression

        atoms, box, cutoff, cutoff_smooth = make_system("water", 0)
        model = make_model("water", 0, cutoff, cutoff_smooth)
        # two waters and a lone hydrogen out of everyone's cutoff
        open_box = Box.cubic(40.0, periodic=False)
        positions = np.vstack([atoms.positions[:6] - atoms.positions[0] + 20.0, [[2.0, 2.0, 2.0]]])
        types = np.append(atoms.types[:6], 1)
        cluster = Atoms(positions=positions, types=types, masses=np.ones(7), type_names=atoms.type_names)
        empty = Atoms(positions=np.zeros((0, 3)), types=np.zeros(0, dtype=np.int64), masses=np.zeros(0))
        systems = [
            (a, b, build_neighbor_data(a.positions, b, cutoff))
            for a, b in ((atoms, box), (cluster, open_box), (empty, open_box))
        ]
        env = model.build_environment(*systems[1])
        assert env.neighbor_counts()[-1] == 0
        default_block = compression.centre_block(env.max_neighbors)
        assert np.sum(cluster.types == 0) < default_block < np.sum(atoms.types == 0)

        def run(rows, pool):
            monkeypatch.setattr(compression, "HERMITE_CHUNK_ROWS", rows)
            options = dict(precision=policy, compressed=True, workspace=pool)
            out = {}
            for name, system in zip(("box", "cluster"), systems):
                single = model.evaluate(*system, **options)
                for field in ("energy", "per_atom_energy", "forces", "virial"):
                    out[f"{name}.{field}"] = np.array(getattr(single, field))  # copied out of the pool
            batch = pack_systems(model, systems, workspace=pool)
            many = model.evaluate_many(batch.env, batch.system_of_atom, batch.offsets, **options)
            for field in ("energies", "per_atom_energy", "forces", "virials"):
                out[f"many.{field}"] = np.array(getattr(many, field))
            return out

        default_rows = compression.HERMITE_CHUNK_ROWS
        expected = run(default_rows, None)
        assert expected["many.forces"].shape == (len(atoms) + len(cluster), 3)
        pool = Workspace()  # one pool through every block size: its block buffers regrow
        for rows in (1, default_rows, 10**6):
            for workspace in (None, pool):
                for name, value in run(rows, workspace).items():
                    np.testing.assert_array_equal(value, expected[name], err_msg=f"{name} at {rows} rows")


@pytest.mark.parametrize("compressed", [False, True], ids=["exact", "compressed"])
def test_evaluate_is_evaluate_many_of_one_up_to_reduction_order(compressed):
    """ROADMAP 7 (a), closed by measurement: ``evaluate`` and a batch-of-one
    ``evaluate_many`` share every kernel, so per-atom energies and forces are
    equal to the bit — but the system energy (pairwise ``per_atom.sum()`` vs a
    sequential ``bincount``) and the virial (``bni,bnj->ij`` vs per-centre
    ``bij`` + segment sums) reduce in different orders and differ in the last
    bits (measured <= 3e-16 relative / 3.6e-15 absolute on 27/64/125-molecule
    water).  No bitwise-equal reduction exists, so the two stay two reductions
    over one kernel; equality of those two is deliberately *not* asserted."""
    atoms, box, cutoff, smooth = make_system("water", 2)
    model = make_model("water", 2, cutoff, smooth)
    system = (atoms, box, build_neighbor_data(atoms.positions, box, cutoff))
    one = model.evaluate(*system, compressed=compressed)
    batch = pack_systems(model, [system])
    many = model.evaluate_many(batch.env, batch.system_of_atom, batch.offsets, compressed=compressed)
    np.testing.assert_array_equal(many.forces, one.forces)
    np.testing.assert_array_equal(many.per_atom_energy, one.per_atom_energy)
    assert abs(many.energies[0] - one.energy) <= 1.0e-13 * max(1.0, abs(one.energy))
    np.testing.assert_allclose(many.virials[0], one.virial, rtol=0.0, atol=1.0e-13)
