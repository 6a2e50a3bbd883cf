"""The Deep Potential model: forces, symmetries, precision, compression, baseline path, reentrancy."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from blas_kernel import kernel_note

from repro.deepmd import DeepPotential, DeepPotentialConfig, DeepPotentialForceField
from repro.deepmd.precision import DOUBLE, MIX_FP16, MIX_FP32, get_policy
from repro.md import copper_system, water_system
from repro.md.atoms import Atoms
from repro.md.neighbor import build_neighbor_data
from repro.md.workspace import Workspace
from repro.reference.nnframework.session import Session
from repro.reference.deepmd import evaluate_with_framework
from repro.serving import pack_systems


def _copper_case(model, n_cells=(3, 3, 3), perturbation=0.08, rng=1):
    atoms, box = copper_system(n_cells, perturbation=perturbation, rng=rng)
    neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
    return atoms, box, neighbors


class TestConfig:
    def test_defaults_follow_paper(self):
        config = DeepPotentialConfig(type_names=("Cu",), cutoff=8.0)
        assert config.fitting_sizes == (240, 240, 240)
        assert config.embedding_sizes == (25, 50, 100)
        assert config.axis_neurons == 16
        assert config.descriptor_dim == 1600

    def test_default_smooth_cutoff_takes_the_larger_of_both_rules(self):
        # one angstrom inside the cutoff, but never below half of it
        assert DeepPotentialConfig(type_names=("Cu",), cutoff=6.0).cutoff_smooth == 5.0
        assert DeepPotentialConfig(type_names=("Cu",), cutoff=1.5).cutoff_smooth == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            DeepPotentialConfig(type_names=(), cutoff=8.0)
        with pytest.raises(ValueError):
            DeepPotentialConfig(type_names=("Cu",), cutoff=-1.0)
        with pytest.raises(ValueError):
            DeepPotentialConfig(type_names=("Cu",), cutoff=6.0, cutoff_smooth=7.0)
        with pytest.raises(ValueError):
            DeepPotentialConfig(type_names=("Cu",), cutoff=6.0, embedding_sizes=(4,), axis_neurons=8)
        # the network-shape checks fail at the config boundary and name the field
        with pytest.raises(ValueError, match="embedding_sizes"):
            DeepPotentialConfig(type_names=("Cu",), cutoff=6.0, embedding_sizes=())
        with pytest.raises(ValueError, match="axis_neurons"):
            DeepPotentialConfig(type_names=("Cu",), cutoff=6.0, axis_neurons=0)
        with pytest.raises(ValueError, match="fitting_sizes"):
            DeepPotentialConfig(type_names=("Cu",), cutoff=6.0, fitting_sizes=(8, 0))

    def test_empty_fitting_sizes_is_a_linear_fitting_net(self):
        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=4.5, embedding_sizes=(4,), axis_neurons=2, fitting_sizes=(), max_neighbors=48, seed=0
        )
        model = DeepPotential(config)
        assert [layer.weight.shape for layer in model.fast_fittings()[0].layers] == [(8, 1)]
        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=0)
        neighbors = build_neighbor_data(atoms.positions, box, config.cutoff)
        fast = model.evaluate(atoms, box, neighbors)
        framework = evaluate_with_framework(model, atoms, box, neighbors)
        np.testing.assert_allclose(fast.forces, framework.forces, atol=1e-10)

    def test_precision_policy_lookup(self):
        assert get_policy("double") is DOUBLE
        assert get_policy(MIX_FP32) is MIX_FP32
        with pytest.raises(KeyError):
            get_policy("fp8")
        assert MIX_FP16.fitting_dtypes(2) == [np.float16, np.float32]
        assert MIX_FP16.embedding_dtypes(1) == [np.float32]
        assert DOUBLE.fitting_dtypes(2) == [np.float64, np.float64]


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


_TINY = dict(cutoff=4.5, cutoff_smooth=3.5, embedding_sizes=(6, 12), axis_neurons=4, fitting_sizes=(16, 16), max_neighbors=48)

#: config, weights sha256, then (energy.hex(), sha256 of per-atom energies +
#: forces + virial) of one ``double`` evaluate, exact and compressed — recorded
#: at the commit before the model drew its weights straight into ``FastMLP``
#: (it then built framework ``MLP`` tensors and exported a copy)
_PARENT_PINS = {
    "copper": (
        dict(type_names=("Cu",), seed=0, **_TINY),
        "e18e8a52cf9041139a16f87cde9a6449b60d202d3eebfe893c15a7aedda99bd5",
        ("-0x1.1da46ed91ec1cp-3", "68f2b74e7be22c5ac2fb21eeab5463039afe21a5ec005962c255ce157f869061"),
        ("-0x1.1da46ed91eb8cp-3", "a102e1faf623c106ac8305f3ac50d3b8ae0155271e7042a36733447c2fdf62cf"),
    ),
    "water": (
        dict(type_names=("O", "H"), seed=1, **_TINY),
        "95bceed97a676d4b5c83b74bb744e7742438cf1762a6cfd73282f847d4b29582",
        ("-0x1.3e8d950ee80afp-2", "dad945d922227ab87a41536c4f77873fdc05fed7ed696ec3f4327a9459a3f37d"),
        ("-0x1.3e8d950ee8163p-2", "fe5a532487f7e446a258124d740595cb5d62a9875f3eced6bc1f1b3719483b72"),
    ),
    # the benchmark's dp_serial network on a 64-molecule box
    "dp_serial": (
        dict(type_names=("O", "H"), cutoff=6.0, embedding_sizes=(32, 64, 128), axis_neurons=8,
             fitting_sizes=(32, 32), max_neighbors=100, seed=2),
        "4e3d0c42c4616bf8f134594c58eb599c59f3c8438c23be1e0b275af4f162ddd5",
        ("0x1.f6bb9b78bde43p-3", "d54df11fb5690d607e5477fb74ca633d221b087ed6e6fce133e857fce4b923f6"),
        ("0x1.f6bb9b78bde24p-3", "07d3076e6dd95bf54404fcf28227cfc93e592008dc8a9ea9661f1af16586b3ae"),
    ),
}


class TestFrozenWeights:
    @pytest.mark.blas_bound
    @pytest.mark.parametrize("name", sorted(_PARENT_PINS))
    def test_seeded_weights_and_outputs_match_the_recorded_parent(self, name):
        kwargs, weights, exact, compressed = _PARENT_PINS[name]
        model = DeepPotential(DeepPotentialConfig(**kwargs))
        layers = [
            layer
            for nets in (model.fast_embeddings(), model.fast_fittings())
            for key in sorted(nets)
            for layer in nets[key].layers
        ]
        assert _digest(*[array for layer in layers for array in (layer.weight, layer.bias)]) == weights, kernel_note()
        if name == "copper":
            atoms, box = copper_system((3, 3, 3), perturbation=0.08, rng=1)
        else:
            atoms, box, _ = water_system(27 if name == "water" else 64, rng=2)
        neighbors = build_neighbor_data(atoms.positions, box, kwargs["cutoff"])
        for use_table, (energy, arrays) in ((False, exact), (True, compressed)):
            out = model.evaluate(atoms, box, neighbors, compressed=use_table)
            assert out.energy.hex() == energy, kernel_note()
            assert _digest(out.per_atom_energy, out.forces, out.virial) == arrays, kernel_note()

    def test_frozen_means_frozen(self, tiny_copper_model):
        """What replaced the invalidation protocol: a held kernel or table
        cannot go stale because the weights are read-only — an in-place
        update of a live model raises instead of silently diverging."""
        model = tiny_copper_model
        for nets in (model.fast_embeddings(), model.fast_fittings()):
            for net in nets.values():
                for layer in net.layers:
                    assert not any(a.flags.writeable for a in (layer.weight, layer.weight_t, layer.bias))
        with pytest.raises(ValueError):
            model.fast_embeddings()[(0, 0)].layers[0].weight[0, 0] = 1.0
        with pytest.raises(AttributeError):
            model.fast_fittings()[0].layers[0].weight = np.zeros(1)
        assert model.fast_embeddings() is model.fast_embeddings()
        assert not hasattr(model, "invalidate_kernels") and not hasattr(model, "parameters")

    def test_from_weights_takes_data_and_checks_it(self, tiny_water_model):
        model = tiny_water_model
        args = (model.descriptor_mean, model.descriptor_std, model.energy_bias)
        clone = DeepPotential.from_weights(model.config, model.fast_embeddings(), model.fast_fittings(), *args)
        assert clone.fast_embeddings()[(1, 0)] is model.fast_embeddings()[(1, 0)]
        with pytest.raises(ValueError, match="embedding_nets"):
            DeepPotential.from_weights(model.config, {(0, 0): model.fast_embeddings()[(0, 0)]}, model.fast_fittings(), *args)
        with pytest.raises(ValueError, match="fitting_nets"):
            DeepPotential.from_weights(model.config, model.fast_embeddings(), model.fast_embeddings(), *args)


class TestForces:
    def test_analytic_forces_match_finite_differences(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model)
        output = model.evaluate(atoms, box, neighbors)
        delta = 1e-5
        rng = np.random.default_rng(0)
        for i in rng.choice(len(atoms), size=3, replace=False):
            for axis in range(3):
                energies = []
                for sign in (+1, -1):
                    trial = atoms.copy()
                    trial.positions[i, axis] += sign * delta
                    trial.positions = box.wrap(trial.positions)
                    nd = build_neighbor_data(trial.positions, box, model.config.cutoff)
                    energies.append(model.evaluate(trial, box, nd).energy)
                numeric = -(energies[0] - energies[1]) / (2 * delta)
                assert output.forces[i, axis] == pytest.approx(numeric, abs=5e-8)

    def test_total_force_is_zero(self, tiny_copper_model):
        atoms, box, neighbors = _copper_case(tiny_copper_model, rng=2)
        output = tiny_copper_model.evaluate(atoms, box, neighbors)
        np.testing.assert_allclose(output.forces.sum(axis=0), 0.0, atol=1e-10)

    def test_per_atom_energy_sums_to_total(self, tiny_copper_model):
        atoms, box, neighbors = _copper_case(tiny_copper_model, rng=3)
        output = tiny_copper_model.evaluate(atoms, box, neighbors)
        assert output.per_atom_energy.sum() == pytest.approx(output.energy, rel=1e-12)

    def test_multi_type_forces_match_finite_differences(self, tiny_water_model):
        model = tiny_water_model
        atoms, box, _ = water_system(27, rng=4)
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        output = model.evaluate(atoms, box, neighbors)
        delta = 1e-5
        i, axis = 5, 1
        energies = []
        for sign in (+1, -1):
            trial = atoms.copy()
            trial.positions[i, axis] += sign * delta
            nd = build_neighbor_data(trial.positions, box, model.config.cutoff)
            energies.append(model.evaluate(trial, box, nd).energy)
        numeric = -(energies[0] - energies[1]) / (2 * delta)
        assert output.forces[i, axis] == pytest.approx(numeric, abs=5e-8)


class TestSymmetries:
    def test_translational_invariance(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=5)
        reference = model.evaluate(atoms, box, neighbors).energy
        shifted = atoms.copy()
        shifted.positions = box.wrap(shifted.positions + np.array([1.3, -0.7, 2.2]))
        nd = build_neighbor_data(shifted.positions, box, model.config.cutoff)
        assert model.evaluate(shifted, box, nd).energy == pytest.approx(reference, rel=1e-9)

    def test_permutational_invariance(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=6)
        reference = model.evaluate(atoms, box, neighbors).energy
        perm = np.random.default_rng(0).permutation(len(atoms))
        permuted = atoms.select(perm)
        nd = build_neighbor_data(permuted.positions, box, model.config.cutoff)
        assert model.evaluate(permuted, box, nd).energy == pytest.approx(reference, rel=1e-9)

    def test_rotational_invariance_cluster(self, tiny_copper_model):
        # Use an isolated cluster in a huge box so rotation does not interact
        # with the periodic images.
        model = tiny_copper_model
        rng = np.random.default_rng(7)
        from repro.md import Box

        box = Box.cubic(60.0)
        positions = 25.0 + rng.uniform(0, 4.0, size=(12, 3))
        atoms = Atoms.from_symbols(positions, ["Cu"] * 12)
        nd = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        reference = model.evaluate(atoms, box, nd).energy

        theta = 0.7
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]]
        )
        center = positions.mean(axis=0)
        rotated = (positions - center) @ rotation.T + center
        atoms_rot = Atoms.from_symbols(rotated, ["Cu"] * 12)
        nd_rot = build_neighbor_data(atoms_rot.positions, box, model.config.cutoff)
        assert model.evaluate(atoms_rot, box, nd_rot).energy == pytest.approx(reference, rel=1e-9)


class TestBaselineFrameworkPath:
    def test_framework_and_fast_paths_agree(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=8)
        fast = model.evaluate(atoms, box, neighbors)
        session = Session()
        framework = evaluate_with_framework(model, atoms, box, neighbors, session=session)
        assert framework.energy == pytest.approx(fast.energy, abs=1e-10)
        np.testing.assert_allclose(framework.forces, fast.forces, atol=1e-10)
        assert framework.used_framework and not fast.used_framework
        # one session run per centre type present
        assert session.stats.runs == 1
        assert session.stats.modeled_overhead_seconds == pytest.approx(4e-3)

    def test_framework_water_agrees_and_counts_sessions(self, tiny_water_model):
        model = tiny_water_model
        atoms, box, _ = water_system(27, rng=9)
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        session = Session()
        fast = model.evaluate(atoms, box, neighbors)
        framework = evaluate_with_framework(model, atoms, box, neighbors, session=session)
        np.testing.assert_allclose(framework.forces, fast.forces, atol=1e-10)
        assert session.stats.runs == 2  # O and H graphs


class TestReentrantEvaluation:
    """Two threads, two different systems, one shared model, the uncompressed
    path (embedding *and* fitting nets run forward + backward): a forward's
    tape belongs to the call, so every output equals the single-threaded one
    to the bit.  A tape parked on the shared net lets one thread run its
    backward over the other's activations — wrong numbers or, the systems
    having different sizes, a shape error."""

    N_CALLS = 50

    @staticmethod
    def _race(workers):
        """Run each callable ``N_CALLS`` times on its own thread, released together."""
        barrier = threading.Barrier(len(workers))

        def repeat(worker):
            barrier.wait(timeout=60)
            for _ in range(TestReentrantEvaluation.N_CALLS):
                worker()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-evaluation as often as possible
        try:
            with ThreadPoolExecutor(max_workers=len(workers)) as pool:
                for future in [pool.submit(repeat, worker) for worker in workers]:
                    future.result(timeout=300)  # re-raises a worker's failure
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _systems(model):
        systems = []
        for n_molecules, seed in ((27, 30), (30, 31), (33, 32)):
            atoms, box, _ = water_system(n_molecules, rng=seed)
            systems.append((atoms, box, build_neighbor_data(atoms.positions, box, model.config.cutoff)))
        return systems

    @pytest.mark.parametrize("policy", ["double", "mix-fp32", "mix-fp16"])
    def test_two_threads_share_one_model(self, tiny_water_model, policy):
        model = tiny_water_model
        systems = self._systems(model)

        def single(system):
            pool = Workspace()  # one per thread
            expected = model.evaluate(*system, precision=policy)

            def call():
                out = model.evaluate(*system, precision=policy, workspace=pool)
                assert out.energy == expected.energy
                np.testing.assert_array_equal(out.per_atom_energy, expected.per_atom_energy)
                np.testing.assert_array_equal(out.forces, expected.forces)
                np.testing.assert_array_equal(out.virial, expected.virial)

            return call

        def many(batch_systems):
            pool = Workspace()
            batch = pack_systems(model, batch_systems, workspace=pool)
            arguments = (batch.env, batch.system_of_atom, batch.offsets)
            expected = model.evaluate_many(*arguments, precision=policy)

            def call():
                out = model.evaluate_many(*arguments, precision=policy, workspace=pool)
                np.testing.assert_array_equal(out.energies, expected.energies)
                np.testing.assert_array_equal(out.per_atom_energy, expected.per_atom_energy)
                np.testing.assert_array_equal(out.forces, expected.forces)
                np.testing.assert_array_equal(out.virials, expected.virials)

            return call

        self._race([single(systems[0]), single(systems[1])])
        self._race([many(systems[:2]), many(systems[1:])])


class TestPrecisionAndCompression:
    def test_precision_policies_perturb_results_slightly(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=10)
        double = model.evaluate(atoms, box, neighbors, precision="double")
        fp32 = model.evaluate(atoms, box, neighbors, precision="mix-fp32")
        fp16 = model.evaluate(atoms, box, neighbors, precision="mix-fp16")
        err32 = abs(fp32.energy - double.energy) / max(abs(double.energy), 1e-12)
        err16 = abs(fp16.energy - double.energy) / max(abs(double.energy), 1e-12)
        assert err32 < 1e-4
        assert err16 < 5e-2
        assert err32 <= err16 + 1e-12

    def test_compressed_embedding_close_to_exact(self, tiny_copper_model):
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=12)
        exact = model.evaluate(atoms, box, neighbors)
        compressed = model.evaluate(atoms, box, neighbors, compressed=True)
        assert compressed.energy == pytest.approx(exact.energy, abs=5e-3)
        assert np.max(np.abs(compressed.forces - exact.forces)) < 5e-3

    def test_descriptor_stats_validation(self, tiny_copper_model):
        model = tiny_copper_model
        dim = model.config.descriptor_dim
        with pytest.raises(ValueError):
            model.set_descriptor_stats(np.zeros((1, dim + 1)), np.ones((1, dim + 1)))
        with pytest.raises(ValueError):
            model.set_descriptor_stats(np.zeros((1, dim)), np.zeros((1, dim)))
        with pytest.raises(ValueError):
            model.set_energy_bias(np.zeros(3))


class TestPairStyle:
    def test_force_field_adapter_runs_md_step(self, tiny_copper_model):
        from repro.md import Simulation

        atoms, box = copper_system((2, 2, 2), perturbation=0.02, rng=13)
        ff = DeepPotentialForceField(tiny_copper_model, precision="mix-fp32")
        # model cutoff 4.5 exceeds the 2x2x2 minimum image; use a 3x3x3 cell
        atoms, box = copper_system((3, 3, 3), perturbation=0.02, rng=13)
        atoms.initialize_velocities(50.0, rng=14)
        sim = Simulation(atoms, box, ff, timestep_fs=1.0, neighbor_skin=0.3)
        report = sim.run(3)
        assert report.n_steps == 3
        assert ff.n_evaluations >= 4  # initial forces + 3 steps
        description = ff.describe()
        assert description["precision"] == "mix-fp32"
        assert description["cutoff"] == pytest.approx(4.5)

    def test_framework_pair_style_accumulates_overhead(self, tiny_copper_model):
        """The baseline is a reference function, not a pair-style option: the
        caller's session is what accumulates the per-run overhead."""
        atoms, box = copper_system((3, 3, 3), rng=15)
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        session = Session()
        evaluate_with_framework(tiny_copper_model, atoms, box, neighbors, session=session)
        assert session.stats.runs == 1


class TestDegenerateSystems:
    """0-atom and empty-neighbour requests return well-formed outputs.

    The serving engine accepts arbitrary client systems, so the degenerate
    cases are part of the evaluate contract now (PR 9), not an accident of
    how the per-type loop falls through.
    """

    def _empty(self):
        atoms = Atoms(
            positions=np.zeros((0, 3)),
            types=np.zeros(0, dtype=np.int64),
            masses=np.zeros(0),
        )
        from repro.md.box import Box

        box = Box.cubic(10.0)
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        return atoms, box, neighbors

    def test_zero_atom_system_returns_well_formed_empty_output(self, tiny_copper_model):
        atoms, box, neighbors = self._empty()
        out = tiny_copper_model.evaluate(atoms, box, neighbors)
        assert out.energy == 0.0
        assert out.per_atom_energy.shape == (0,)
        assert out.forces.shape == (0, 3)
        assert out.virial.shape == (3, 3)
        np.testing.assert_array_equal(out.virial, 0.0)

    def test_zero_atom_system_with_workspace_and_compression(self, tiny_copper_model):
        from repro.md.workspace import Workspace

        atoms, box, neighbors = self._empty()
        ws = Workspace()
        table = tiny_copper_model.compressed_embeddings()
        for _ in range(2):  # second call exercises the warm pool
            out = tiny_copper_model.evaluate(
                atoms, box, neighbors, compressed=True, compression_table=table, workspace=ws
            )
            assert out.energy == 0.0 and out.forces.shape == (0, 3)

    def test_isolated_atoms_have_no_neighbours_and_bias_energy(self, tiny_copper_model):
        from repro.md.box import Box

        model = tiny_copper_model
        old_bias = model.energy_bias.copy()
        try:
            model.set_energy_bias(np.array([-2.5]))
            box = Box.cubic(50.0)
            # two atoms far outside each other's cutoff: every neighbour slot
            # is padding, so the energy is exactly the per-type bias
            atoms = Atoms(
                positions=np.array([[5.0, 5.0, 5.0], [40.0, 40.0, 40.0]]),
                types=np.zeros(2, dtype=np.int64),
                masses=np.full(2, 63.546),
            )
            neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
            out = model.evaluate(atoms, box, neighbors)
            np.testing.assert_allclose(out.per_atom_energy, -2.5, atol=1e-12)
            np.testing.assert_array_equal(out.forces, 0.0)
        finally:
            model.set_energy_bias(old_bias)
