"""Reference data generation and training of the Deep Potential."""

import hashlib

import numpy as np
import pytest

import repro.deepmd
from repro.deepmd import DeepPotential, DeepPotentialConfig, init_nets
from repro.deepmd.compression import TabulatedEmbeddingSet
from repro.md.neighbor import build_neighbor_data
from repro.training import (
    ReferenceDataset,
    Trainer,
    energy_rmse,
    generate_copper_dataset,
    generate_water_dataset,
)


class TestReferenceData:
    def test_copper_dataset_contents(self):
        dataset = generate_copper_dataset(n_frames=3, n_cells=(2, 2, 2), cutoff=3.6, rng=0)
        assert len(dataset) == 3
        frame = dataset.frames[0]
        assert frame.per_atom_energy.shape == (32,)
        assert frame.forces.shape == (32, 3)
        assert frame.per_atom_energy.sum() == pytest.approx(frame.energy, rel=1e-10)
        stats = dataset.energy_statistics()
        assert stats["n_frames"] == 3
        assert stats["mean_energy_per_atom"] < 0.0  # cohesive

    def test_water_dataset_contents(self):
        dataset = generate_water_dataset(n_frames=2, n_molecules=32, cutoff=4.5, rng=1)
        assert len(dataset) == 2
        assert dataset.type_names == ("O", "H")
        assert dataset.frames[0].forces.shape == (96, 3)

    def test_split_preserves_frames(self):
        dataset = generate_copper_dataset(n_frames=5, n_cells=(2, 2, 2), cutoff=3.6, rng=2)
        train, val = dataset.split(validation_fraction=0.4, rng=3)
        assert len(train) + len(val) == 5
        assert len(val) == 2
        with pytest.raises(ValueError):
            dataset.split(validation_fraction=1.5)


class TestNetworkSets:
    def test_init_nets_draws_one_net_per_key(self):
        nets = init_nets([(0, 0), (0, 1), (1, 0), (1, 1)], 1, (4, 8), rng=0)
        assert set(nets) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(net.out_features == 8 and net.n_parameters() > 0 for net in nets.values())
        fittings = init_nets(range(2), 8, (6, 6), 1, rng=1)
        assert [net.layer_shapes() for net in fittings.values()] == [[(8, 6), (6, 6), (6, 1)]] * 2

    def test_init_nets_has_one_seed_path(self):
        """An int seed and a generator in the same state draw the same nets,
        all from one stream (the second net continues where the first ended)."""
        by_seed = init_nets(range(2), 3, (4, 4), 1, rng=5)
        by_generator = init_nets(range(2), 3, (4, 4), 1, rng=np.random.default_rng(5))
        stream = np.random.default_rng(5)
        one_by_one = {key: init_nets([key], 3, (4, 4), 1, rng=stream)[key] for key in range(2)}
        for key in range(2):
            for a, b, c in zip(by_seed[key].layers, by_generator[key].layers, one_by_one[key].layers):
                np.testing.assert_array_equal(a.weight, b.weight)
                np.testing.assert_array_equal(a.weight, c.weight)
        assert not np.array_equal(by_seed[0].layers[0].weight, by_seed[1].layers[0].weight)

    def test_compression_interpolates_embedding_net(self):
        nets = init_nets([(0, 0)], 1, (4, 8), rng=2)
        table = TabulatedEmbeddingSet(nets, s_max=2.0, n_points=512)
        s = np.linspace(0.05, 1.9, 64)
        exact = nets[(0, 0)].forward(s[:, None], cache=False)
        slots = np.zeros(len(s), dtype=np.int64)
        approx, deriv = table.evaluate_batched(slots, s)
        np.testing.assert_allclose(approx, exact, atol=1e-4)
        # derivative consistent with finite differences of the table values
        h = 1e-4
        plus, _ = table.evaluate_batched(slots, s + h)
        minus, _ = table.evaluate_batched(slots, s - h)
        np.testing.assert_allclose(deriv, (plus - minus) / (2 * h), atol=1e-3)
        assert table.interpolation_errors((0, 0), nets[(0, 0)], rng=0).value < 1e-3

    def test_compression_validation(self):
        nets = init_nets([(0, 0)], 1, (4,), rng=3)
        with pytest.raises(ValueError):
            TabulatedEmbeddingSet(nets, s_max=-1.0)
        with pytest.raises(ValueError):
            TabulatedEmbeddingSet(nets, s_max=1.0, n_points=2)


class TestTrainer:
    def test_training_reduces_loss_and_sets_stats(self, trained_copper_model):
        model, dataset, result = trained_copper_model
        assert result.improved
        assert result.loss_history[-1] < result.loss_history[0]
        assert result.n_epochs == 25
        # descriptor statistics were estimated (std not all ones anymore)
        assert not np.allclose(model.descriptor_std, 1.0)
        # per-type energy bias close to the cohesive energy of the reference
        assert model.energy_bias[0] < -2.0

    def test_trained_model_beats_untrained_on_energies(self, trained_copper_model):
        model, dataset, result = trained_copper_model
        untrained = DeepPotential(model.config)
        trainer = Trainer(untrained, dataset, rng=0)
        trainer.prepare()
        untrained_rmse = energy_rmse(trainer.frozen_model(), dataset)
        trained_rmse = result.energy_rmse_per_atom
        assert trained_rmse < untrained_rmse

    def test_trainer_rejects_empty_dataset(self):
        config = DeepPotentialConfig(type_names=("Cu",), cutoff=3.6, embedding_sizes=(4,), axis_neurons=2, fitting_sizes=(8,))
        with pytest.raises(ValueError):
            Trainer(DeepPotential(config), ReferenceDataset())

    def test_validation_rmse_reported(self):
        dataset = generate_copper_dataset(n_frames=4, n_cells=(2, 2, 2), cutoff=3.6, rng=4)
        train, val = dataset.split(0.25, rng=5)
        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=3.6, cutoff_smooth=3.0,
            embedding_sizes=(4, 8), axis_neurons=2, fitting_sizes=(8, 8), max_neighbors=32, seed=0,
        )
        model = DeepPotential(config)
        trainer = Trainer(model, train, learning_rate=5e-3, rng=6)
        result = trainer.train(n_epochs=5, validation=val)
        assert result.validation_rmse_per_atom is not None
        assert result.validation_rmse_per_atom > 0.0

    def test_loss_history_and_trained_output_match_the_recorded_parent_run(self, trained_copper_model):
        """Recorded at the commit before training moved to ``repro.training``
        (the trainer then updated the model's own tensors in place): seeding
        framework tensors from the frozen arrays and freezing the result into
        a new model reproduces that run bit for bit."""
        model, dataset, result = trained_copper_model
        assert _digest(np.array(result.loss_history)) == (
            "772a073956e45698773e37639872e06f77aabd211d395dd68003e6ccc1d3a16d"
        )
        assert result.energy_rmse_per_atom.hex() == "0x1.df181fcac4842p-3"
        frame = dataset.frames[0]
        neighbors = build_neighbor_data(frame.atoms.positions, frame.box, model.config.cutoff)
        output = model.evaluate(frame.atoms, frame.box, neighbors)
        assert output.energy.hex() == "-0x1.87f2449591101p+6"
        assert _digest(output.per_atom_energy, output.forces, output.virial) == (
            "77f97025577494af4fad645bab21531a3acfdaf9b49f90fd98b263937b1aa31c"
        )

    def test_training_leaves_the_input_model_untouched(self):
        dataset = generate_copper_dataset(n_frames=3, n_cells=(2, 2, 2), cutoff=3.6, rng=7)
        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=3.6, cutoff_smooth=3.0,
            embedding_sizes=(4, 8), axis_neurons=2, fitting_sizes=(8, 8), max_neighbors=32, seed=8,
        )
        model = DeepPotential(config)
        frame = dataset.frames[0]
        neighbors = build_neighbor_data(frame.atoms.positions, frame.box, config.cutoff)
        before = model.evaluate(frame.atoms, frame.box, neighbors)
        result = Trainer(model, dataset, learning_rate=5e-3, rng=9).train(n_epochs=3)
        after = model.evaluate(frame.atoms, frame.box, neighbors)
        assert result.model is not model
        np.testing.assert_array_equal(after.per_atom_energy, before.per_atom_energy)
        np.testing.assert_array_equal(after.forces, before.forces)
        np.testing.assert_array_equal(model.energy_bias, 0.0)
        trained = result.model.evaluate(frame.atoms, frame.box, neighbors)
        assert not np.array_equal(trained.per_atom_energy, before.per_atom_energy)


def test_inference_package_exposes_no_training_names():
    for name in (
        "Trainer", "TrainingResult", "ReferenceDataset", "generate_copper_dataset",
        "generate_water_dataset", "EmbeddingNetSet", "FittingNetSet",
    ):
        assert not hasattr(repro.deepmd, name)


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
