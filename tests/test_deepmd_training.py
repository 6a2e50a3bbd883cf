"""Reference data generation and training of the Deep Potential."""

import numpy as np
import pytest

from repro.deepmd import (
    DeepPotential,
    DeepPotentialConfig,
    Trainer,
    generate_copper_dataset,
    generate_water_dataset,
)
from repro.deepmd.compression import TabulatedEmbeddingSet
from repro.deepmd.embedding import EmbeddingNetSet
from repro.deepmd.fitting import FittingNetSet


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
    def test_embedding_set_has_one_net_per_type_pair(self):
        nets = EmbeddingNetSet(2, sizes=(4, 8), rng=0)
        assert len(list(nets.pairs())) == 4
        assert nets.width == 8
        assert nets.n_parameters() > 0
        exported = nets.export()
        assert set(exported) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_fitting_set_validation(self):
        with pytest.raises(ValueError):
            FittingNetSet(0, input_dim=8)
        with pytest.raises(ValueError):
            FittingNetSet(1, input_dim=0)
        nets = FittingNetSet(2, input_dim=8, sizes=(6, 6), rng=1)
        assert len(nets.export()) == 2

    def test_compression_interpolates_embedding_net(self):
        nets = EmbeddingNetSet(1, sizes=(4, 8), rng=2).export()
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
        nets = EmbeddingNetSet(1, sizes=(4,), rng=3).export()
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
        untrained_rmse = trainer.evaluate_rmse(dataset)
        trained_rmse = result.energy_rmse_per_atom
        assert trained_rmse < untrained_rmse

    def test_trainer_rejects_empty_dataset(self):
        from repro.deepmd.reference import ReferenceDataset

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
