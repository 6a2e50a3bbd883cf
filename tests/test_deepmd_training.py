"""Reference data generation and training of the Deep Potential."""

import dataclasses

import numpy as np
import pytest

import repro.deepmd
from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.networks import init_nets
from repro.deepmd.compression import TabulatedEmbeddingSet
from repro.md.neighbor import build_neighbor_data
from repro.reference.graph import build_descriptor_graph, framework_nets
from repro.reference.nnframework import Tensor, ops
from repro.training import Trainer, generate_copper_dataset, generate_water_dataset
from repro.training.dataset import ReferenceDataset
from repro.training.trainer import energy_rmse


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
        assert [[layer.weight.shape for layer in net.layers] for net in fittings.values()] == [[(8, 6), (6, 6), (6, 1)]] * 2

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
        """The 25-epoch run as the autograd-framework trainer recorded it (the
        values below; that run was itself bitwise-stable from the in-place
        trainer onwards).  Analytic gradients sum in a different order than
        autograd, so the analytic trainer matches it to rounding, not to the
        bit: ~6e-14 over the loss history, hence rtol 1e-12."""
        model, dataset, result = trained_copper_model
        np.testing.assert_allclose(result.loss_history, _PARENT_COPPER_LOSS_HISTORY, rtol=1e-12, atol=0.0)
        assert result.energy_rmse_per_atom == pytest.approx(0.23393273198650105, rel=1e-12, abs=0.0)
        frame = dataset.frames[0]
        neighbors = build_neighbor_data(frame.atoms.positions, frame.box, model.config.cutoff)
        output = model.evaluate(frame.atoms, frame.box, neighbors)
        assert output.energy == pytest.approx(-97.98658975313084, rel=1e-12, abs=0.0)
        # the recorded run's frame 0: every atom -3.062080929785339 eV, zero forces and virial
        np.testing.assert_allclose(output.per_atom_energy, -3.062080929785339, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(output.forces, 0.0)
        np.testing.assert_array_equal(output.virial, 0.0)

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


class TestTrainerBoundary:
    """Bad input fails loudly: at construction for bad frames, in the epoch
    for a loss that goes non-finite (never a NaN-weighted frozen model)."""

    @staticmethod
    def _copper(n_frames=2):
        dataset = generate_copper_dataset(n_frames=n_frames, n_cells=(2, 2, 2), cutoff=3.6, rng=10)
        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=3.6, cutoff_smooth=3.0,
            embedding_sizes=(4, 8), axis_neurons=2, fitting_sizes=(8, 8), max_neighbors=32, seed=11,
        )
        return DeepPotential(config), dataset

    def test_non_finite_positions_are_rejected(self):
        model, dataset = self._copper()
        dataset.frames[1].atoms.positions[3, 0] = np.nan
        with pytest.raises(ValueError, match="frame 1 has non-finite"):
            Trainer(model, dataset)

    def test_non_finite_labels_are_rejected(self):
        model, dataset = self._copper()
        dataset.frames[0].per_atom_energy[5] = np.inf
        with pytest.raises(ValueError, match="frame 0 has non-finite"):
            Trainer(model, dataset)

    def test_atom_types_outside_the_model_are_rejected(self):
        model, dataset = self._copper()
        dataset.frames[1].atoms.types[2] = 1  # a one-type model
        with pytest.raises(ValueError, match="outside the model's"):
            Trainer(model, dataset)

    def test_non_positive_learning_rate_is_rejected(self):
        model, dataset = self._copper()
        with pytest.raises(ValueError, match="learning rate"):
            Trainer(model, dataset, learning_rate=0.0)

    def test_nan_label_trips_the_epoch(self):
        model, dataset = self._copper()
        trainer = Trainer(model, dataset, learning_rate=5e-3, rng=0)
        dataset.frames[1].per_atom_energy[0] = np.nan  # after the boundary check
        with pytest.raises(FloatingPointError, match=r"epoch 0: frame \d loss is nan"):
            trainer.train(n_epochs=3)

    def test_learning_rate_that_blows_up_trips_the_epoch(self):
        model, dataset = self._copper(n_frames=3)
        trainer = Trainer(model, dataset, learning_rate=1e300, rng=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="loss is"):
            trainer.train(n_epochs=5)


class TestGradientGolden:
    """Per-frame analytic loss and parameter gradients against autograd
    through the framework graph of ``repro.reference`` (the trainer this one
    replaced), for every net and layer."""

    @staticmethod
    def _assert_matches_autograd(trainer, frame, env):
        loss, grads = trainer._frame_gradients(frame, env)
        golden_loss, golden = _framework_gradients(trainer, frame, env)
        assert loss == pytest.approx(golden_loss, rel=1e-12, abs=0.0)
        assert set(grads) == {name for name, g in golden.items() if g is not None}
        for name, layer_grads in grads.items():
            assert len(layer_grads) == len(golden[name])
            for analytic, autograd in zip(layer_grads, golden[name]):
                assert analytic.shape == autograd.shape
                assert np.max(np.abs(analytic - autograd)) <= 1e-12 * np.max(np.abs(autograd))
        return grads

    def test_copper(self):
        dataset = generate_copper_dataset(n_frames=3, n_cells=(2, 2, 2), cutoff=3.6, rng=12)
        config = DeepPotentialConfig(
            type_names=("Cu",), cutoff=3.6, cutoff_smooth=3.0,
            embedding_sizes=(8, 16), axis_neurons=4, fitting_sizes=(24, 24), max_neighbors=32, seed=13,
        )
        trainer = Trainer(DeepPotential(config), dataset, learning_rate=5e-3, rng=14)
        trainer.train(n_epochs=2)  # off the initial weights
        for frame, env in zip(dataset.frames, trainer._environments):
            self._assert_matches_autograd(trainer, frame, env)

    def test_two_type_water(self):
        dataset, config = _water()
        trainer = Trainer(DeepPotential(config), dataset, learning_rate=4e-3, rng=15)
        trainer.train(n_epochs=1)
        for frame, env in zip(dataset.frames, trainer._environments):
            grads = self._assert_matches_autograd(trainer, frame, env)
            assert len(grads) == 6  # four embedding nets, two fitting nets

    def test_a_net_that_takes_no_part_is_not_stepped(self):
        """Three oxygens beyond the cutoff of each other among hydrogens: the
        (O, O) embedding net sees no pair, autograd leaves its gradient
        ``None``, and Adam leaves its weights and moments alone while every
        other net moves.  (Two would be degenerate: with the untrained odd
        fitting net their standardized descriptors are +-x and the O bias
        gradient is exactly zero.)"""
        dataset, config = _water()
        frame = dataset.frames[0]
        positions = frame.atoms.positions
        oxygens = [0]
        for i in range(len(positions)):
            apart = frame.box.minimum_image(positions[oxygens] - positions[i])
            if len(oxygens) < 3 and np.linalg.norm(apart, axis=1).min() > config.cutoff:
                oxygens.append(i)
        assert len(oxygens) == 3
        types = np.ones_like(frame.atoms.types)
        types[oxygens] = 0
        lone = dataclasses.replace(frame, atoms=dataclasses.replace(frame.atoms, types=types))
        dataset = ReferenceDataset(frames=[lone], type_names=dataset.type_names)
        trainer = Trainer(DeepPotential(config), dataset, learning_rate=4e-3, rng=16)
        trainer.prepare()
        grads = self._assert_matches_autograd(trainer, lone, trainer._environments[0])
        assert ("embedding", (0, 0)) not in grads
        before = {name: [p.copy() for p in params] for name, params in trainer.params.items()}
        trainer.train(n_epochs=1)
        for name, params in trainer.params.items():
            moved = [not np.array_equal(p, q) for p, q in zip(params, before[name])]
            if name == ("embedding", (0, 0)):
                assert not any(moved)
                assert all(not m.any() and not v.any() for m, v in trainer._moments[name])
            else:
                assert any(moved)


def test_inference_package_exposes_no_training_names():
    for name in (
        "Trainer", "TrainingResult", "ReferenceDataset", "generate_copper_dataset",
        "generate_water_dataset", "EmbeddingNetSet", "FittingNetSet",
    ):
        assert not hasattr(repro.deepmd, name)


def _water():
    dataset = generate_water_dataset(n_frames=2, n_molecules=32, cutoff=4.5, rng=17)
    config = DeepPotentialConfig(
        type_names=("O", "H"), cutoff=4.5, cutoff_smooth=3.5,
        embedding_sizes=(6, 12), axis_neurons=4, fitting_sizes=(16, 16), max_neighbors=64, seed=18,
    )
    return dataset, config


def _framework_gradients(trainer, frame, env):
    """The per-frame loss of the framework trainer and its autograd gradients,
    keyed like ``Trainer.params`` (``None`` for a net autograd never reached)."""
    embeddings, fittings = framework_nets(trainer.frozen_model())
    losses = []
    for ti in range(trainer.model.n_types):
        idx = np.nonzero(env.types == ti)[0]
        if len(idx) == 0:
            continue
        graph = build_descriptor_graph(
            env, ti, idx, embeddings, fittings, trainer.model.config.axis_neurons,
            trainer.descriptor_mean[ti], trainer.descriptor_std[ti], trainer.energy_bias[ti],
        )
        losses.append(ops.mse_loss(graph.energies, Tensor(frame.per_atom_energy[idx].reshape(-1, 1))))
    total = losses[0]
    for extra in losses[1:]:
        total = ops.add(total, extra)
    loss = ops.mul(total, 1.0 / len(losses))
    loss.backward()
    golden = {}
    for kind, nets in (("embedding", embeddings), ("fitting", fittings)):
        for key, mlp in nets.items():
            params = mlp.parameters()
            golden[kind, key] = None if params[0].grad is None else [p.grad for p in params]
    return loss.item(), golden


#: ``trained_copper_model``'s loss history as the autograd-framework trainer recorded it
_PARENT_COPPER_LOSS_HISTORY = [
    0.4557550744531275, 0.1330696962040092, 0.13548748362168375, 0.09316146077422431,
    0.06423278962582617, 0.06231245002683988, 0.07309270160998337, 0.05184062729867769,
    0.07805277197642842, 0.08859341997427521, 0.07766548468241279, 0.09770164542445663,
    0.07427674715253982, 0.05693932464057158, 0.057435049916421094, 0.09738701475551031,
    0.0718541605533105, 0.07925048844871307, 0.07324621577705366, 0.10017106840263386,
    0.11893742423870272, 0.04962756758242958, 0.07507470690628965, 0.05530770577103499,
    0.060241991135690086,
]
