"""Layers and the session overhead accounting of the reference framework."""

import numpy as np
import pytest

from repro.reference.nnframework import MLP, Dense, Session, Tensor
from repro.reference.nnframework.session import DEFAULT_SESSION_OVERHEAD_S
from repro.reference.nnframework.tensor import collect_parameters


def test_dense_shapes_and_parameters():
    layer = Dense(3, 5, rng=0)
    out = layer(Tensor(np.zeros((7, 3))))
    assert out.shape == (7, 5)
    assert len(layer.parameters()) == 2


def test_dense_invalid_arguments():
    with pytest.raises(ValueError):
        Dense(0, 3)
    with pytest.raises(ValueError):
        Dense(3, 3, activation="nope")


def test_dense_set_weights_validation():
    layer = Dense(2, 3, rng=0)
    with pytest.raises(ValueError):
        layer.set_weights(np.zeros((3, 2)), np.zeros(3))
    layer.set_weights(np.ones((2, 3)), np.zeros(3))
    np.testing.assert_allclose(layer.weight.data, 1.0)


def test_mlp_resnet_skip_applied_for_equal_widths():
    mlp = MLP(4, [4], out_features=None, activation="linear", resnet=True, rng=0)
    # zero the weights: with a skip connection the output equals the input
    mlp.layers[0].set_weights(np.zeros((4, 4)), np.zeros(4))
    x = np.arange(8.0).reshape(2, 4)
    out = mlp(Tensor(x))
    np.testing.assert_allclose(out.data, x)


def test_mlp_doubling_resnet_concatenates_input():
    mlp = MLP(3, [6], out_features=None, activation="linear", resnet=True, rng=0)
    mlp.layers[0].set_weights(np.zeros((3, 6)), np.zeros(6))
    x = np.arange(6.0).reshape(2, 3)
    out = mlp(Tensor(x))
    np.testing.assert_allclose(out.data, np.concatenate([x, x], axis=1))


def test_mlp_export_weights_structure():
    mlp = MLP(2, [4, 4], out_features=1, rng=1)
    exported = mlp.export_weights()
    assert len(exported) == 3
    assert exported[0]["weight"].shape == (2, 4)
    assert exported[1]["resnet"] is True
    assert exported[-1]["weight"].shape == (4, 1)


def test_collect_parameters_deduplicates():
    mlp = MLP(2, [4], out_features=1, rng=0)
    params = collect_parameters([mlp, mlp, mlp.layers[0].weight])
    assert len(params) == len(mlp.parameters())


def test_session_accounts_fixed_overhead():
    session = Session(overhead_seconds=4e-3)
    result = session.run(lambda: 42)
    assert result == 42
    assert session.stats.runs == 1
    assert session.stats.modeled_overhead_seconds == pytest.approx(4e-3)
    # a trivial callable: nearly all modelled time is framework overhead
    assert session.overhead_fraction() > 0.6
    session.reset()
    assert session.stats.runs == 0


def test_session_default_overhead_matches_paper():
    assert DEFAULT_SESSION_OVERHEAD_S == pytest.approx(4.0e-3)


def test_session_kernel_tracking():
    session = Session(track_kernels=True)
    out = session.run(lambda: ("result", 7))
    assert out == "result"
    assert session.stats.kernel_calls == 7
