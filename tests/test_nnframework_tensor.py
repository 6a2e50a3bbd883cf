"""Autodiff correctness of the mini framework."""

import numpy as np
import pytest

from repro.reference.nnframework import Tensor, ops
from repro.reference.nnframework.tensor import no_grad


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn wrt array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


@pytest.mark.parametrize(
    "op,extra",
    [
        (lambda t: ops.sum(ops.square(t)), None),
        (lambda t: ops.sum(ops.tanh(t)), None),
        (lambda t: ops.sum(ops.sigmoid(t)), None),
        (lambda t: ops.sum(ops.relu(t)), None),
        (lambda t: ops.sum(ops.softplus(t)), None),
        (lambda t: ops.sum(ops.exp(t)), None),
        (lambda t: ops.mean(ops.mul(t, t)), None),
        (lambda t: ops.sum(ops.div(1.0, ops.add(ops.square(t), 1.0))), None),
    ],
)
def test_elementwise_gradients_match_finite_differences(op, extra):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    out.backward()

    def scalar(arr):
        return float(op(Tensor(arr)).data)

    numeric = numerical_gradient(scalar, x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=1e-6)


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    loss = ops.sum(ops.square(ops.matmul(ta, tb)))
    loss.backward()

    numeric_a = numerical_gradient(lambda arr: float(ops.sum(ops.square(ops.matmul(Tensor(arr), Tensor(b)))).data), a.copy())
    numeric_b = numerical_gradient(lambda arr: float(ops.sum(ops.square(ops.matmul(Tensor(a), Tensor(arr)))).data), b.copy())
    np.testing.assert_allclose(ta.grad, numeric_a, atol=1e-6)
    np.testing.assert_allclose(tb.grad, numeric_b, atol=1e-6)


def test_batched_matmul_gradients():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    loss = ops.sum(ops.square(ops.matmul(ta, tb)))
    loss.backward()
    numeric_a = numerical_gradient(lambda arr: float(ops.sum(ops.square(ops.matmul(Tensor(arr), Tensor(b)))).data), a.copy())
    np.testing.assert_allclose(ta.grad, numeric_a, atol=1e-5)
    assert tb.grad.shape == b.shape


def test_reshape_transpose_concat_getitem_gradients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6))

    def graph(t):
        r = ops.reshape(t, (2, 2, 3))
        tr = ops.transpose(r, (0, 2, 1))
        sliced = tr[:, :, :1]
        cat = ops.concat([sliced, sliced], axis=2)
        return ops.sum(ops.square(cat))

    t = Tensor(x.copy(), requires_grad=True)
    graph(t).backward()
    numeric = numerical_gradient(lambda arr: float(graph(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=1e-6)


def test_broadcast_gradient_unbroadcasts():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 2)), requires_grad=True)
    loss = ops.sum(ops.mul(a, b))
    loss.backward()
    assert a.grad.shape == (3, 2)
    assert b.grad.shape == (1, 2)
    np.testing.assert_allclose(b.grad, np.full((1, 2), 3.0))


def test_grad_accumulates_over_multiple_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ops.add(ops.mul(x, 3.0), ops.mul(x, 4.0))
    y.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_no_grad_disables_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = ops.mul(x, 2.0)
    assert y.requires_grad is False
    assert y._backward is None


def test_mse_loss_value_and_gradient():
    pred = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
    target = Tensor(np.array([[0.0], [0.0]]))
    loss = ops.mse_loss(pred, target)
    assert loss.item() == pytest.approx(2.5)
    loss.backward()
    np.testing.assert_allclose(pred.grad, [[1.0], [2.0]])


def test_tensor_repr_and_helpers():
    t = Tensor.parameter(np.zeros((2, 2)), name="w")
    assert t.requires_grad
    assert t.shape == (2, 2)
    assert t.size == 4
    assert len(t) == 2
    c = Tensor.constant(1.0)
    assert not c.requires_grad
