"""Framework-free MLP kernels (the "TensorFlow removement" code path).

:class:`FastMLP` is the one home of a network's weights: a multi-layer
perceptron over read-only arrays, evaluated with plain NumPy, recording a
forward tape so the input-gradient (vector-Jacobian product) needed by the
analytic force computation can be obtained without a framework.  The same
backward loop also hands out the parameter gradients training needs, so
:mod:`repro.training` runs on these kernels too and the autograd framework
is only the reference it is checked against.
All matrix products are routed through a :class:`~repro.deepmd.gemm.GemmBackend`,
which runs them at the layer's precision and accounts their FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import default_rng, glorot_uniform
from .gemm import GemmBackend


def _activation(name: str):
    if name == "tanh":
        return np.tanh, lambda y: 1.0 - y * y  # derivative expressed via output
    if name == "sigmoid":
        return (
            lambda x: 1.0 / (1.0 + np.exp(-x)),
            lambda y: y * (1.0 - y),
        )
    if name == "relu":
        return lambda x: np.maximum(x, 0.0), lambda y: (y > 0.0).astype(y.dtype)
    if name == "softplus":
        return (
            lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0),
            lambda y: 1.0 - np.exp(-y),
        )
    if name == "linear":
        # scalar derivative: broadcasting keeps the VJP allocation-free
        return lambda x: x, lambda y: 1.0
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class _LayerSpec:
    weight: np.ndarray
    weight_t: np.ndarray
    bias: np.ndarray
    activation: str
    resnet: bool


# The residual-link rules, written once: a ``resnet`` layer adds its input to
# its activation when it keeps the width, and the input twice over
# (``[h, h]``) when it doubles it; any other residual layer adds nothing.
def skip_input(layer: _LayerSpec, h: np.ndarray) -> np.ndarray | None:
    """The term a layer's residual link adds to its activation, or None."""
    if layer.resnet:
        if layer.weight.shape[1] == layer.weight.shape[0]:
            return h
        if layer.weight.shape[1] == 2 * layer.weight.shape[0]:
            return np.concatenate([h, h], axis=-1)
    return None


def skip_gradient(layer: _LayerSpec, grad: np.ndarray) -> np.ndarray | None:
    """What the residual link passes of an output gradient straight to the
    layer input (over the last axis, so stacked gradients work), or None."""
    if layer.resnet:
        if layer.weight.shape[1] == layer.weight.shape[0]:
            return grad
        if layer.weight.shape[1] == 2 * layer.weight.shape[0]:
            n_in = layer.weight.shape[0]
            return grad[..., :n_in] + grad[..., n_in:]
    return None


def activation_slope(layer: _LayerSpec, entry: dict):
    """d(out)/d(pre) of one taped layer, read from its output with the
    residual term taken out (the scalar ``1.0`` for a linear layer)."""
    _, act_deriv = _activation(layer.activation)
    act_out = entry["output"]
    skip = skip_input(layer, entry["input"])
    if skip is not None:
        act_out = act_out - skip
    return act_deriv(act_out)


class FastMLP:
    """A frozen MLP evaluated with hand-written kernels.

    Parameters
    ----------
    layer_specs:
        one ``{"weight", "bias", "activation", "resnet"}`` dict per layer
        (what :func:`init_nets` and the trainer build); the arrays are copied and the
        copies are read-only, so a kernel or a table built from it never goes
        stale.
    """

    def __init__(self, layer_specs: list[dict]) -> None:
        if not layer_specs:
            raise ValueError("FastMLP needs at least one layer")
        self.layers: list[_LayerSpec] = []
        for spec in layer_specs:
            weight = np.array(spec["weight"], dtype=np.float64)
            self.layers.append(
                _LayerSpec(
                    weight=weight,
                    weight_t=np.ascontiguousarray(weight.T),
                    bias=np.array(spec["bias"], dtype=np.float64),
                    activation=spec["activation"],
                    resnet=bool(spec.get("resnet", False)),
                )
            )
            for array in (weight, self.layers[-1].weight_t, self.layers[-1].bias):
                array.setflags(write=False)
        self.in_features = self.layers[0].weight.shape[0]
        self.out_features = self.layers[-1].weight.shape[1]
        self._cache: list[dict] | None = None
        #: low-precision copies of the layer operands, built once per dtype
        #: (the weights are frozen, so the copies stay valid for the lifetime
        #: of this kernel)
        self._lp_operands: dict[np.dtype, list[_LayerSpec]] = {}
        #: number of low-precision operand builds (regression probe: steady
        #: state must not rebuild)
        self.lp_cache_builds = 0

    def operands(self, dtype) -> list[_LayerSpec]:
        """Layer operands (weight, weight_t, bias) at the compute dtype.

        float64 returns the exported arrays themselves; lower precisions are
        cast **once** and cached, so mixed-precision GEMMs stop paying a
        fresh ``astype`` weight copy on every call (the pre-fix churn).
        """
        dt = np.dtype(dtype)
        if dt == np.dtype(np.float64):
            return self.layers
        specs = self._lp_operands.get(dt)
        if specs is None:
            specs = [
                _LayerSpec(
                    weight=layer.weight.astype(dt),
                    weight_t=layer.weight_t.astype(dt),
                    bias=layer.bias.astype(dt),
                    activation=layer.activation,
                    resnet=layer.resnet,
                )
                for layer in self.layers
            ]
            self._lp_operands[dt] = specs
            self.lp_cache_builds += 1
        return specs

    # -- forward ---------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        backend: GemmBackend | None = None,
        dtypes: list | None = None,
        cache: bool | list = True,
    ) -> np.ndarray:
        """Evaluate the network on a ``(batch, in_features)`` input.

        ``cache`` says where the forward tape :meth:`backward_input` reads
        goes: ``True`` parks it on this net (single-threaded callers only), a
        list the caller owns is filled in place and the shared net is left
        untouched — what every concurrent evaluator passes — and ``False``
        records nothing.

        ``dtypes`` optionally gives the compute precision per layer (defaults
        to float64 everywhere); this is how the mixed-precision policies pick
        the fp32/fp16 layers.  Low-precision layers run **natively**: the
        cached pre-cast operands from :meth:`operands` feed the GEMM, the
        bias add and activation execute at that precision, and the output
        stays in it — only float64 layers follow the original (golden)
        arithmetic, which is preserved bit-for-bit.
        """
        x = np.atleast_2d(np.asarray(x))
        if x.dtype not in (np.dtype(np.float32), np.dtype(np.float16)):  # reprolint: allow[dtype] dtype guard only; casts are governed by PrecisionPolicy
            x = x.astype(np.float64, copy=False)
        backend = backend or GemmBackend()
        tape = [] if cache is True else cache
        h = x
        for li, layer in enumerate(self.layers):
            dtype = np.float64 if dtypes is None else dtypes[min(li, len(dtypes) - 1)]
            dt = np.dtype(dtype)
            act, _ = _activation(layer.activation)
            if dt == np.dtype(np.float64):
                h_c = h
                pre = backend.matmul(h, layer.weight, dtype=dtype) + layer.bias
            else:
                lp = self.operands(dt)[li]
                h_c = h if h.dtype == dt else h.astype(dt)
                pre = backend.matmul(h_c, lp.weight, dtype=dt, native_out=True)
                pre += lp.bias
            out = act(pre)
            skip = skip_input(layer, h_c)
            if skip is not None:
                out = out + skip
            if tape is not False:
                tape.append({"input": h_c, "output": out, "pre": pre, "dtype": dt})
            h = out
        if cache is True:
            self._cache = tape
        return h

    # -- backward (input gradient) ----------------------------------------------
    def backward_input(
        self,
        grad_output: np.ndarray,
        backend: GemmBackend | None = None,
        dtypes: list | None = None,
        cache: list | None = None,
        param_grads: list | None = None,
    ) -> np.ndarray:
        """Vector-Jacobian product: gradient of the cached forward wrt its input.

        ``cache`` is the tape a ``forward(cache=<list>)`` filled; by default
        the one ``forward(cache=True)`` parked on this net.  A ``param_grads``
        list, when given, receives each layer's ``(dW, db)`` from the same
        loop, last layer first (how :mod:`repro.training` gets its parameter
        gradients).

        The backward products use the stored transposed weights as NN GEMMs
        (the paper's GEMM-NT -> GEMM-NN preprocessing).
        """
        tape = self._cache if cache is None else cache
        if not tape:
            raise RuntimeError("forward(cache=True) must run before backward_input")
        backend = backend or GemmBackend()
        grad = np.atleast_2d(np.asarray(grad_output))
        if grad.dtype not in (np.dtype(np.float32), np.dtype(np.float16)):  # reprolint: allow[dtype] dtype guard only; casts are governed by PrecisionPolicy
            grad = grad.astype(np.float64, copy=False)
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            entry = tape[li]
            dtype = np.float64 if dtypes is None else dtypes[min(li, len(dtypes) - 1)]
            dt = np.dtype(dtype)
            native = dt != np.dtype(np.float64)
            weight_t = self.operands(dt)[li].weight_t if native else layer.weight_t
            grad_resnet = skip_gradient(layer, grad)
            grad_pre = grad * activation_slope(layer, entry)
            if param_grads is not None:
                param_grads.append((entry["input"].T @ grad_pre, grad_pre.sum(0)))
            grad = backend.matmul(grad_pre, weight_t, dtype=dt, native_out=native)
            if grad_resnet is not None:
                grad = grad + grad_resnet
        return grad

    # -- convenience -------------------------------------------------------------
    def n_parameters(self) -> int:
        return int(sum(l.weight.size + l.bias.size for l in self.layers))


def init_nets(keys, in_features: int, hidden, out_features: int | None = None, rng=None) -> dict:
    """One Glorot-initialised :class:`FastMLP` per key, all drawn in order from one stream.

    DeePMD's shape: ``tanh`` hidden layers with a residual link wherever a
    layer keeps or doubles the width, zero biases and, when ``out_features``
    is given, a linear output layer.  ``rng`` is a seed or a generator.
    """
    rng = default_rng(rng)
    sizes = [int(in_features), *(int(h) for h in hidden)]
    layers = [(n_in, n_out, "tanh", n_out in (n_in, 2 * n_in)) for n_in, n_out in zip(sizes, sizes[1:])]
    if out_features is not None:
        layers.append((sizes[-1], int(out_features), "linear", False))
    return {
        key: FastMLP(
            [
                {"weight": glorot_uniform((n_in, n_out), rng), "bias": np.zeros(n_out), "activation": act, "resnet": res}
                for n_in, n_out, act, res in layers
            ]
        )
        for key in keys
    }
