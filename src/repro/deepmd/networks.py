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


#: ``(activation, derivative expressed via the output)`` per activation name.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), lambda y: y * (1.0 - y)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda y: (y > 0.0).astype(y.dtype)),
    "softplus": (lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0), lambda y: 1.0 - np.exp(-y)),
    # scalar derivative: broadcasting keeps the VJP allocation-free
    "linear": (lambda x: x, lambda y: 1.0),
}

#: The reduced input dtypes a net takes as they come; any other input is
#: read as float64.
_REDUCED_INPUTS = (np.dtype(np.float32), np.dtype(np.float16))  # reprolint: allow[dtype] dtype guard only; casts are governed by PrecisionPolicy


def _activation(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


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
        #: the layer operands per compute dtype, each cast once (the weights
        #: are frozen, so the copies stay valid for the lifetime of this
        #: kernel); float64 is the exported arrays themselves
        self._operands: dict[np.dtype, list[_LayerSpec]] = {np.dtype(np.float64): self.layers}
        #: number of reduced-precision operand builds (regression probe:
        #: steady state must not rebuild)
        self.lp_cache_builds = 0
        #: :meth:`_layer_plan` per ``dtypes`` list, resolved on first use
        self._plans: dict[tuple | None, list[tuple]] = {}

    def operands(self, dtype) -> list[_LayerSpec]:
        """Layer operands (weight, weight_t, bias) at the compute dtype.

        float64 returns the exported arrays themselves; lower precisions are
        cast **once** and cached, so mixed-precision GEMMs stop paying a
        fresh ``astype`` weight copy on every call (the pre-fix churn).
        """
        dt = np.dtype(dtype)
        specs = self._operands.get(dt)
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
            self._operands[dt] = specs
            self.lp_cache_builds += 1
        return specs

    def _layer_plan(self, dtypes) -> list[tuple]:
        """``(layer, dtype, operands, activation)`` of every layer.

        Layer ``li`` computes at ``dtypes[li]`` (the last entry for the
        layers past the list's end; float64 when ``dtypes`` is None) on its
        :meth:`operands` at that dtype.  Resolved once per ``dtypes`` list and
        cached, so a call pays one lookup instead of a dtype construction and
        three table lookups per layer; two threads that miss together store
        equal plans.
        """
        key = None if dtypes is None else tuple(dtypes)
        plan = self._plans.get(key)
        if plan is None:
            plan = []
            for li, layer in enumerate(self.layers):
                dt = np.dtype(np.float64 if dtypes is None else dtypes[min(li, len(dtypes) - 1)])
                plan.append((layer, dt, self.operands(dt)[li], _activation(layer.activation)[0]))
            self._plans[key] = plan
        return plan

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
        the fp32/fp16 layers.  Every layer runs one body **natively** at its
        dtype: the layer input is cast to it when it arrives in another, the
        cached operands from :meth:`operands` feed the GEMM, and the bias
        add, activation and output stay at that precision.  float64 is the
        identity case (the exported arrays, no cast), and its bits are pinned.
        """
        x = np.asarray(x)
        if x.ndim < 2:
            x = np.atleast_2d(x)
        if x.dtype not in _REDUCED_INPUTS:
            x = x.astype(np.float64, copy=False)
        backend = backend or GemmBackend()
        tape = [] if cache is True else cache
        h = x
        for layer, dt, operands, act in self._layer_plan(dtypes):
            h_c = h if h.dtype == dt else h.astype(dt)
            pre = backend.matmul(h_c, operands.weight, dtype=dt)
            pre += operands.bias
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
        grad = np.asarray(grad_output)
        if grad.ndim < 2:
            grad = np.atleast_2d(grad)
        if grad.dtype not in _REDUCED_INPUTS:
            grad = grad.astype(np.float64, copy=False)
        plan = self._layer_plan(dtypes)
        for li in range(len(plan) - 1, -1, -1):
            layer, dt, operands, _ = plan[li]
            entry = tape[li]
            grad_resnet = skip_gradient(layer, grad)
            grad_pre = grad * activation_slope(layer, entry)
            if param_grads is not None:
                param_grads.append((entry["input"].T @ grad_pre, grad_pre.sum(0)))
            grad = backend.matmul(grad_pre, operands.weight_t, dtype=dt)
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
