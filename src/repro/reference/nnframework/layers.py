"""Fully connected layers built on the mini framework tensors.

The Deep Potential model uses two three-layer MLPs (the *embedding net* and
the *fitting net*); DeePMD-kit additionally uses residual ("timestep") skip
connections when consecutive layers have the same width, which :class:`MLP`
reproduces via ``resnet=True``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import ops
from .tensor import Tensor
from ...utils.rng import default_rng, glorot_uniform

Activation = Callable[[Tensor], Tensor]

ACTIVATIONS: dict[str, Activation] = {
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "relu": ops.relu,
    "softplus": ops.softplus,
    "linear": lambda t: t,
}


class Dense:
    """A single affine layer ``y = act(x W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "tanh",
        rng=None,
        name: str = "dense",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer sizes must be positive")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.activation_name = activation
        self.activation = ACTIVATIONS[activation]
        self.weight = Tensor.parameter(
            glorot_uniform((in_features, out_features), rng), name=f"{name}.weight"
        )
        self.bias = Tensor.parameter(np.zeros(out_features), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return self.activation(ops.add(ops.matmul(x, self.weight), self.bias))

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def set_weights(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Overwrite weights in place (how ``repro.reference.graph`` seeds a net from a frozen kernel's arrays)."""
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.shape != (self.in_features, self.out_features):
            raise ValueError("weight shape mismatch")
        if bias.shape != (self.out_features,):
            raise ValueError("bias shape mismatch")
        self.weight.data = weight
        self.bias.data = bias


class MLP:
    """A multi-layer perceptron with optional DeePMD-style residual links."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int | None = None,
        activation: str = "tanh",
        output_activation: str = "linear",
        resnet: bool = True,
        rng=None,
        name: str = "mlp",
    ) -> None:
        rng = default_rng(rng)
        self.resnet = resnet
        sizes = [in_features, *hidden]
        self.layers: list[Dense] = []
        for i in range(len(hidden)):
            self.layers.append(
                Dense(sizes[i], sizes[i + 1], activation, rng, name=f"{name}.h{i}")
            )
        self.output_layer: Dense | None = None
        if out_features is not None:
            self.output_layer = Dense(
                sizes[-1], out_features, output_activation, rng, name=f"{name}.out"
            )

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for layer in self.layers:
            out = layer(h)
            if self.resnet and layer.in_features == layer.out_features:
                out = ops.add(out, h)
            elif self.resnet and layer.out_features == 2 * layer.in_features:
                # DeePMD doubles the width by concatenating the input with itself.
                out = ops.add(out, ops.concat([h, h], axis=-1))
            h = out
        if self.output_layer is not None:
            h = self.output_layer(h)
        return h

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        if self.output_layer is not None:
            params.extend(self.output_layer.parameters())
        return params

    @property
    def all_layers(self) -> list[Dense]:
        layers = list(self.layers)
        if self.output_layer is not None:
            layers.append(self.output_layer)
        return layers

    def export_weights(self) -> list[dict[str, np.ndarray]]:
        """Export layer weights as plain arrays for the framework-free kernels.

        This is the code path the paper keeps when "removing TensorFlow": the
        framework is retained solely for loading model parameters.
        """
        exported = []
        for layer in self.all_layers:
            exported.append(
                {
                    "weight": layer.weight.data.copy(),
                    "bias": layer.bias.data.copy(),
                    "activation": layer.activation_name,
                    "resnet": bool(
                        self.resnet
                        and layer is not self.output_layer
                        and (
                            layer.in_features == layer.out_features
                            or layer.out_features == 2 * layer.in_features
                        )
                    ),
                }
            )
        return exported
