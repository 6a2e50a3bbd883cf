"""The Deep Potential energy as a framework computation graph.

:func:`build_descriptor_graph` builds the DeepPot-SE descriptor
(:mod:`repro.deepmd.descriptor` has the formula) and the fitting net of a
*batch of atoms sharing the same centre type* as a graph of
:mod:`repro.reference.nnframework` tensors.  The graph is used by

* the gradient golden: autograd parameter gradients of the per-atom energy
  loss, which the analytic ones of :class:`repro.training.Trainer` are
  pinned to (``tests/test_deepmd_training.py``), and
* the baseline ("TensorFlow") evaluation path
  (:func:`repro.reference.deepmd.evaluate_with_framework`), where the input
  leaves ``s`` and ``R^T`` are marked ``requires_grad`` so that automatic
  differentiation supplies dE/ds and dE/dR for the force chain.

Both get their nets from :func:`framework_nets`, which copies a frozen
model's weights into framework tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..deepmd.envmat import LocalEnvironment
from ..deepmd.model import DeepPotential
from ..deepmd.networks import FastMLP
from .nnframework import ops
from .nnframework.layers import MLP
from .nnframework.tensor import Tensor


def _as_mlp(net: FastMLP, in_features: int, hidden, out_features: int | None) -> MLP:
    mlp = MLP(in_features, list(hidden), out_features=out_features, rng=0)
    for dense, layer in zip(mlp.all_layers, net.layers):
        dense.set_weights(layer.weight.copy(), layer.bias.copy())
    return mlp


def framework_nets(model: DeepPotential) -> tuple[dict[tuple[int, int], MLP], dict[int, MLP]]:
    """The model's embedding and fitting nets as framework MLPs over copies of its weights."""
    cfg = model.config
    embeddings = {key: _as_mlp(net, 1, cfg.embedding_sizes, None) for key, net in model.fast_embeddings().items()}
    fittings = {
        key: _as_mlp(net, cfg.descriptor_dim, cfg.fitting_sizes, 1) for key, net in model.fast_fittings().items()
    }
    return embeddings, fittings


@dataclass
class DescriptorGraph:
    """Handles to the interesting tensors of one per-type energy graph."""

    energies: Tensor  # (B, 1) per-atom energies (bias included)
    s_input: Tensor  # (B*N, 1) switching-function leaf
    r_transpose_input: Tensor  # (B, 4, N) environment-matrix leaf


def build_descriptor_graph(
    env: LocalEnvironment,
    center_type: int,
    atom_indices: np.ndarray,
    embeddings: dict[tuple[int, int], MLP],
    fittings: dict[int, MLP],
    axis_neurons: int,
    descriptor_mean: np.ndarray,
    descriptor_std: np.ndarray,
    energy_bias: float,
    inputs_require_grad: bool = False,
) -> DescriptorGraph:
    """Build the per-atom energy graph for atoms ``atom_indices`` (one type).

    ``embeddings`` / ``fittings`` come from :func:`framework_nets`.
    ``descriptor_mean`` / ``descriptor_std`` are the standardization constants
    of the flattened descriptor for this centre type; ``energy_bias`` is the
    per-type atomic energy shift.
    """
    sub = env.select(atom_indices)
    batch, n_nei = sub.s.shape
    m_width = embeddings[(center_type, 0)].all_layers[-1].out_features
    m2 = int(axis_neurons)
    if m2 > m_width:
        raise ValueError("axis_neurons cannot exceed the embedding width")

    s_flat = Tensor(
        sub.s.reshape(batch * n_nei, 1), requires_grad=inputs_require_grad, name="s"
    )
    r_transpose = Tensor(
        np.transpose(sub.R, (0, 2, 1)), requires_grad=inputs_require_grad, name="R^T"
    )

    # Per-neighbour embedding features, assembled per neighbour type through
    # masking (padded slots have type -1 and never match).
    g_total = None
    for tj in range(len(fittings)):
        type_mask = (sub.neighbor_types == tj).astype(np.float64).reshape(batch * n_nei, 1)
        if not np.any(type_mask):
            continue
        g_tj = embeddings[(center_type, tj)](s_flat)
        masked = ops.mul(g_tj, Tensor(type_mask))
        g_total = masked if g_total is None else ops.add(g_total, masked)
    if g_total is None:
        # No neighbours at all (isolated atoms): zero features.
        g_total = Tensor(np.zeros((batch * n_nei, m_width)))

    g_matrix = ops.reshape(g_total, (batch, n_nei, m_width))
    # A = (1/N) R^T G  -> (B, 4, M)
    a_matrix = ops.mul(ops.matmul(r_transpose, g_matrix), 1.0 / n_nei)
    a_axis = a_matrix[:, :, :m2]
    # D = A^T A_axis -> (B, M, M2)
    d_matrix = ops.matmul(ops.transpose(a_matrix, (0, 2, 1)), a_axis)
    d_flat = ops.reshape(d_matrix, (batch, m_width * m2))
    d_std = ops.div(
        ops.sub(d_flat, Tensor(descriptor_mean.reshape(1, -1))),
        Tensor(descriptor_std.reshape(1, -1)),
    )

    energies = ops.add(fittings[center_type](d_std), float(energy_bias))

    return DescriptorGraph(
        energies=energies,
        s_input=s_flat,
        r_transpose_input=r_transpose,
    )
