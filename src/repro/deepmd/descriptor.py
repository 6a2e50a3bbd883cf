"""DeepPot-SE descriptor, framework-free.

The descriptor of centre atom i is

    A_i = (1/N) R_i^T G_i                (4 x M)
    D_i = A_i^T A_i[:, :M2]              (M x M2, flattened)

where G_i stacks the per-neighbour embedding features and R_i is the smoothed
environment matrix.  D_i is invariant under translations and rotations (R_i
enters only through the Gram-like contraction) and under neighbour
permutations (the sum over neighbours).

This is the one descriptor outside the inference hot path.
:func:`raw_descriptors` evaluates it, un-standardized, with the fast kernels
and keeps a :class:`DescriptorTape`; :func:`descriptor_vjp` takes dL/dD back
through it to the per-neighbour-type dL/dG rows — the two matmuls the hot
path uses for dE/dA and dE/dG.  The trainer's statistics pass reads the
descriptors, its gradient step the pair.  The same computation
as a graph of autograd tensors, the gradient golden and the §III-B.1
baseline, is :func:`repro.reference.graph.build_descriptor_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envmat import LocalEnvironment


@dataclass
class DescriptorTape:
    """What :func:`descriptor_vjp` reads back from one forward."""

    r: np.ndarray  # (B, N, 4) environment matrix
    a: np.ndarray  # (B, 4, M) A = R^T G / N
    axis_neurons: int
    #: (neighbour type, its slots in the (B, N) block, the net's forward tape)
    nets: list[tuple[int, np.ndarray, list]]


def raw_descriptors(
    env: LocalEnvironment,
    center_type: int,
    atom_indices: np.ndarray,
    fast_embeddings,
    axis_neurons: int,
) -> tuple[np.ndarray, DescriptorTape]:
    """Un-standardized flattened descriptors of ``atom_indices`` (one centre type) and their tape."""
    sub = env.select(atom_indices)
    batch, n_nei = sub.s.shape
    m_width = next(iter(fast_embeddings.values())).out_features
    m2 = int(axis_neurons)

    g = np.zeros((batch, n_nei, m_width))
    nets = []
    for tj in np.unique(sub.neighbor_types):
        if tj < 0:
            continue
        sel = sub.neighbor_types == tj
        s_sel = sub.s[sel]
        tape: list = []
        g_sel = fast_embeddings[(center_type, int(tj))].forward(s_sel[:, None], cache=tape)
        g[sel] = g_sel
        nets.append((int(tj), sel, tape))
    a = np.einsum("bnk,bnm->bkm", sub.R, g) / n_nei
    d = np.einsum("bkm,bkq->bmq", a, a[:, :, :m2])
    return d.reshape(batch, m_width * m2), DescriptorTape(sub.R, a, m2, nets)


def descriptor_vjp(tape: DescriptorTape, grad_d: np.ndarray) -> list[tuple[int, np.ndarray, list]]:
    """dL/dD -> dL/dA -> dL/dG: ``(neighbour type, dL/dG rows, forward tape)`` per embedding net used."""
    batch, _, m_width = tape.a.shape
    m2 = tape.axis_neurons
    grad_d = grad_d.reshape(batch, m_width, m2)
    grad_a = np.matmul(tape.a[:, :, :m2], grad_d.transpose(0, 2, 1))  # (B, 4, M)
    grad_a[:, :, :m2] += np.matmul(tape.a, grad_d)
    grad_g = np.matmul(tape.r, grad_a) / tape.r.shape[1]  # (B, N, M)
    return [(tj, grad_g[sel], net_tape) for tj, sel, net_tape in tape.nets]
