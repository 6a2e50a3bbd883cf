"""DeepPot-SE descriptor, framework-free.

The descriptor of centre atom i is

    A_i = (1/N) R_i^T G_i                (4 x M)
    D_i = A_i^T A_i[:, :M2]              (M x M2, flattened)

where G_i stacks the per-neighbour embedding features and R_i is the smoothed
environment matrix.  D_i is invariant under translations and rotations (R_i
enters only through the Gram-like contraction) and under neighbour
permutations (the sum over neighbours).

:func:`raw_descriptors` evaluates it, un-standardized, with the fast kernels —
what the trainer's statistics pass reads.  The same computation as a graph of
framework tensors (for parameter gradients and the §III-B.1 baseline) is
:func:`repro.training.graph.build_descriptor_graph`.
"""

from __future__ import annotations

import numpy as np

from .envmat import LocalEnvironment


def raw_descriptors(
    env: LocalEnvironment,
    center_type: int,
    atom_indices: np.ndarray,
    fast_embeddings,
    axis_neurons: int,
) -> np.ndarray:
    """Un-standardized flattened descriptors computed with the fast kernels.

    Used by the trainer to estimate the standardization statistics before any
    graph is built.
    """
    sub = env.select(atom_indices)
    batch, n_nei = sub.s.shape
    m_width = next(iter(fast_embeddings.values())).out_features
    m2 = int(axis_neurons)

    g = np.zeros((batch, n_nei, m_width))
    for tj in np.unique(sub.neighbor_types):
        if tj < 0:
            continue
        sel = sub.neighbor_types == tj
        s_sel = sub.s[sel]
        g_sel = fast_embeddings[(center_type, int(tj))].forward(s_sel[:, None], cache=False)
        g[sel] = g_sel
    a = np.einsum("bnk,bnm->bkm", sub.R, g) / n_nei
    d = np.einsum("bkm,bkq->bmq", a, a[:, :, :m2])
    return d.reshape(batch, m_width * m2)
