"""Scalar (per-atom loop) golden reference for the Deep Potential hot path.

The production inference path (:mod:`repro.deepmd.envmat` and
:meth:`repro.deepmd.model.DeepPotential.evaluate`) is fully batched NumPy.
This module keeps the original loop-based formulation alive as golden code:

* :func:`build_local_environment_scalar` builds the environment matrices with
  an explicit per-atom Python loop (the implementation the vectorized
  ``build_local_environment`` replaced), and
* :func:`evaluate_scalar` evaluates energies, forces and the virial atom by
  atom and neighbour by neighbour, calling the embedding and fitting kernels
  on single rows.

Both are deliberately slow and deliberately simple: every tensor contraction
of the batched path appears here as a loop whose body is a handful of scalar
or per-row operations, so the parity suite
(``tests/test_deepmd_vectorized_parity.py``) can pin the fast path to this
reference at double-precision tolerance 1e-10.  Do not optimize this module:
the whole file is frozen by its RL007 fingerprint
(``analysis/contracts.py::GOLDEN_SITES``).  It drives the nets through the
parked ``forward(cache=True)`` / ``backward_input(grad)`` pair, which is
single-threaded by construction.
"""

from __future__ import annotations

import numpy as np

from ..deepmd.envmat import LocalEnvironment
from ..deepmd.model import ModelOutput
from ..deepmd.smoothing import switching_derivative, switching_function
from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData


def build_local_environment_scalar(
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    cutoff: float,
    cutoff_smooth: float,
    max_neighbors: int | None = None,
    sort_neighbors_by_type: bool = True,
) -> LocalEnvironment:
    """Per-atom-loop construction of the dense local environments.

    Semantics are identical to :func:`repro.deepmd.envmat.build_local_environment`
    (same ordering, same truncation, same padding); only the implementation
    strategy differs.
    """
    if cutoff <= 0 or not 0 < cutoff_smooth < cutoff:
        raise ValueError("require 0 < cutoff_smooth < cutoff")
    n = len(atoms)
    nei = neighbors.neighbors
    n_pad = nei.shape[1] if max_neighbors is None else int(max_neighbors)
    n_pad = max(n_pad, 1)

    positions = atoms.positions
    types = atoms.types

    slot_valid = nei >= 0
    safe_idx = np.where(slot_valid, nei, 0)
    disp = positions[safe_idx] - positions[:, None, :]
    disp = box.minimum_image(disp)
    dist = np.linalg.norm(disp, axis=2)
    within = slot_valid & (dist > 0.0) & (dist <= cutoff)
    nei_types_raw = np.where(slot_valid, types[safe_idx], -1)

    R = np.zeros((n, n_pad, 4))
    displacements = np.zeros((n, n_pad, 3))
    distances = np.zeros((n, n_pad))
    mask = np.zeros((n, n_pad))
    neighbor_indices = np.full((n, n_pad), -1, dtype=np.int64)
    neighbor_types = np.full((n, n_pad), -1, dtype=np.int64)

    for i in range(n):
        cols = np.nonzero(within[i])[0]
        if len(cols) == 0:
            continue
        if len(cols) > n_pad:
            # Keep the closest neighbours if the padding budget is exceeded.
            order = np.argsort(dist[i, cols], kind="stable")
            cols = cols[order[:n_pad]]
        if sort_neighbors_by_type:
            order = np.lexsort((dist[i, cols], nei_types_raw[i, cols]))
        else:
            order = np.argsort(dist[i, cols], kind="stable")
        cols = cols[order]
        m = len(cols)
        displacements[i, :m] = disp[i, cols]
        distances[i, :m] = dist[i, cols]
        neighbor_indices[i, :m] = nei[i, cols]
        neighbor_types[i, :m] = nei_types_raw[i, cols]
        mask[i, :m] = 1.0

    s_values = switching_function(distances, cutoff, cutoff_smooth) * mask
    ds_values = switching_derivative(distances, cutoff, cutoff_smooth) * mask

    safe_dist = np.where(distances > 0.0, distances, 1.0)
    unit = displacements / safe_dist[..., None]
    R[..., 0] = s_values
    R[..., 1:] = s_values[..., None] * unit
    R *= mask[..., None]

    return LocalEnvironment(
        R=R,
        displacements=displacements,
        distances=distances,
        s=s_values,
        ds_dr=ds_values,
        mask=mask,
        neighbor_indices=neighbor_indices,
        neighbor_types=neighbor_types,
        types=types.copy(),
        cutoff=cutoff,
        cutoff_smooth=cutoff_smooth,
    )


def atom_raw_descriptor(model, env: LocalEnvironment, atom_index: int) -> np.ndarray:
    """Un-standardized flattened descriptor of one atom, computed per neighbour."""
    i = int(atom_index)
    n_nei = env.max_neighbors
    m_width = model.config.embedding_sizes[-1]
    m2 = model.config.axis_neurons
    center_type = int(env.types[i])
    fast_emb = model.fast_embeddings()

    g = np.zeros((n_nei, m_width))
    for k in range(n_nei):
        if env.mask[i, k] <= 0.0:
            continue
        tj = int(env.neighbor_types[i, k])
        g[k] = fast_emb[(center_type, tj)].forward(
            np.array([[env.s[i, k]]]), cache=False
        )[0]

    a = np.zeros((4, m_width))
    for k in range(n_nei):
        a += np.outer(env.R[i, k], g[k])
    a /= n_nei
    d = a.T @ a[:, :m2]
    return d.reshape(m_width * m2)


def evaluate_scalar(
    model,
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    environment: LocalEnvironment | None = None,
):
    """Golden per-atom inference: energies, forces and virial, loop by loop.

    Double precision only; mirrors the math of
    :meth:`repro.deepmd.model.DeepPotential.evaluate` exactly, but every atom
    is processed independently and every neighbour contribution is accumulated
    with explicit Python loops.
    """
    env = (
        environment
        if environment is not None
        else build_local_environment_scalar(
            atoms,
            box,
            neighbors,
            cutoff=model.config.cutoff,
            cutoff_smooth=model.config.cutoff_smooth,
            max_neighbors=model.config.max_neighbors,
        )
    )
    n = env.n_atoms
    n_nei = env.max_neighbors
    m_width = model.config.embedding_sizes[-1]
    m2 = model.config.axis_neurons
    fast_emb = model.fast_embeddings()
    fast_fit = model.fast_fittings()

    per_atom = np.zeros(n)
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))

    for i in range(n):
        center_type = int(env.types[i])

        # --- embedding features, one neighbour at a time (caches kept for the
        # backward pass)
        g = np.zeros((n_nei, m_width))
        caches: list[tuple[object, object] | None] = [None] * n_nei
        for k in range(n_nei):
            if env.mask[i, k] <= 0.0:
                continue
            tj = int(env.neighbor_types[i, k])
            net = fast_emb[(center_type, tj)]
            g[k] = net.forward(np.array([[env.s[i, k]]]), cache=True)[0]
            caches[k] = (net, net._cache)

        # --- descriptor: A = (1/N) R^T G accumulated neighbour by neighbour
        a = np.zeros((4, m_width))
        for k in range(n_nei):
            a += np.outer(env.R[i, k], g[k])
        a /= n_nei
        a_axis = a[:, :m2]
        d_flat = (a.T @ a_axis).reshape(m_width * m2)
        mean = model.descriptor_mean[center_type]
        std = model.descriptor_std[center_type]
        d_std = (d_flat - mean) / std

        # --- fitting net forward + backward (dE/dD)
        fit_net = fast_fit[center_type]
        energy_i = fit_net.forward(d_std[None, :], cache=True)
        per_atom[i] = float(energy_i[0, 0]) + model.energy_bias[center_type]
        grad_dstd = fit_net.backward_input(np.ones((1, 1)))[0]
        grad_d = (grad_dstd / std).reshape(m_width, m2)

        # --- descriptor backward: dE/dA, then per-neighbour dE/dR, dE/dG
        grad_a = np.einsum("kq,mq->km", a_axis, grad_d)
        grad_a[:, :m2] += np.einsum("km,mq->kq", a, grad_d)

        for k in range(n_nei):
            if env.mask[i, k] <= 0.0:
                continue
            grad_r_k = (grad_a @ g[k]) / n_nei  # (4,) dE/dR_ik
            grad_g_k = (env.R[i, k] @ grad_a) / n_nei  # (M,) dE/dG_ik
            net, cache = caches[k]
            net._cache = cache
            grad_s_k = float(net.backward_input(grad_g_k[None, :])[0, 0])

            # --- geometric chain for this one neighbour
            r = env.distances[i, k]
            d_vec = env.displacements[i, k]
            unit = d_vec / r
            s = env.s[i, k]
            ds_dr = env.ds_dr[i, k]
            h = s / r
            dh_dr = ds_dr / r - s / (r * r)
            grad_s_total = grad_s_k + grad_r_k[0]
            grad_r_vec = grad_r_k[1:4]
            radial = grad_s_total * ds_dr + float(grad_r_vec @ d_vec) * dh_dr
            g_d = radial * unit + grad_r_vec * h

            # --- scatter: F_i += dE/dd, F_j -= dE/dd; virial -= d (x) dE/dd
            j = int(env.neighbor_indices[i, k])
            forces[i] += g_d
            forces[j] -= g_d
            virial -= np.outer(d_vec, g_d)

    return ModelOutput(
        energy=float(per_atom.sum()),
        per_atom_energy=per_atom,
        forces=forces,
        precision="double",
        used_framework=False,
        virial=virial,
    )
