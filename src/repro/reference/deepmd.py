"""The Deep Potential references that are not the scalar loop.

* :func:`tabulated_evaluate` — the per-key Hermite interpolation the batched
  ``TabulatedEmbeddingSet.evaluate_batched`` is pinned to at 1e-12
  (``tests/test_deepmd_compression.py``); frozen by its RL007 fingerprint.
* :func:`evaluate_with_framework` — the paper's *baseline* (§III-B.1): the
  embedding and fitting networks run inside :mod:`repro.reference.nnframework`, one
  ``Session`` run per centre type per evaluation, dE/ds and dE/dR by automatic
  differentiation.  Same double-precision numbers as
  ``DeepPotential.evaluate`` plus the framework's fixed per-run overhead —
  the overhead the paper removes and ``perfmodel/`` prices for Fig 9.
"""

from __future__ import annotations

import numpy as np

from ..deepmd.compression import TabulatedEmbeddingSet
from ..deepmd.envmat import LocalEnvironment
from ..deepmd.model import DeepPotential, ModelOutput
from ..deepmd.precision import DOUBLE
from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData
from .nnframework.session import Session
from .graph import build_descriptor_graph, framework_nets


def tabulated_evaluate(
    table_set: TabulatedEmbeddingSet, key: tuple[int, int], s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated ``(G, dG/ds)`` for the scalar inputs ``s``, one table.

    One (centre, neighbour) table at a time, no stacking.  Do not optimize
    this function.  Values outside the tabulated range are clamped to the end
    nodes, and the derivative there is zero (the value is
    constant-extrapolated, so a non-zero dG/ds would make forces inconsistent
    with the energy for close approaches).
    """
    table = table_set.tables[key]
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    grid = table.grid
    h = grid[1] - grid[0]
    clamped = np.clip(s, grid[0], grid[-1])
    idx = np.minimum((clamped - grid[0]) / h, len(grid) - 2).astype(int)
    t = (clamped - grid[idx]) / h

    y0 = table.values[idx]
    y1 = table.values[idx + 1]
    d0 = table.derivatives[idx] * h
    d1 = table.derivatives[idx + 1] * h

    t = t[:, None]
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    values = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1

    dh00 = (6.0 * t2 - 6.0 * t) / h
    dh10 = (3.0 * t2 - 4.0 * t + 1.0) / h
    dh01 = (-6.0 * t2 + 6.0 * t) / h
    dh11 = (3.0 * t2 - 2.0 * t) / h
    derivs = dh00 * y0 + dh10 * d0 + dh01 * y1 + dh11 * d1
    out_of_range = (s < grid[0]) | (s > grid[-1])
    if np.any(out_of_range):
        derivs[out_of_range] = 0.0
    return values, derivs


def evaluate_with_framework(
    model: DeepPotential,
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    session: Session | None = None,
    environment: LocalEnvironment | None = None,
) -> ModelOutput:
    """Energies/forces with the embedding+fitting graphs run in the framework.

    One session run is issued per centre type per evaluation, mirroring the
    original hybrid-parallel model in which every thread executes a
    TensorFlow session; the session accumulates the modelled fixed
    overhead that §III-B.1 measures at ~4 ms per run.
    """
    session = session or Session()
    embeddings, fittings = framework_nets(model)
    env = environment if environment is not None else model.build_environment(atoms, box, neighbors)
    n = env.n_atoms
    per_atom = np.zeros(n)
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))

    for ti in range(model.n_types):
        idx = np.nonzero(env.types == ti)[0]
        if len(idx) == 0:
            continue

        def run_graph(ti=ti, idx=idx):
            graph = build_descriptor_graph(
                env,
                ti,
                idx,
                embeddings,
                fittings,
                model.config.axis_neurons,
                model.descriptor_mean[ti],
                model.descriptor_std[ti],
                model.energy_bias[ti],
                inputs_require_grad=True,
            )
            total = graph.energies.sum()
            total.backward()
            return graph

        graph = session.run(run_graph)
        sub = env.select(idx)
        batch, n_nei = sub.s.shape
        per_atom[idx] = graph.energies.data.reshape(batch)
        grad_s_embed = graph.s_input.grad.reshape(batch, n_nei)
        grad_r = np.transpose(graph.r_transpose_input.grad, (0, 2, 1))
        g_d = model._geometric_chain(sub, grad_r, grad_s_embed)
        model._scatter_forces(forces, idx, sub, g_d, np.flatnonzero(sub.neighbor_types >= 0))
        virial -= np.einsum("bni,bnj->ij", sub.displacements, g_d)

    return ModelOutput(
        energy=float(per_atom.sum()),
        per_atom_energy=per_atom,
        forces=forces,
        precision=DOUBLE.name,
        used_framework=True,
        virial=virial,
    )
