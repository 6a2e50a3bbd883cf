"""How a half pair list becomes energies and forces.

The skeleton every classical pair style shares (LAMMPS' neighbour loop +
Newton scatter); a force field adds only its radial arithmetic in between.
``w`` is a :class:`~repro.md.workspace.Workspace` or :data:`~repro.md.workspace.UNPOOLED`.
"""

from __future__ import annotations

import numpy as np

from ..box import Box
from ..workspace import minimum_image_into, scatter_add_scalars, scatter_add_vectors


# reprolint: hot-path
def stage_pairs(prefix: str, positions: np.ndarray, box: Box, pairs: np.ndarray, w):
    """``(i, j, delta, r2)`` of every pair, in ``w``'s ``<prefix>.*`` buffers:
    contiguous index copies (each feeds one take and several bincounts), the
    minimum-image ``delta = x_i - x_j`` and its squared length."""
    n_pairs = len(pairs)
    i = w.capacity(f"{prefix}.i", n_pairs, dtype=np.int64)
    j = w.capacity(f"{prefix}.j", n_pairs, dtype=np.int64)
    np.copyto(i, pairs[:, 0])
    np.copyto(j, pairs[:, 1])
    delta = w.capacity(f"{prefix}.delta", n_pairs, (3,))
    gather = w.capacity(f"{prefix}.gather", n_pairs, (3,))
    np.take(positions, i, axis=0, out=delta)
    np.take(positions, j, axis=0, out=gather)
    delta -= gather
    minimum_image_into(box, delta, w.capacity(f"{prefix}.scratch", n_pairs))
    r2 = w.capacity(f"{prefix}.r2", n_pairs)
    np.einsum("ij,ij->i", delta, delta, out=r2)
    return i, j, delta, r2


# reprolint: hot-path
def compress_pairs(prefix: str, keep: np.ndarray, i, j, delta, radial, w):
    """The ``keep`` rows of staged pairs (``radial`` is ``r2``, or ``r`` once
    rooted in place), for styles whose ``exp`` costs more than the compaction."""
    m = len(keep)
    kept = (
        w.capacity(f"{prefix}.i", m, dtype=np.int64),
        w.capacity(f"{prefix}.j", m, dtype=np.int64),
        w.capacity(f"{prefix}.delta", m, (3,)),
        w.capacity(f"{prefix}.r", m),
    )
    for source, out in zip((i, j, delta, radial), kept):
        np.take(source, keep, axis=0, out=out)
    return kept


# reprolint: hot-path
def scatter_pairs(forces, per_atom, i, j, pair_forces, pair_energy) -> float:
    """Newton scatter of ``pair_forces`` (on ``i`` of each pair) and of half
    each pair's energy (halved in place) onto both members; the total energy."""
    scatter_add_vectors(forces, i, j, pair_forces)
    energy = float(pair_energy.sum())
    pair_energy *= 0.5
    scatter_add_scalars(per_atom, i, pair_energy)
    scatter_add_scalars(per_atom, j, pair_energy)
    return energy
