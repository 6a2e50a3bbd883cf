"""How a half pair list becomes energies and forces.

The skeleton every classical pair style shares (LAMMPS' neighbour loop +
Newton scatter); a force field adds only its radial arithmetic in between.
``w`` is a :class:`~repro.md.workspace.Workspace` or :data:`~repro.md.workspace.UNPOOLED`.

Masked pair styles (LJ, Morse) run in blocks of :data:`PAIR_BLOCK_ROWS` rows
of the pair list (:func:`pair_blocks`): each block is staged into
block-sized buffers and its arithmetic runs while they are cache-hot, writing
its rows of one whole-length pair-energy array and one whole-length
component-major ``(3, n_pairs)`` force array.  The block size never selects
arithmetic: every per-pair value depends on its own row only, and the
reductions that do depend on the array as a whole — the pairwise
``energy.sum()`` and the ``np.bincount`` scatters, whose summation order is
fixed by the array they are given — run once over those whole-length arrays
after the loop, exactly as over an unblocked kernel's.  Styles that compact
their pairs first (Gupta, water) stage all rows in one call.

Staged displacements are component-major: ``delta`` is the ``(n_pairs, 3)``
view of a ``(3, n_pairs)`` buffer, so the per-axis minimum image, ``r2``, the
force product and the scatter's columns all run on contiguous rows.
"""

from __future__ import annotations

import numpy as np

from ..box import Box
from ..workspace import minimum_image_into, scatter_add_scalars, scatter_add_vectors

#: Rows of the pair list one block stages: its ~1 MB of temporaries stay in L2.
PAIR_BLOCK_ROWS = 8192


# reprolint: hot-path
def pair_operands(prefix: str, positions: np.ndarray, pairs: np.ndarray, w):
    """``(coords, i, j)`` in ``w``'s ``<prefix>.*`` buffers: the component-major
    ``(3, n)`` copy of ``positions`` staging gathers from, and contiguous
    copies of the two index columns of ``pairs`` (each feeds the gathers and
    several bincounts)."""
    coords = w.buffer(f"{prefix}.coords", (3, len(positions)))
    np.copyto(coords, positions.T)
    n_pairs = len(pairs)
    i = w.capacity(f"{prefix}.i", n_pairs, dtype=np.int64)
    j = w.capacity(f"{prefix}.j", n_pairs, dtype=np.int64)
    np.copyto(i, pairs[:, 0])
    np.copyto(j, pairs[:, 1])
    return coords, i, j


# reprolint: hot-path
def stage_pairs(prefix: str, coords: np.ndarray, box: Box, i: np.ndarray, j: np.ndarray, w):
    """``(delta, r2)`` of the pairs ``(i[k], j[k])`` — all rows or one block's
    — in ``w``'s ``<prefix>.*`` buffers: the minimum-image ``delta = x_i - x_j``
    and its squared length.  ``delta`` is the ``(n_pairs, 3)`` view of a
    component-major ``(3, n_pairs)`` buffer, so every per-axis pass runs on a
    contiguous row."""
    n_pairs = len(i)
    columns = w.capacity(f"{prefix}.delta", 3 * n_pairs).reshape(3, n_pairs)
    gather = w.capacity(f"{prefix}.gather", 3 * n_pairs).reshape(3, n_pairs)
    np.take(coords, i, axis=1, out=columns)
    np.take(coords, j, axis=1, out=gather)
    columns -= gather
    delta = columns.T
    scratch = w.capacity(f"{prefix}.scratch", n_pairs)
    minimum_image_into(box, delta, scratch)
    # summed (x^2 + z^2) + y^2, as np.einsum("ij,ij->i") sums a contiguous
    # (n, 3) row: r2 is bitwise the row-major einsum's (pinned by a test)
    r2 = w.capacity(f"{prefix}.r2", n_pairs)
    np.multiply(columns[0], columns[0], out=r2)
    np.multiply(columns[2], columns[2], out=scratch)
    r2 += scratch
    np.multiply(columns[1], columns[1], out=scratch)
    r2 += scratch
    return delta, r2


# reprolint: hot-path
def pair_blocks(prefix: str, coords: np.ndarray, box: Box, i: np.ndarray, j: np.ndarray, w):
    """``(rows, delta, r2)`` per block of :data:`PAIR_BLOCK_ROWS` pairs, in
    pair order: ``rows`` is the block's ``slice`` of the pair list and
    ``delta``/``r2`` are its rows staged by :func:`stage_pairs`."""
    n_pairs = len(i)
    for lo in range(0, n_pairs, PAIR_BLOCK_ROWS):
        rows = slice(lo, min(lo + PAIR_BLOCK_ROWS, n_pairs))
        yield (rows, *stage_pairs(prefix, coords, box, i[rows], j[rows], w))


# reprolint: hot-path
def compress_pairs(prefix: str, keep: np.ndarray, i, j, delta, radial, w):
    """The ``keep`` rows of staged pairs (``radial`` is ``r2``, or ``r`` once
    rooted in place), for styles whose ``exp`` costs more than the compaction;
    the kept ``delta`` keeps the component-major layout."""
    m = len(keep)
    kept_delta = w.capacity(f"{prefix}.delta", 3 * m).reshape(3, m)
    np.take(delta.T, keep, axis=1, out=kept_delta)
    kept = (
        w.capacity(f"{prefix}.i", m, dtype=np.int64),
        w.capacity(f"{prefix}.j", m, dtype=np.int64),
        w.capacity(f"{prefix}.r", m),
    )
    for source, out in zip((i, j, radial), kept):
        np.take(source, keep, out=out)
    return kept[0], kept[1], kept_delta.T, kept[2]


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
