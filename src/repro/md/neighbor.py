"""Neighbour-list construction (vectorized binned build with skin, LAMMPS-style).

The paper's configuration uses a 2 A skin and rebuilds the neighbour list
every 50 steps; between rebuilds the list is only considered stale when an
atom has moved more than half the skin.  Both behaviours are reproduced here.

A build runs one pair search and returns a :class:`NeighborData` holding what
the search produced:

* the *half pair list* (each i<j pair once) — the layout the pairwise,
  molecular and density potentials read, with Newton's third law enabled;
* the *padded full table* (``neighbors[i, k]`` = index of the k-th neighbour
  of atom i, -1 padded) — the layout the Deep Potential environment matrix
  reads.  It is derived from the pair list on **first read** and cached, so a
  run whose force field only reads pairs never sorts or stores it.

**Primary rows.**  A rank of the domain-decomposed engine searches its
owned+ghost system but only ever *centres* an evaluation on the rows it
computes (its owned atoms; its node-box share under ``node_balance``); ghosts
appear as neighbours only, exactly as in LAMMPS.  ``build_neighbor_data(...,
primary=mask)`` states that as data: the search returns the pairs with at
least one primary member — pairs between two non-primary rows are never
generated, let alone distance-checked — and the padded table has rows for
primary centres only.  ``primary=None`` (every serial caller) is the full
search, byte for byte.

The production pair search (:func:`_cell_list_pairs`) is a fully vectorized
binned build: atoms are binned with one stable sort, the half stencil of cell
pairs is enumerated as flat arrays (with per-axis shift sets that degrade
gracefully for thin/slab boxes instead of falling back to O(N^2)), and
candidate pairs are expanded with ``repeat`` — no Python loop over cells,
so cost scales with atoms and *occupied* cells, never with total
cells.  The O(N^2) :func:`_brute_force_pairs` search is kept un-optimized as
the golden reference (the ``reference/scalar.py`` pattern) and is only routed
to below :data:`BRUTE_FORCE_THRESHOLD`.

**Blocked candidates.**  The search never holds every candidate at once.  One
*entry* is (cell pair, left atom); its candidates are a contiguous run of the
right cell.  The entries are cut into blocks of about
:data:`PAIR_BLOCK_CANDIDATES` candidates, and each block is expanded,
prefiltered, decided and appended before the next one starts.  Blocks run
in entry order and every decision is per candidate, so the output is the
same pairs in the same order at *any* block size (pinned with the constant
at 1, 7 and above the candidate total).

**Two-sided fp32 prefilter.**  Candidates are measured on fp32 Cartesian
rows, wrapped on periodic axes and taken from the lowest atom on open ones,
with each cell pair's periodic image folded into its entries' left rows (a
``rint`` per candidate only on periodic axes of fewer than 4 cells).  One
bound ``e`` covers both passes' rounding: fp32 terms that grow with the box
and the atoms' extent (never with how far from the origin they sit) plus a
``max_abs * 2**-52`` term for the fp64 pass on raw coordinates.  A
candidate is kept at ``d^2 <= (c - e)^2`` and dropped at
``d^2 > (c + e)^2``; only the thin band between, plus near-zero distances,
runs the arithmetic of :func:`_brute_force_pairs`.  So every decision is the
exact pass's, and the two strategies agree pair-for-pair even on exact ties.
An entry whose atom the prefilter would drop against the right cell's
bounding box expands to nothing: rounding is monotonic, so none of its
candidates can measure closer.

A build refuses non-finite positions with a ``ValueError`` naming the first
bad row; a NaN or inf row would otherwise get zero neighbours (every
distance comparison with it is false) and the run would go on.  It also
refuses two rows at the same place (a kept pair at zero minimum-image
distance), naming both: pair potentials would divide by zero, and the Deep
Potential environment would drop the pair and return a finite energy.  The
binned search tests the squared distances its exact pass computes (a
near-zero candidate always takes that pass).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .atoms import Atoms
from .box import Box
from .workspace import UNPOOLED

#: Below this atom count the O(N^2) brute-force search is still competitive.
#: Measured crossover of the vectorized binned build vs brute force (this
#: container, numpy 2.x, densities 0.03-0.09 atoms/A^3, search radius ~5 A):
#: brute wins below ~80 atoms (N=64: 0.16 ms vs 0.29 ms), the binned build
#: wins from ~100 (N=128: 0.75 ms vs 0.45 ms) and the gap explodes with N
#: (N=1400: 157 ms vs 9 ms; N=4000: 1542 ms vs 16 ms).  The previous value of
#: 1500 sat >2x past the old crossover — a 1400-atom build paid ~160 ms for
#: brute force when the cell list cost ~20 ms.  96 keeps brute force for
#: genuinely tiny systems only; above it no O(N^2) path is reachable.
#: ``benchmarks/bench_neighbor_build.py`` re-measures and asserts the choice.
BRUTE_FORCE_THRESHOLD = 96

#: Candidates per block of the binned pair search (whole entries, so a block
#: can run longer when one atom alone reaches more).  A block's index and
#: prefilter arrays stay around 1 MiB, so they live in cache; a 10 976-atom
#: copper build (cutoff 5 + skin 0.4 A) peaks at ~17 MiB of temporaries
#: instead of the 117 MiB its 2.24 M candidates took when they were written
#: out at once.  Measured on that build (best / median of 15 interleaved
#: builds, one x86-64 core of a shared host): 2**14 52 / 57 ms, 2**15 34 /
#: 50 ms, 2**16 37 / 48 ms, 2**17 44 / 46 ms; below 2**14 the per-block
#: overhead dominates (2**12 87 / 100 ms).  The value never changes which
#: pairs come back or their order — only how many candidates are in flight.
PAIR_BLOCK_CANDIDATES = 2**15


class NeighborData:
    """The product of one neighbour-list build.

    ``pairs`` is what the search produced; the padded ``neighbors``/``counts``
    table is derived from it on first read and cached (see the module
    docstring).  With a ``primary`` mask only primary centres get a row —
    every other row is empty.  A caller that already holds a table passes it
    as ``neighbors=``/``counts=``.
    """

    def __init__(
        self,
        pairs: np.ndarray,  # (n_pairs, 2), int64, i < j
        cutoff: float,
        skin: float,
        n_atoms: int | None = None,
        primary: np.ndarray | None = None,  # (n,), bool
        neighbors: np.ndarray | None = None,  # (n, max_nei), int64, padded with -1
        counts: np.ndarray | None = None,  # (n,), int64
    ) -> None:
        if (neighbors is None) != (counts is None):
            raise ValueError("neighbors and counts come together")
        if n_atoms is None and counts is None:
            raise ValueError("n_atoms is required when no table is given")
        self.pairs = pairs
        self.cutoff = cutoff
        self.skin = skin
        self.n_atoms = len(counts) if n_atoms is None else int(n_atoms)
        self.primary = primary
        self._table = None if neighbors is None else (neighbors, counts)

    @property
    def has_table(self) -> bool:
        """Whether the padded table exists yet (given, or already read)."""
        return self._table is not None

    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        if self._table is None:
            centres = np.concatenate([self.pairs[:, 0], self.pairs[:, 1]])
            others = np.concatenate([self.pairs[:, 1], self.pairs[:, 0]])
            if self.primary is not None:
                keep = self.primary[centres]
                centres, others = centres[keep], others[keep]
            self._table = pairs_to_padded(self.n_atoms, centres, others)
        return self._table

    @property
    def neighbors(self) -> np.ndarray:
        return self._padded()[0]

    @property
    def counts(self) -> np.ndarray:
        return self._padded()[1]

    @property
    def max_neighbors(self) -> int:
        return self.neighbors.shape[1]

    def neighbors_of(self, i: int) -> np.ndarray:
        """The neighbour indices of atom ``i`` (without padding)."""
        return self.neighbors[i, : self.counts[i]]


def pairs_to_padded(
    n: int, pairs_i: np.ndarray, pairs_j: np.ndarray, workspace=UNPOOLED
) -> tuple[np.ndarray, np.ndarray]:
    """Convert directed pair arrays into a padded per-atom neighbour table.

    The table lands in ``workspace``'s grow-only ``neighbors`` buffer (the
    serving pack builds one per batch); ``counts`` is always freshly owned.
    """
    counts = np.bincount(pairs_i, minlength=n).astype(np.int64, copy=False)
    width = max(int(np.maximum.reduce(counts, initial=0)), 1)
    neighbors = workspace.capacity("neighbors", n * width, dtype=np.int64).reshape(n, width)
    neighbors.fill(-1)
    if len(pairs_i):
        # grouped by atom in a stable order, the entries fill the first
        # ``counts`` slots of each row, row after row
        neighbors[np.arange(width) < counts[:, None]] = pairs_j[pairs_i.argsort(kind="stable")]
    return neighbors, counts


def _brute_force_pairs(positions: np.ndarray, box: Box, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """All i<j pairs within ``cutoff`` using an O(N^2) minimum-image search."""
    n = len(positions)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    delta = positions[:, None, :] - positions[None, :, :]
    delta = box.minimum_image(delta)
    dist2 = np.einsum("ijk,ijk->ij", delta, delta)
    iu, ju = np.triu_indices(n, k=1)
    mask = dist2[iu, ju] <= cutoff * cutoff
    return iu[mask].astype(np.int64), ju[mask].astype(np.int64)


def _axis_shifts(n_cells_axis: int, periodic_axis: bool) -> np.ndarray:
    """Stencil shift values along one axis of an ``n_cells_axis``-cell grid.

    Cell sizes are >= the search radius by construction, so +-1 cells always
    suffice.  Thin axes shrink the set instead of forcing an O(N^2) fallback:
    with 1 cell every atom shares the cell and only the 0 shift remains, and
    on a *periodic* axis with 2 cells a +1 and a -1 shift wrap to the *same*
    neighbour cell, so one forward shift reaches it from either side and the
    half-stencil filter still sees every unordered cell pair exactly once.
    A non-periodic 2-cell axis has no wrap aliasing and must keep the full
    +-1 set — dropping the -1 shift there loses the diagonal cell pairs that
    the half-stencil filter only accepts from their lower-flat side.
    """
    if n_cells_axis == 1:
        return np.array([0], dtype=np.int64)
    if n_cells_axis == 2 and periodic_axis:
        return np.array([0, 1], dtype=np.int64)
    return np.array([-1, 0, 1], dtype=np.int64)


def _bin_atoms(positions: np.ndarray, box: Box, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign every atom to a cell of an ``n_cells`` grid spanning the box.

    Returns ``(n_cells, flat_index, frac)``.  Periodic axes wrap the
    fractional coordinate ``frac``; non-periodic axes *clamp* it into [0, 1]
    — wrapping there would teleport an atom that drifted more than one box
    length outside into an interior cell and silently drop its pairs.
    Clamping is a contraction, so two atoms within the search radius still
    land at most one cell apart and the +-1 stencil stays sufficient.  An
    open axis of infinite length is binned over its atoms' extent instead.
    """
    lengths = box.lengths
    infinite = np.isinf(lengths)
    if infinite.any():
        low = np.where(infinite, positions.min(axis=0), 0.0)
        span = positions.max(axis=0) - low
        positions = positions - low
        lengths = np.where(infinite, np.maximum(span, cutoff), lengths)
    n_cells = np.maximum((lengths // cutoff).astype(np.int64), 1)
    frac = positions / lengths
    periodic = np.asarray(box.periodic, dtype=bool)
    frac = np.where(periodic, frac - np.floor(frac), np.clip(frac, 0.0, 1.0))
    cell = np.clip((frac * n_cells).astype(np.int64), 0, n_cells - 1)
    flat = (cell[:, 0] * n_cells[1] + cell[:, 1]) * n_cells[2] + cell[:, 2]
    return n_cells, flat, frac


def _cell_list_pairs(
    positions: np.ndarray, box: Box, cutoff: float, primary: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All i<j pairs within ``cutoff`` using a vectorized binned search.

    One stable sort bins the atoms; occupied cells and the half stencil of
    cell pairs are enumerated as flat arrays; candidate pairs are expanded
    with ``repeat`` and distance-filtered in blocks of about
    :data:`PAIR_BLOCK_CANDIDATES` (see the module docstring).  Cost scales
    with atoms and occupied cells — there is no Python loop over cells (only
    over blocks) and no brute-force fallback for thin or slab-shaped boxes.

    With a ``primary`` mask only pairs with at least one primary member come
    back: the sort puts each cell's primaries first, and a non-primary atom
    is expanded only onto the leading primaries of the *other* cell, so a
    candidate between two non-primary atoms never exists.  ``None`` and an
    all-true mask sort and expand identically — same pairs, same order.
    """
    n = len(positions)
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty
    positions = np.asarray(positions, dtype=np.float64)
    n_cells, flat, frac = _bin_atoms(positions, box, cutoff)
    ny, nz = int(n_cells[1]), int(n_cells[2])
    periodic = box.periodic
    # a periodic axis of >= 4 cells images every in-range pair by its cell
    # pair alone (cells are at least the search radius wide: that image is
    # within L/4, any other at least 3L/4 away); fewer cells take ``rint``
    offset_axes = [axis for axis in range(3) if periodic[axis] and n_cells[axis] >= 4]
    rint_axes = [axis for axis in range(3) if periodic[axis] and n_cells[axis] < 4]

    # one stable sort groups atoms by cell (primaries leading each cell's
    # run); occupied cells + extents follow from the boundaries of the sorted
    # flat indices (never the total grid)
    order = np.argsort(flat if primary is None else 2 * flat + ~primary, kind="stable")
    sorted_flat = flat[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
    occ_start = np.nonzero(boundary)[0]
    occ_flat = sorted_flat[occ_start]
    occ_count = np.diff(np.append(occ_start, n))
    occ_primary = occ_count if primary is None else np.add.reduceat(primary[order], occ_start, dtype=np.int64)
    n_occ = len(occ_flat)

    occ_cell = np.empty((n_occ, 3), dtype=np.int64)
    occ_cell[:, 2] = occ_flat % nz
    rest = occ_flat // nz
    occ_cell[:, 1] = rest % ny
    occ_cell[:, 0] = rest // ny

    # half stencil over occupied cells: (n_occ, n_shifts) neighbour cells
    sx, sy, sz = (_axis_shifts(int(v), periodic[axis]) for axis, v in enumerate(n_cells))
    shifts = np.stack(np.meshgrid(sx, sy, sz, indexing="ij"), axis=-1).reshape(-1, 3)
    neighbor_cell = occ_cell[:, None, :] + shifts[None, :, :]
    valid = np.ones(neighbor_cell.shape[:2], dtype=bool)
    for axis in range(3):
        if periodic[axis]:
            neighbor_cell[..., axis] %= n_cells[axis]
        else:
            coords = neighbor_cell[..., axis]
            valid &= (coords >= 0) & (coords < n_cells[axis])
    neighbor_flat = (
        neighbor_cell[..., 0] * ny + neighbor_cell[..., 1]
    ) * nz + neighbor_cell[..., 2]
    # each unordered cell pair is emitted once, from its lower-flat side
    valid &= neighbor_flat >= occ_flat[:, None]
    # keep only neighbour cells that are occupied
    slot = np.searchsorted(occ_flat, neighbor_flat)
    slot = np.minimum(slot, n_occ - 1)
    valid &= occ_flat[slot] == neighbor_flat

    src, shift = np.nonzero(valid)
    dst = slot[valid]
    # defensive: wrap aliasing on degenerate grids could repeat a cell pair
    _, unique_idx = np.unique(src * np.int64(n_occ) + dst, return_index=True)
    src, dst, shift = src[unique_idx], dst[unique_idx], shift[unique_idx]

    # batch-expand every cell pair into candidate atom pairs, division-free:
    # one *entry* per (cell pair, left atom); a cross-cell entry expands to
    # the part of the right cell it may pair with (all of it for a primary
    # atom, its leading primaries otherwise), a same-cell entry only to the
    # atoms after it in the sorted order (the strict triangle, cut off at the
    # last primary row), so no candidate is ever generated twice.  The
    # candidate count is known at the cell-pair level, which drops the cell
    # pairs that cannot produce one and also picks the narrowest safe index
    # dtype for the big expansion arrays.
    same_cell = src == dst
    count_a, count_b = occ_count[src], occ_count[dst]
    primary_a, primary_b = occ_primary[src], occ_primary[dst]
    per_pair = np.where(
        same_cell,
        primary_a * (primary_a - 1) // 2 + primary_a * (count_a - primary_a),
        primary_a * count_b + (count_a - primary_a) * primary_b,
    )
    total = int(per_pair.sum())
    if total == 0:
        return empty, empty
    live = per_pair > 0
    src, dst, same_cell, shift = src[live], dst[live], same_cell[live], shift[live]
    idx_dtype = np.int32 if max(total, n) < np.iinfo(np.int32).max else np.int64
    count_a, count_b, primary_a, primary_b = (
        counts[live].astype(idx_dtype) for counts in (count_a, count_b, primary_a, primary_b)
    )
    n_entries = int(count_a.sum(dtype=np.int64))

    # per entry, in cell-pair order: its place in the left run, its sorted
    # slot, how many candidates it expands to (a primary atom reaches the
    # right run, a non-primary one its leading primaries, and in its own cell
    # an atom reaches only the atoms after it) and where that run starts
    same_entry = np.repeat(same_cell, count_a)
    entry_off = np.arange(n_entries, dtype=idx_dtype)
    entry_off -= np.repeat((np.cumsum(count_a, dtype=np.int64) - count_a).astype(idx_dtype), count_a)
    entry_slot_i = entry_off + np.repeat(occ_start[src].astype(idx_dtype), count_a)
    reps = np.repeat(np.where(same_cell, count_a - 1, count_b), count_a)
    np.subtract(reps, entry_off, out=reps, where=same_entry)
    if primary is not None:
        outside = entry_off >= np.repeat(primary_a, count_a)
        np.copyto(reps, np.repeat(np.where(same_cell, 0, primary_b), count_a), where=outside)
    entry_base_j = np.repeat(np.where(same_cell, occ_start[src] + 1, occ_start[dst]).astype(idx_dtype), count_a)
    np.add(entry_base_j, entry_off, out=entry_base_j, where=same_entry)
    reps_end = np.cumsum(reps, dtype=np.int64)

    # distance filter in sorted-row space (see "Two-sided fp32 prefilter" in
    # the module docstring): ``error`` bounds how far the fp32 distance on
    # coordinates up to ``scale`` and the exact pass's fp64 distance on raw
    # coordinates up to ``max_abs`` can each stray from the true one
    pos_sorted = np.take(positions, order, axis=0)
    lengths = box.lengths
    rows = np.zeros((n, 4), dtype=np.float32)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound below
    scale = 0.0
    for axis in range(3):
        if periodic[axis]:
            column = np.take(frac[:, axis], order) * lengths[axis]
            scale = max(scale, float(lengths[axis]))
        else:  # an open axis measures from its lowest atom, wherever it sits
            column = pos_sorted[:, axis] - np.min(pos_sorted[:, axis])
            scale = max(scale, float(np.max(column)))
        rows[:, axis] = column
    max_abs = max(scale, float(np.max(np.abs(pos_sorted))))
    error = 16.0 * ((scale + cutoff) * 2.0**-23 + max_abs * 2.0**-52)
    keep2 = np.float32(max(cutoff - error, 0.0) ** 2)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
    drop2 = np.float32((cutoff + error) ** 2)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
    near2 = np.float32(error * error)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
    pair_offset = np.zeros((len(src), 4), dtype=np.float32)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
    for axis in offset_axes:
        # the whole periods the neighbour cell wrapped across
        wraps = (occ_cell[src, axis] + shifts[shift, axis]) // n_cells[axis]
        pair_offset[:, axis] = wraps * lengths[axis]
    entry_pair = np.repeat(np.arange(len(src), dtype=idx_dtype), count_a)
    # each right cell's bounding box (unbounded on ``rint`` axes)
    low = np.minimum.reduceat(rows, occ_start, axis=0)[dst]
    high = np.maximum.reduceat(rows, occ_start, axis=0)[dst]
    low[:, rint_axes], high[:, rint_axes] = -np.inf, np.inf
    rint_lengths = [(axis, np.float32(lengths[axis]), np.float32(1.0 / lengths[axis])) for axis in rint_axes]  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above

    # stream the candidates in blocks of whole entries, about
    # ``PAIR_BLOCK_CANDIDATES`` each, cut on the running candidate count;
    # blocks run in entry order, so the output is the same pairs in the same
    # order at any block size and no candidate-sized array ever exists
    block = PAIR_BLOCK_CANDIDATES
    cuts = np.searchsorted(reps_end, np.arange(block, total, block, dtype=np.int64), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n_entries])))
    found_i, found_j = [], []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        block_slot_i, block_pair = entry_slot_i[start:stop], entry_pair[start:stop]
        row_i = np.take(rows, block_slot_i, axis=0)
        row_i -= np.take(pair_offset, block_pair, axis=0)
        # the prefilter applied to the right cell's bounding box: no
        # candidate of an entry it drops can be closer, so its run is skipped
        gap = np.maximum(np.take(low, block_pair, axis=0) - row_i, row_i - np.take(high, block_pair, axis=0))
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        reach2 = gap[:, 0] + gap[:, 1]
        reach2 += gap[:, 2]
        block_reps = np.where(reach2 <= drop2, reps[start:stop], 0)
        n_block = int(block_reps.sum())
        slot_i = np.repeat(block_slot_i, block_reps)
        # a candidate's j-slot is its place among the block's candidates plus
        # its entry's base shifted back by the candidates before that entry
        block_j0 = entry_base_j[start:stop] - (np.cumsum(block_reps, dtype=np.intp) - block_reps)
        slot_j = np.repeat(block_j0, block_reps)
        slot_j += np.arange(n_block, dtype=np.intp)

        delta = np.repeat(row_i, block_reps, axis=0)
        # every slot is in range: "clip" only skips the bounds check
        delta -= np.take(rows, slot_j, axis=0, mode="clip")
        for axis, length, inverse in rint_lengths:
            column = delta[:, axis] * inverse
            np.rint(column, out=column)
            column *= length
            delta[:, axis] -= column
        delta *= delta
        dist2 = delta[:, 0] + delta[:, 1]
        dist2 += delta[:, 2]
        near = np.nonzero(dist2 <= drop2)[0]
        dist2 = dist2[near]
        keep = (dist2 <= keep2) & (dist2 > near2)

        slot_i = np.take(slot_i, near)
        slot_j = np.take(slot_j, near)
        band = np.nonzero(~keep)[0]
        if len(band):
            # exact confirmation, bitwise-identical to the brute-force reference
            band_i, band_j = slot_i[band], slot_j[band]
            exact = np.take(pos_sorted, band_i, axis=0) - np.take(pos_sorted, band_j, axis=0)
            exact = box.minimum_image(exact)
            exact2 = np.einsum("ij,ij->i", exact, exact)
            if not exact2.all():
                zero = int(np.argmin(exact2))
                raise _coincident(order[band_i[zero]], order[band_j[zero]])
            keep[band] = exact2 <= cutoff * cutoff
        gi = np.take(order, slot_i[keep])
        gj = np.take(order, slot_j[keep])
        found_i.append(np.minimum(gi, gj))
        found_j.append(np.maximum(gi, gj))
    return np.concatenate(found_i).astype(np.int64, copy=False), np.concatenate(found_j).astype(np.int64, copy=False)


def max_displacement(positions: np.ndarray, reference: np.ndarray, box: Box) -> float:
    """Largest minimum-image displacement between two position snapshots.

    This is the skin-criterion quantity: a neighbour list built with search
    radius cutoff+skin stays valid while no atom has moved more than half the
    skin.  Both the serial :class:`NeighborList` and the per-rank lists of
    :class:`repro.parallel.engine.DomainDecomposedSimulation` use it — the
    parallel engine max-reduces the per-rank values so every rank rebuilds on
    the same step as the serial reference.
    """
    if len(positions) == 0:
        return 0.0
    delta = box.minimum_image(np.asarray(positions) - np.asarray(reference))
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", delta, delta))))


def _coincident(i: int, j: int) -> ValueError:
    i, j = sorted((int(i), int(j)))
    return ValueError(f"position rows {i} and {j} coincide (zero minimum-image distance)")


def require_finite(values: np.ndarray, quantity: str) -> None:
    """Raise ``ValueError`` naming ``quantity`` and the first row of ``values`` holding a NaN or inf."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        row = int(np.nonzero(~np.isfinite(values).all(axis=-1))[0][0])
        raise ValueError(f"{quantity} row {row} is not finite: {values[row]}")


def first_outside(positions: np.ndarray, box: Box) -> tuple[int, int] | None:
    """``(row, axis)`` of the first row of ``positions`` outside ``box``, or None.

    Only an open (non-periodic) axis of finite length ``L`` bounds a
    coordinate, to ``[0, L]``: a periodic axis wraps it and an open axis of
    infinite length holds every value.  :func:`build_neighbor_data` does not
    ask, since its clamped binning accepts rows spilled past an open axis.
    """
    axes = [axis for axis in range(3) if not box.periodic[axis] and math.isfinite(box.lengths[axis])]
    if not axes:
        return None
    coords = positions[:, axes]
    outside = (coords < 0.0) | (coords > box.lengths[axes])
    if not outside.any():
        return None
    row, k = (int(index[0]) for index in np.nonzero(outside))
    return row, axes[k]


def require_inside(positions: np.ndarray, box: Box) -> None:
    """Raise ``ValueError`` naming the first row of ``positions`` outside an
    open axis of ``box`` (see :func:`first_outside`) and that axis."""
    found = first_outside(positions, box)
    if found is not None:
        row, axis = found
        raise ValueError(
            f"position row {row} is outside the open box along {'xyz'[axis]}: "
            f"{float(positions[row, axis])!r} not in [0, {float(box.lengths[axis])!r}]"
        )


def require_minimum_image(box: Box, search: float) -> None:
    """Raise ``ValueError`` when the search radius ``search`` (cutoff+skin) exceeds the box's minimum-image limit."""
    max_allowed = box.max_cutoff()
    if search > max_allowed + 1e-9:
        raise ValueError(
            f"cutoff+skin ({search:.3f} A) exceeds the minimum-image limit "
            f"({max_allowed:.3f} A) of the box"
        )


def build_neighbor_data(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.0,
    primary: np.ndarray | None = None,
) -> NeighborData:
    """Build neighbour data for ``positions`` with search radius cutoff+skin.

    ``primary`` is an optional ``(n,)`` boolean mask of the rows evaluations
    are centred on: only pairs touching a primary row are searched for, and
    only primary rows get padded-table entries (see the module docstring).
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if skin < 0:
        raise ValueError("skin must be non-negative")
    positions = np.asarray(positions, dtype=np.float64)
    require_finite(positions, "position")
    search = cutoff + skin
    require_minimum_image(box, search)
    n = len(positions)
    if primary is not None:
        primary = np.asarray(primary, dtype=bool)
        if primary.shape != (n,):
            raise ValueError("primary must be a boolean mask with one entry per atom")
    if n <= BRUTE_FORCE_THRESHOLD:
        half_i, half_j = _brute_force_pairs(positions, box, search)
        if primary is not None:
            touches_primary = primary[half_i] | primary[half_j]
            half_i, half_j = half_i[touches_primary], half_j[touches_primary]
        delta = box.minimum_image(positions[half_i] - positions[half_j])
        dist2 = np.einsum("ij,ij->i", delta, delta)
        if not np.logical_and.reduce(dist2):
            zero = int(dist2.argmin())  # the first zero: none is smaller
            raise _coincident(half_i[zero], half_j[zero])
    else:
        half_i, half_j = _cell_list_pairs(positions, box, search, primary)
    pairs = np.concatenate((half_i[:, None], half_j[:, None]), axis=1)
    return NeighborData(pairs=pairs, cutoff=cutoff, skin=skin, n_atoms=n, primary=primary)


@dataclass
class NeighborList:
    """A neighbour list with skin-based staleness tracking.

    Parameters
    ----------
    cutoff:
        interaction cutoff in angstrom.
    skin:
        extra search radius; the list remains valid while no atom has moved
        more than half the skin since the last build.
    rebuild_every:
        force a rebuild after this many ``maybe_rebuild`` calls (the paper
        rebuilds every 50 steps).
    """

    cutoff: float
    skin: float = 2.0
    rebuild_every: int = 50
    data: NeighborData | None = field(default=None, init=False)
    n_builds: int = field(default=0, init=False)
    #: cumulative wall-clock seconds spent inside actual builds (excludes the
    #: per-step staleness checks) — the quantity the neighbour-build
    #: benchmarks and the perf-model ``neigh`` pricing talk about.
    build_seconds: float = field(default=0.0, init=False)
    _reference_positions: np.ndarray | None = field(default=None, init=False)
    _steps_since_build: int = field(default=0, init=False)

    def build(self, atoms: Atoms, box: Box) -> NeighborData:
        require_inside(atoms.positions, box)
        start = time.perf_counter()
        self.data = build_neighbor_data(atoms.positions, box, self.cutoff, self.skin)
        self.build_seconds += time.perf_counter() - start
        self._reference_positions = atoms.positions.copy()
        self._steps_since_build = 0
        self.n_builds += 1
        return self.data

    def needs_rebuild(self, atoms: Atoms, box: Box) -> bool:
        if self.data is None or self._reference_positions is None:
            return True
        if len(atoms) != len(self._reference_positions):
            return True
        if self.rebuild_every and self._steps_since_build >= self.rebuild_every:
            return True
        if self.skin <= 0.0:
            return True
        # a non-finite displacement is stale too: the build then names the row
        return not max_displacement(atoms.positions, self._reference_positions, box) <= 0.5 * self.skin

    def maybe_rebuild(self, atoms: Atoms, box: Box) -> tuple[NeighborData, bool]:
        """Rebuild if stale; returns ``(data, rebuilt)``."""
        self._steps_since_build += 1
        if self.needs_rebuild(atoms, box):
            return self.build(atoms, box), True
        assert self.data is not None
        return self.data, False
