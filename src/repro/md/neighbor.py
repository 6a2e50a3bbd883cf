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
candidate pairs are expanded with ``repeat``/``cumsum`` — no Python loop over
cells, so cost scales with atoms and *occupied* cells, never with total
cells.  The O(N^2) :func:`_brute_force_pairs` search is kept un-optimized as
the golden reference (the ``reference/scalar.py`` pattern) and is only routed
to below :data:`BRUTE_FORCE_THRESHOLD`.

**Blocked candidates.**  The search never holds every candidate at once.  One
*entry* is (cell pair, left atom); its candidates are a contiguous run of the
right cell.  The entries are cut into blocks of about
:data:`PAIR_BLOCK_CANDIDATES` candidates, and each block is expanded,
prefiltered, confirmed and appended before the next one starts.  Blocks run
in entry order and the confirmation is per candidate, so the output is the
same pairs in the same order at *any* block size (pinned with the constant
at 1, 7 and above the candidate total).  The fp32 prefilter sums the three
per-axis terms column by column instead of through a ``(n, 3) @ (3,)``
product.  That only reassociates a sum of three non-negative terms, and the
rounding error of such a sum is bounded by the same few relative ulps in
every order (no cancellation is possible), so the slack bound still covers
it and the prefilter stays conservative: it can keep a few more or fewer
far-away candidates, never drop one the exact pass would keep.

A build refuses non-finite positions with a ``ValueError`` naming the first
bad row; a NaN or inf row would otherwise get zero neighbours (every
distance comparison with it is false) and the run would go on.  It also
refuses two rows at the same place (a kept pair at zero minimum-image
distance), naming both: pair potentials would divide by zero, and the Deep
Potential environment would drop the pair and return a finite energy.  The
binned search tests the squared distances its exact pass already computes.
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
#: copper build (cutoff 5 + skin 0.4 A) peaks at ~23 MiB of temporaries
#: instead of the 117 MiB its 2.24 M candidates took when they were written
#: out at once.  Measured on that build (best of 7, one x86-64 core): 2**12 114 ms
#: (per-block overhead), 2**14 72 ms, 2**15 67 ms, 2**16-2**17 77 ms, 2**18
#: 82 ms.  The value never changes which pairs come back or their order —
#: only how many candidates are in flight at a time.
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
    width = max(int(counts.max(initial=0)), 1)
    neighbors = workspace.capacity("neighbors", n * width, dtype=np.int64).reshape(n, width)
    neighbors.fill(-1)
    if len(pairs_i):
        order = np.argsort(pairs_i, kind="stable")
        sorted_i = pairs_i[order]
        # position of each entry within its atom's slot
        slot = np.arange(len(sorted_i)) - (np.cumsum(counts) - counts)[sorted_i]
        neighbors[sorted_i, slot] = pairs_j[order]
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


def _bin_atoms(positions: np.ndarray, box: Box, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Assign every atom to a cell of an ``n_cells`` grid spanning the box.

    Returns ``(n_cells, flat_index)``.  Periodic axes wrap the fractional
    coordinate; non-periodic axes *clamp* it into [0, 1] — wrapping there
    would teleport an atom that drifted more than one box length outside
    into an interior cell and silently drop its pairs.  Clamping is a
    contraction, so two atoms within the search radius still land at most one
    cell apart and the +-1 stencil stays sufficient.
    """
    lengths = box.lengths
    n_cells = np.maximum((lengths // cutoff).astype(np.int64), 1)
    frac = positions / lengths
    periodic = np.asarray(box.periodic, dtype=bool)
    frac = np.where(periodic, frac - np.floor(frac), np.clip(frac, 0.0, 1.0))
    cell = np.clip((frac * n_cells).astype(np.int64), 0, n_cells - 1)
    flat = (cell[:, 0] * n_cells[1] + cell[:, 1]) * n_cells[2] + cell[:, 2]
    return n_cells, flat


def _cell_list_pairs(
    positions: np.ndarray, box: Box, cutoff: float, primary: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All i<j pairs within ``cutoff`` using a vectorized binned search.

    One stable sort bins the atoms; occupied cells and the half stencil of
    cell pairs are enumerated as flat arrays; candidate pairs are expanded
    with ``repeat``/``cumsum`` and distance-filtered in blocks of about
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
    n_cells, flat = _bin_atoms(positions, box, cutoff)
    ny, nz = int(n_cells[1]), int(n_cells[2])
    periodic = box.periodic

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

    src, _ = np.nonzero(valid)
    dst = slot[valid]
    # defensive: wrap aliasing on degenerate grids could repeat a cell pair
    _, unique_idx = np.unique(src * np.int64(n_occ) + dst, return_index=True)
    src, dst = src[unique_idx], dst[unique_idx]

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
    src, dst, same_cell = src[live], dst[live], same_cell[live]
    idx_dtype = np.int32 if max(total, n) < np.iinfo(np.int32).max else np.int64
    count_a, count_b, primary_a, primary_b = (
        counts[live].astype(idx_dtype) for counts in (count_a, count_b, primary_a, primary_b)
    )
    n_entries = int(count_a.sum(dtype=np.int64))

    entry_pair = np.repeat(np.arange(len(src), dtype=idx_dtype), count_a)
    entry_off = np.arange(n_entries, dtype=idx_dtype) - np.repeat(
        np.cumsum(count_a, dtype=np.int64).astype(idx_dtype) - count_a, count_a
    )
    entry_slot_i = occ_start.astype(idx_dtype)[src][entry_pair] + entry_off
    same_entry = same_cell[entry_pair]
    # how much of the right cell the entry's atom may pair with
    reach = np.where(entry_off < primary_a[entry_pair], count_b[entry_pair], primary_b[entry_pair])
    reps = np.where(same_entry, np.maximum(reach - 1 - entry_off, 0), reach)
    entry_base_j = np.where(
        same_entry, entry_slot_i + 1, occ_start.astype(idx_dtype)[dst][entry_pair]
    )

    # distance filter in sorted-row space: a reduced-precision prefilter with
    # a rigorous slack bound throws away the ~85% of candidates that are far
    # outside the cutoff at half the memory traffic, then the survivors are
    # confirmed with exactly the arithmetic of ``_brute_force_pairs`` so the
    # two strategies agree pair-for-pair even at the cutoff boundary.
    pos_sorted = np.take(positions, order, axis=0)
    lengths = box.lengths
    frac_sorted = pos_sorted * (1.0 / lengths)
    # conservative error bound for the fractional prefilter: ~4 rounding
    # steps on coordinates of magnitude ``max_abs`` (unwrapped atoms may sit
    # several box lengths outside), converted back to angstrom; the slack
    # guarantees the prefilter never drops a pair the exact pass would keep
    max_abs = max(1.0, float(np.max(np.abs(frac_sorted))))
    f32_error = 8.0 * max_abs * 2.0**-23 * float(lengths.max())
    if f32_error <= 0.05 * cutoff:
        frac = frac_sorted.astype(np.float32)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
        slack = np.float32((cutoff + f32_error) * (cutoff + f32_error))  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
        lengths_sq = (lengths * lengths).astype(np.float32)  # reprolint: allow[dtype] fp32 prefilter guarded by the rigorous error bound above
    else:
        # degenerate geometry (atoms astronomically far outside the box):
        # prefilter in fp64 with the matching, much smaller error bound
        f64_error = 8.0 * max_abs * 2.0**-52 * float(lengths.max())
        frac = frac_sorted
        slack = (cutoff + f64_error) ** 2
        lengths_sq = lengths * lengths
    # one contiguous column per axis: a block gathers 1-D runs, not rows
    frac_cols = [np.ascontiguousarray(frac[:, axis]) for axis in range(3)]

    # stream the candidates in blocks of whole entries, about
    # ``PAIR_BLOCK_CANDIDATES`` each, cut on the running candidate count;
    # blocks run in entry order, so the output is the same pairs in the same
    # order at any block size and no candidate-sized array ever exists
    reps_end = np.cumsum(reps, dtype=np.int64)
    block = PAIR_BLOCK_CANDIDATES
    cuts = np.searchsorted(reps_end, np.arange(block, total, block, dtype=np.int64), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n_entries])))
    found_i, found_j = [], []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        block_slot_i, block_reps = entry_slot_i[start:stop], reps[start:stop]
        n_block = int(reps_end[stop - 1]) - (int(reps_end[start - 1]) if start else 0)
        # every candidate's j-slot is its entry's base plus a within-run
        # offset; both sides expand with sequential repeats — no division
        slot_i = np.repeat(block_slot_i, block_reps)
        in_j = np.arange(n_block, dtype=idx_dtype) - np.repeat(
            (np.cumsum(block_reps, dtype=np.int64) - block_reps).astype(idx_dtype), block_reps
        )
        slot_j = np.repeat(entry_base_j[start:stop], block_reps) + in_j

        dist2 = None
        for axis, col in enumerate(frac_cols):
            # in place: one block-sized temporary per axis, summed x, y, z
            delta_frac = np.repeat(np.take(col, block_slot_i), block_reps)
            delta_frac -= np.take(col, slot_j)
            if periodic[axis]:
                delta_frac -= np.rint(delta_frac)
            delta_frac *= delta_frac
            delta_frac *= lengths_sq[axis]
            dist2 = delta_frac if dist2 is None else np.add(dist2, delta_frac, out=dist2)
        candidate_idx = np.nonzero(dist2 <= slack)[0]

        # exact confirmation, bitwise-identical to the brute-force reference
        slot_i = slot_i[candidate_idx]
        slot_j = slot_j[candidate_idx]
        delta = np.take(pos_sorted, slot_i, axis=0) - np.take(pos_sorted, slot_j, axis=0)
        delta = box.minimum_image(delta)
        exact2 = np.einsum("ij,ij->i", delta, delta)
        if not exact2.all():
            first = int(np.argmin(exact2))
            raise _coincident(order[slot_i[first]], order[slot_j[first]])
        mask = exact2 <= cutoff * cutoff
        found_i.append(np.take(order, slot_i[mask]))
        found_j.append(np.take(order, slot_j[mask]))
    gi = np.concatenate(found_i)
    gj = np.concatenate(found_j)
    return np.minimum(gi, gj).astype(np.int64), np.maximum(gi, gj).astype(np.int64)


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
    if not np.isfinite(values).all():
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
        zero = np.nonzero(np.einsum("ij,ij->i", delta, delta) == 0.0)[0]
        if len(zero):
            raise _coincident(half_i[zero[0]], half_j[zero[0]])
    else:
        half_i, half_j = _cell_list_pairs(positions, box, search, primary)
    pairs = np.stack([half_i, half_j], axis=1) if len(half_i) else np.empty((0, 2), dtype=np.int64)
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
