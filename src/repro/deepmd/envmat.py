"""Local environment matrices R_i for the DeepPot-SE descriptor.

For every centre atom i the environment matrix collects, for each neighbour j
within the cutoff, the row

    R_ij = [ s(r_ij),  s(r_ij) x_ij / r_ij,  s(r_ij) y_ij / r_ij,  s(r_ij) z_ij / r_ij ]

where d_ij = r_j - r_i (minimum image).  Rows are padded to a fixed maximum
neighbour count so all per-atom quantities are dense arrays.

The paper's kernel-simplification optimization ("reorganize the environment
matrix to pre-classify each type of atom") is always on: neighbours are
grouped by species so the per-type embedding nets operate on contiguous
slices instead of slicing and concatenating intermediate matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData
from ..md.workspace import UNPOOLED
from .smoothing import switching_derivative, switching_function


@dataclass
class LocalEnvironment:
    """Dense per-atom environment data (all arrays padded to ``max_neighbors``).

    Attributes
    ----------
    R:
        ``(n, N, 4)`` environment matrices.
    displacements:
        ``(n, N, 3)`` minimum-image vectors d_ij = r_j - r_i (0 for padding).
    distances:
        ``(n, N)`` |d_ij| (0 for padding).
    s, ds_dr:
        ``(n, N)`` switching function values and radial derivatives.
    mask:
        ``(n, N)`` 1.0 for real neighbours, 0.0 for padding.
    neighbor_indices:
        ``(n, N)`` neighbour atom indices (-1 for padding).
    neighbor_types:
        ``(n, N)`` neighbour species (-1 for padding).
    types:
        ``(n,)`` centre-atom species.
    cutoff, cutoff_smooth:
        the switching-function radii used.
    max_in_cutoff:
        the largest in-cutoff neighbour count of any centre *before* the
        ``max_neighbors`` budget (above it, the farthest neighbours were
        dropped); 0 where the builder does not measure it.
    """

    R: np.ndarray
    displacements: np.ndarray
    distances: np.ndarray
    s: np.ndarray
    ds_dr: np.ndarray
    mask: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_types: np.ndarray
    types: np.ndarray
    cutoff: float
    cutoff_smooth: float
    max_in_cutoff: int = 0

    @property
    def n_atoms(self) -> int:
        return self.R.shape[0]

    @property
    def max_neighbors(self) -> int:
        return self.R.shape[1]

    def neighbor_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1).astype(np.int64)

    def select(self, index, workspace=UNPOOLED) -> "LocalEnvironment":
        """Sub-environment for a subset of centre atoms (used per-type).

        The copies land in grow-only ``workspace`` buffers (``env.select.*``),
        valid until the next ``select`` from the same workspace.
        """

        def rows(name: str) -> np.ndarray:
            array = getattr(self, name)
            out = workspace.capacity(
                f"env.select.{name}", len(index), trailing=array.shape[1:], dtype=array.dtype
            )
            return np.take(array, index, axis=0, out=out, mode="clip")

        fields = ("R", "displacements", "distances", "s", "ds_dr", "mask", "neighbor_indices", "neighbor_types", "types")
        return LocalEnvironment(
            **{name: rows(name) for name in fields}, cutoff=self.cutoff, cutoff_smooth=self.cutoff_smooth
        )

    def compute_arrays(self, dtype, workspace) -> tuple[np.ndarray, np.ndarray]:
        """``(R, s)`` at the model's compute dtype.

        The environment matrix is always *built* in float64 (the invariant the
        precision policies document); the mixed-precision kernels read these
        once-downcast copies instead.  float64 returns the original arrays —
        no copy, so the golden path is untouched.  The reduced copies live in
        grow-only ``workspace`` buffers (``env.cast.R/s``) shared by every
        type block, which a pool re-fills on steady-state steps without
        allocating.
        """
        dt = np.dtype(dtype)
        if dt == self.R.dtype:
            return self.R, self.s
        r_c = workspace.capacity("env.cast.R", self.n_atoms, trailing=self.R.shape[1:], dtype=dt)
        s_c = workspace.capacity("env.cast.s", self.n_atoms, trailing=self.s.shape[1:], dtype=dt)
        np.copyto(r_c, self.R)
        np.copyto(s_c, self.s)
        return r_c, s_c


class AccuracyWarning(RuntimeWarning):
    """The Deep Potential was evaluated outside what it was sized for.

    Emitted once per force field or serving engine when in-cutoff neighbours
    are dropped to the ``max_neighbors`` budget, and when a pair inside the
    compressed table's range clamps the tabulated embedding; one filter
    (``warnings.simplefilter("error", AccuracyWarning)``) catches both.
    """


def warn_truncated(env: LocalEnvironment, stacklevel: int) -> bool:
    """Warn (:class:`AccuracyWarning`) and return True if a row of ``env`` lost in-cutoff neighbours to the budget."""
    if env.max_in_cutoff > env.max_neighbors:
        message = f"an atom has {env.max_in_cutoff} neighbours inside the cutoff but max_neighbors="
        message += f"{env.max_neighbors}: the farthest are dropped and energy is no longer conserved"
        warnings.warn(message, AccuracyWarning, stacklevel=stacklevel + 1)
    return env.max_in_cutoff > env.max_neighbors


def warn_clamped(env: LocalEnvironment, table, stacklevel: int) -> bool:
    """Warn (:class:`AccuracyWarning`) and return True if a pair of ``env`` lies past the compressed ``table``.

    A pair closer than the table's minimum distance drives s(r) above
    ``table.s_max``, where the tabulated embedding is clamped.
    """
    clamped = bool(env.s.max(initial=0.0) > table.s_max)
    if clamped:
        warnings.warn(
            f"a pair is closer than compression_min_distance={1.0 / table.s_max:g} A: "
            f"s(r) exceeds the table's s_max={table.s_max:g}, so the compressed embedding is "
            "clamped there and no longer follows the exact model",
            AccuracyWarning,
            stacklevel=stacklevel + 1,
        )
    return clamped


def _candidate_geometry(positions: np.ndarray, minimum_image, nei: np.ndarray, cutoff: float):
    """``(safe_idx, disp, dist, within)`` of every (centre, slot) candidate:
    neighbour index (padding mapped to 0), minimum-image d_ij, |d_ij| and the
    in-cutoff mask — line for line the scalar golden's arithmetic."""
    slot_valid = nei >= 0
    safe_idx = np.where(slot_valid, nei, 0)
    disp = minimum_image(positions[safe_idx] - positions[:, None, :])
    dist = np.linalg.norm(disp, axis=2)
    within = slot_valid & (dist > 0.0) & (dist <= cutoff)
    return safe_idx, disp, dist, within


def build_local_environment(
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    cutoff: float,
    cutoff_smooth: float,
    max_neighbors: int | None = None,
    workspace=None,
) -> LocalEnvironment:
    """Build the dense local environments of all atoms.

    ``neighbors`` may have been built with a larger search radius (cutoff +
    skin); neighbours beyond ``cutoff`` are dropped here.  ``workspace`` (a
    :class:`repro.md.workspace.Workspace`) reuses the padded per-atom output
    arrays across calls — the returned environment then aliases pool buffers
    and must not outlive the next build from the same workspace; ``None``
    returns freshly owned arrays.  The one-system :func:`build_environment_rows`.
    """
    workspace = UNPOOLED if workspace is None else workspace
    nei, n = neighbors.neighbors, len(atoms)

    def rows(name, trailing=(), dtype=np.float64):
        return workspace.buffer(f"dp.env.{name}", (n, *trailing), dtype=dtype)

    n_pad = nei.shape[1] if max_neighbors is None else int(max_neighbors)
    return build_environment_rows(
        atoms.positions, atoms.types, nei, box.minimum_image, cutoff, cutoff_smooth, n_pad, rows
    )


def build_environment_rows(
    positions: np.ndarray, types: np.ndarray, nei: np.ndarray, minimum_image, cutoff: float, cutoff_smooth: float,
    n_pad: int, rows,
) -> LocalEnvironment:
    """The environment build over every row of the padded candidate table ``nei``.

    ``minimum_image`` maps the ``(n, width, 3)`` raw d_ij (in place or not);
    ``rows(name, trailing, dtype)`` vends an uninitialised ``(n, *trailing)``
    output buffer.  No step mixes rows (the sort key orders by row first, the
    budget truncation is per row), so :func:`repro.serving.batch.pack_systems`
    runs this once over a whole batch of concatenated systems.
    """
    if cutoff <= 0 or not 0 < cutoff_smooth < cutoff:
        raise ValueError("require 0 < cutoff_smooth < cutoff")
    n, width = nei.shape
    n_pad = max(n_pad, 1)
    safe_idx, disp, dist, kept = _candidate_geometry(positions, minimum_image, nei, cutoff)
    counts = kept.sum(axis=1)
    max_in_cutoff = int(counts.max(initial=0))

    if max_in_cutoff > n_pad:
        # Budget truncation, only when some row overflows: keep each row's
        # ``n_pad`` closest in-cutoff slots (distance ties broken by slot
        # order, as the scalar reference does with its stable argsort).
        order_by_dist = np.argsort(np.where(kept, dist, np.inf), axis=1, kind="stable")
        rank = rows("rank", (width,), np.int64)
        np.put_along_axis(rank, order_by_dist, np.broadcast_to(np.arange(width), (n, width)), axis=1)
        kept &= rank < n_pad
        counts = np.minimum(counts, n_pad)

    # Compact to the kept pairs first (row-major, so already grouped by
    # centre), then order only those: one stable sort on the complex key
    # ``(centre, type) + i * distance`` — NumPy orders complex numbers
    # lexicographically, real part first — groups each row by type then
    # distance (the paper's pre-classified layout), exact ties falling back to
    # slot order.  The per-atom loop version of this layout lives in
    # :mod:`repro.reference.scalar` and pins this one in the parity suite.
    src = np.flatnonzero(kept)
    nbr = safe_idx.reshape(-1)[src]
    nbr_types = types[nbr]
    n_types = int(np.max(nbr_types, initial=0)) + 1
    d = dist.reshape(-1)[src]
    order = np.argsort((src // width) * n_types + nbr_types + 1j * d, kind="stable")
    # the sort keeps each centre's pairs in its row-major segment, so sorted
    # position p is output slot p - (first position of its row)
    row_shift = np.arange(n) * n_pad - (np.cumsum(counts) - counts)
    out = np.arange(len(src)) + np.repeat(row_shift, counts)

    R = rows("R", (n_pad, 4))  # every entry is written below
    displacements = rows("displacements", (n_pad, 3))
    distances = rows("distances", (n_pad,))
    mask = rows("mask", (n_pad,))
    for zeroed in (displacements, distances, mask):
        zeroed.fill(0.0)
    neighbor_indices = rows("neighbor_indices", (n_pad,), np.int64)
    neighbor_indices.fill(-1)
    neighbor_types = rows("neighbor_types", (n_pad,), np.int64)
    neighbor_types.fill(-1)

    displacements.reshape(-1, 3)[out] = disp.reshape(-1, 3)[src[order]]
    distances.reshape(-1)[out] = d[order]
    neighbor_indices.reshape(-1)[out] = nbr[order]
    neighbor_types.reshape(-1)[out] = nbr_types[order]
    mask.reshape(-1)[out] = 1.0
    # free the candidate-sized arrays before the padded temporaries below
    del safe_idx, disp, dist, kept

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
        max_in_cutoff=max_in_cutoff,
    )


#: Headroom :func:`suggested_max_neighbors` adds over the observed maximum.
NEIGHBOR_MARGIN = 1.2


def suggested_max_neighbors(atoms: Atoms, box: Box, neighbors: NeighborData, cutoff: float) -> int:
    """A padding size comfortably above the observed neighbour count.

    The paper quotes 46/92/512 neighbours for H/O/Cu at the benchmark cutoffs;
    the suggestion here simply measures the actual maximum and adds
    :data:`NEIGHBOR_MARGIN`.
    """
    within = _candidate_geometry(atoms.positions, box.minimum_image, neighbors.neighbors, cutoff)[3]
    max_count = int(within.sum(axis=1).max(initial=0))
    return max(int(np.ceil(max_count * NEIGHBOR_MARGIN)), 1)
