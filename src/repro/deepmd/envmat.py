"""Local environment matrices R_i for the DeepPot-SE descriptor.

For every centre atom i the environment matrix collects, for each neighbour j
within the cutoff, the row

    R_ij = [ s(r_ij),  s(r_ij) x_ij / r_ij,  s(r_ij) y_ij / r_ij,  s(r_ij) z_ij / r_ij ]

where d_ij = r_j - r_i (minimum image).  Rows are padded to a fixed maximum
neighbour count so all per-atom quantities are dense arrays.

The paper's kernel-simplification optimization ("reorganize the environment
matrix to pre-classify each type of atom") is reproduced by
``sort_neighbors_by_type=True``: neighbours are grouped by species so the
per-type embedding nets operate on contiguous slices instead of slicing and
concatenating intermediate matrices.
"""

from __future__ import annotations

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

    @property
    def n_atoms(self) -> int:
        return self.R.shape[0]

    @property
    def max_neighbors(self) -> int:
        return self.R.shape[1]

    def neighbor_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1).astype(np.int64)

    def select(self, index) -> "LocalEnvironment":
        """Sub-environment for a subset of centre atoms (used per-type)."""
        return LocalEnvironment(
            R=self.R[index],
            displacements=self.displacements[index],
            distances=self.distances[index],
            s=self.s[index],
            ds_dr=self.ds_dr[index],
            mask=self.mask[index],
            neighbor_indices=self.neighbor_indices[index],
            neighbor_types=self.neighbor_types[index],
            types=self.types[index],
            cutoff=self.cutoff,
            cutoff_smooth=self.cutoff_smooth,
        )

    def compute_arrays(self, dtype, workspace, key: str = "") -> tuple[np.ndarray, np.ndarray]:
        """``(R, s)`` at the model's compute dtype.

        The environment matrix is always *built* in float64 (the invariant the
        precision policies document); the mixed-precision kernels read these
        once-downcast copies instead.  float64 returns the original arrays —
        no copy, so the golden path is untouched.  The reduced copies live in
        ``workspace`` buffers (``env.cast.R/s.<key>``), which a pool re-fills
        on steady-state steps without allocating.
        """
        dt = np.dtype(dtype)
        if dt == self.R.dtype:
            return self.R, self.s
        r_c = workspace.buffer(f"env.cast.R.{key}", self.R.shape, dtype=dt)
        s_c = workspace.buffer(f"env.cast.s.{key}", self.s.shape, dtype=dt)
        np.copyto(r_c, self.R)
        np.copyto(s_c, self.s)
        return r_c, s_c


def build_local_environment(
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    cutoff: float,
    cutoff_smooth: float,
    max_neighbors: int | None = None,
    sort_neighbors_by_type: bool = True,
    workspace=None,
) -> LocalEnvironment:
    """Build the dense local environments of all atoms.

    ``neighbors`` may have been built with a larger search radius (cutoff +
    skin); neighbours beyond ``cutoff`` are dropped here.  ``workspace`` (a
    :class:`repro.md.workspace.Workspace`) reuses the padded per-atom output
    arrays across calls — the returned environment then aliases pool buffers
    and must not outlive the next build from the same workspace; ``None``
    returns freshly owned arrays.
    """
    workspace = UNPOOLED if workspace is None else workspace
    if cutoff <= 0 or not 0 < cutoff_smooth < cutoff:
        raise ValueError("require 0 < cutoff_smooth < cutoff")
    n = len(atoms)
    nei = neighbors.neighbors
    n_pad = nei.shape[1] if max_neighbors is None else int(max_neighbors)
    n_pad = max(n_pad, 1)

    positions = atoms.positions
    types = atoms.types

    # Gather displacement vectors for every (centre, slot) pair.
    slot_valid = nei >= 0
    safe_idx = np.where(slot_valid, nei, 0)
    disp = positions[safe_idx] - positions[:, None, :]
    disp = box.minimum_image(disp)
    dist = np.linalg.norm(disp, axis=2)
    within = slot_valid & (dist > 0.0) & (dist <= cutoff)

    # Compact each row to the leading slots, optionally grouped by type then
    # by distance (deterministic ordering aids reproducibility and mirrors the
    # paper's pre-classified layout).  The whole compaction runs as one global
    # lexsort over all (centre, slot) pairs — no Python-level per-atom loop.
    # The scalar per-atom version of this layout lives in
    # :mod:`repro.deepmd.scalar` and pins this implementation in the parity
    # test suite.
    nei_types_raw = np.where(slot_valid, types[safe_idx], -1)
    width = nei.shape[1]

    # Budget truncation: among the in-cutoff slots of each row, keep the
    # ``n_pad`` closest (distance ties broken by slot order, as the scalar
    # reference does with its stable argsort).
    dist_key = np.where(within, dist, np.inf)
    order_by_dist = np.argsort(dist_key, axis=1, kind="stable")
    rank = workspace.buffer("dp.env.rank", (n, width), dtype=np.int64)
    np.put_along_axis(
        rank, order_by_dist, np.broadcast_to(np.arange(width), (n, width)), axis=1
    )
    kept = within & (rank < n_pad)

    # One global stable lexsort: row-major, valid slots first, then by
    # (type, distance) or by distance alone; remaining ties fall back to the
    # original slot order via stability.
    type_key = nei_types_raw if sort_neighbors_by_type else np.zeros_like(nei_types_raw)
    rows = np.repeat(np.arange(n), width)
    perm = np.lexsort((dist.ravel(), type_key.ravel(), (~kept).ravel(), rows))

    # After the sort, position p belongs to centre p // width; the kept slots
    # of each centre occupy its leading positions, i.e. output slot p % width.
    pos = np.nonzero(kept.ravel()[perm])[0]
    src = perm[pos]
    out_r = pos // width
    out_s = pos % width
    src_r = src // width
    src_c = src % width

    R = workspace.zeros("dp.env.R", (n, n_pad, 4))
    displacements = workspace.zeros("dp.env.displacements", (n, n_pad, 3))
    distances = workspace.zeros("dp.env.distances", (n, n_pad))
    mask = workspace.zeros("dp.env.mask", (n, n_pad))
    neighbor_indices = workspace.buffer("dp.env.neighbor_indices", (n, n_pad), dtype=np.int64)
    neighbor_indices.fill(-1)
    neighbor_types = workspace.buffer("dp.env.neighbor_types", (n, n_pad), dtype=np.int64)
    neighbor_types.fill(-1)

    displacements[out_r, out_s] = disp[src_r, src_c]
    distances[out_r, out_s] = dist[src_r, src_c]
    neighbor_indices[out_r, out_s] = nei[src_r, src_c]
    neighbor_types[out_r, out_s] = nei_types_raw[src_r, src_c]
    mask[out_r, out_s] = 1.0

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


def suggested_max_neighbors(atoms: Atoms, box: Box, neighbors: NeighborData, cutoff: float, margin: float = 1.2) -> int:
    """A padding size comfortably above the observed neighbour count.

    The paper quotes 46/92/512 neighbours for H/O/Cu at the benchmark cutoffs;
    the suggestion here simply measures the actual maximum and adds a margin.
    """
    positions = atoms.positions
    nei = neighbors.neighbors
    valid = nei >= 0
    safe_idx = np.where(valid, nei, 0)
    disp = positions[safe_idx] - positions[:, None, :]
    disp = box.minimum_image(disp)
    dist = np.linalg.norm(disp, axis=2)
    within = valid & (dist > 0.0) & (dist <= cutoff)
    max_count = int(within.sum(axis=1).max()) if len(positions) else 0
    return max(int(np.ceil(max_count * margin)), 1)
