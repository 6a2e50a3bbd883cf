"""Spatial domain decomposition and atom assignment.

The decomposition mirrors LAMMPS: the periodic box is cut into a regular grid
of sub-boxes, one per MPI rank; each rank owns the atoms whose wrapped
coordinates fall inside its sub-box.  The same machinery also bins atoms at
node granularity (the *node-box* of the paper's intra-node load balance).

Assignment is exact — the real atom coordinates of the benchmark systems are
binned — which is what makes the load-balance statistics of Table III and
Fig. 10 measured rather than modelled.  The two statistics containers
(:class:`DecompositionStats`, :class:`LoadBalanceStats`), the SDMR metric and
the even node-box split (:func:`even_shares`) live here so the engine and the
machine model (:mod:`repro.perfmodel.loadbalance`) share one definition each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import Box
from .topology import RankTopology


def sdmr_percent(values) -> float:
    """SDMR = sqrt(variance) / mean * 100 (percent).

    The paper writes it as sqrt(sigma^2 / mu) * 100 in the text, but the
    values in Table III are consistent with the conventional coefficient of
    variation used here.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    mean = values.mean()
    if mean == 0:
        return 0.0
    return float(values.std() / mean * 100.0)


def even_shares(n: int, k: int) -> np.ndarray:
    """Sizes of the ``k`` contiguous runs that split ``n`` items evenly.

    ``floor(n/k)`` each, the remainder one-by-one on the leading slots: the
    node-box split of §III-C.  The engine deals a node's sorted gids out by
    these sizes and the load-balance model predicts them, so measured ==
    predicted node-box counts holds by construction.
    """
    base, remainder = divmod(n, k)
    return base + (np.arange(k) < remainder)


@dataclass
class DecompositionStats:
    """Per-rank (or per-node) atom-count statistics."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def minimum(self) -> int:
        return int(self.counts.min()) if len(self.counts) else 0

    @property
    def maximum(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    @property
    def mean(self) -> float:
        return float(self.counts.mean()) if len(self.counts) else 0.0

    @property
    def sdmr_percent(self) -> float:
        """Standard-deviation-to-mean ratio in percent (the paper's metric)."""
        return sdmr_percent(self.counts)

    def summary(self) -> dict[str, float]:
        return {
            "min": self.minimum,
            "avg": self.mean,
            "max": self.maximum,
            "sdmr%": self.sdmr_percent,
        }


@dataclass
class LoadBalanceStats:
    """Per-rank atom counts and pair times (measured or modelled) for one organization."""

    label: str
    atom_counts: np.ndarray
    pair_times: np.ndarray

    def atom_stats(self) -> DecompositionStats:
        return DecompositionStats(self.atom_counts)

    def pair_time_stats(self) -> dict[str, float]:
        t = self.pair_times
        return {
            "min": float(t.min()) if len(t) else 0.0,
            "avg": float(t.mean()) if len(t) else 0.0,
            "max": float(t.max()) if len(t) else 0.0,
            "sdmr%": sdmr_percent(t),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        return {"natom": self.atom_stats().summary(), "pair": self.pair_time_stats()}


@dataclass
class SpatialDecomposition:
    """A rank-grid decomposition of a periodic box."""

    box: Box
    topology: RankTopology

    def __post_init__(self) -> None:
        self.rank_dims = np.array(self.topology.rank_dims, dtype=np.int64)
        self.node_dims = np.array(self.topology.node_dims, dtype=np.int64)
        self.sub_box_lengths = self.box.lengths / self.rank_dims
        self.node_box_lengths = self.box.lengths / self.node_dims

    # -- geometric queries -----------------------------------------------------------
    def rank_cell_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Rank-grid cell coordinates, shape ``(n, 3)``."""
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        frac = wrapped / self.box.lengths
        cells = np.floor(frac * self.rank_dims).astype(np.int64)
        return np.minimum(cells, self.rank_dims - 1)

    def assign_to_ranks(self, positions: np.ndarray) -> np.ndarray:
        """Owning rank index of every atom."""
        cells = self.rank_cell_of_positions(positions)
        ry, rz = int(self.rank_dims[1]), int(self.rank_dims[2])
        return (cells[:, 0] * ry + cells[:, 1]) * rz + cells[:, 2]

    def assign_to_nodes(self, positions: np.ndarray) -> np.ndarray:
        """Owning node index of every atom."""
        cells = self.rank_cell_of_positions(positions)
        block = np.array(self.topology.rank_block, dtype=np.int64)
        node_cells = cells // block
        ny, nz = int(self.node_dims[1]), int(self.node_dims[2])
        return (node_cells[:, 0] * ny + node_cells[:, 1]) * nz + node_cells[:, 2]

    def rank_bounds(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corner of a rank's sub-box."""
        coord = np.array(self.topology.rank_coord(rank), dtype=np.float64)
        lower = coord * self.sub_box_lengths
        return lower, lower + self.sub_box_lengths
