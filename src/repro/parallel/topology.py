"""Mapping between MPI ranks, nodes, NUMA domains and the torus.

The paper launches 4 MPI ranks per node (one per CMG/NUMA domain) with 12
threads each.  A global LAMMPS-style domain decomposition therefore has a
*rank grid* that refines the *node grid*: each node owns a small block of the
rank grid (2 x 2 x 1 by default), and each rank in the block is pinned to the
NUMA domain with the same index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankTopology:
    """Geometry of the rank/node grids.

    Parameters
    ----------
    node_dims:
        nodes along x, y, z of the logical 3D torus (e.g. ``(4, 6, 4)`` for
        the 96-node experiments, ``(20, 30, 20)`` for 12,000 nodes).
    rank_block:
        how the ranks of one node tile the rank grid (default ``(2, 2, 1)``,
        giving 4 ranks per node).
    threads_per_rank:
        compute threads per rank (12 on Fugaku: one CMG).
    """

    node_dims: tuple[int, int, int]
    rank_block: tuple[int, int, int] = (2, 2, 1)
    threads_per_rank: int = 12

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.node_dims):
            raise ValueError("node dimensions must be >= 1")
        if any(b < 1 for b in self.rank_block):
            raise ValueError("rank block entries must be >= 1")
        if self.threads_per_rank < 1:
            raise ValueError("threads per rank must be >= 1")

    # -- sizes -------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_dims))

    @property
    def ranks_per_node(self) -> int:
        return int(np.prod(self.rank_block))

    @property
    def rank_dims(self) -> tuple[int, int, int]:
        return tuple(int(n * b) for n, b in zip(self.node_dims, self.rank_block))

    @property
    def n_ranks(self) -> int:
        return int(np.prod(self.rank_dims))

    @property
    def cores_per_node(self) -> int:
        return self.ranks_per_node * self.threads_per_rank

    @property
    def n_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    # -- coordinate conversions -----------------------------------------------------
    def rank_coord(self, rank: int) -> tuple[int, int, int]:
        rx, ry, rz = self.rank_dims
        x, rem = divmod(int(rank), ry * rz)
        y, z = divmod(rem, rz)
        if not 0 <= x < rx:
            raise IndexError(f"rank {rank} out of range")
        return (x, y, z)

    def rank_index(self, coord) -> int:
        rx, ry, rz = self.rank_dims
        x, y, z = (int(c) % d for c, d in zip(coord, self.rank_dims))
        return (x * ry + y) * rz + z

    def node_of_rank_coord(self, coord) -> tuple[int, int, int]:
        return tuple(int(c) // b for c, b in zip(coord, self.rank_block))

    def node_of_rank(self, rank: int) -> tuple[int, int, int]:
        return self.node_of_rank_coord(self.rank_coord(rank))

    def ranks_on_node(self, node_coord) -> list[int]:
        """All rank indices belonging to one node, ordered by NUMA id."""
        bx, by, bz = self.rank_block
        base = tuple(int(n) * b for n, b in zip(node_coord, self.rank_block))
        ranks = []
        for ox in range(bx):
            for oy in range(by):
                for oz in range(bz):
                    ranks.append(self.rank_index((base[0] + ox, base[1] + oy, base[2] + oz)))
        return ranks

    def node_coord(self, index: int) -> tuple[int, int, int]:
        """Row-major ``(x, y, z)`` coordinate of node ``index``."""
        nx, ny, nz = self.node_dims
        x, rem = divmod(int(index), ny * nz)
        y, z = divmod(rem, nz)
        if not 0 <= x < nx:
            raise IndexError(f"node {index} out of range")
        return (x, y, z)

    # -- factory helpers ------------------------------------------------------------
    @staticmethod
    def paper_topologies() -> dict[int, tuple[int, int, int]]:
        """Node-grid shapes used in the paper's experiments."""
        return {
            96: (4, 6, 4),
            768: (8, 12, 8),
            2160: (12, 15, 12),
            4608: (16, 18, 16),
            6144: (16, 24, 16),
            12000: (20, 30, 20),
        }

    @classmethod
    def for_rank_grid(cls, rank_dims, rank_block=None, **kwargs) -> "RankTopology":
        """Topology whose *rank grid* is exactly ``rank_dims``.

        Small engine runs are specified by their rank grid (``2x2x1``,
        ``2x2x2``, ...) rather than by node counts; the default node block
        keeps the paper's 2x2x1 arrangement along every axis it divides and
        degenerates to one rank per node direction otherwise.
        """
        dims = tuple(int(d) for d in rank_dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("rank grid must be three positive integers")
        if rank_block is None:
            rank_block = tuple(b if d % b == 0 else 1 for d, b in zip(dims, (2, 2, 1)))
        rank_block = tuple(int(b) for b in rank_block)
        if any(d % b != 0 for d, b in zip(dims, rank_block)):
            raise ValueError(f"rank block {rank_block} does not tile rank grid {dims}")
        node_dims = tuple(d // b for d, b in zip(dims, rank_block))
        return cls(node_dims=node_dims, rank_block=rank_block, **kwargs)
