"""One rank's state, and the one place that knows how its arrays are laid out.

Every per-atom array a rank computes on is **owned rows first, ghost rows
after** (:meth:`RankDomain.split`).  :meth:`RankDomain.cut` applies that to
the rank's two ``(n_local, 3)`` arrays, so ``positions``/``ghost_positions``
and ``forces``/``ghost_forces`` are views of one contiguous array each and
``local_positions()`` hands the force fields that array without stacking.

The arrays have one home: private memory, re-allocated at each rebuild, or —
under the process executor — the rank's rows of the
:class:`~repro.parallel.executor.SharedRankArrays` slabs
(:meth:`RankDomain.rehome`).  There the parent's integrator, ghost refresh and
reverse scatter write the memory the rank's worker evaluates from, and the
worker — the same class over the same rows, given only each rebuild's
structural fields — stores its forces where the parent reads them.
"""

from __future__ import annotations

import time

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData, build_neighbor_data
from ..md.workspace import Workspace

_NO_VECTORS = np.empty((0, 3))
#: the per-owned-atom arrays, in the order migration ships them (gids first)
_OWNED_FIELDS = ("gids", "positions", "velocities", "forces", "masses", "types")


class RankDomain:
    """The per-rank state of the distributed simulation.

    A worker process builds its domains empty and moves them onto the rank's
    slab rows (:meth:`rehome`): it never holds owned velocities or masses,
    only what :meth:`set_ghosts` derives per rebuild.
    """

    def __init__(
        self,
        rank: int,
        gids=(),
        positions: np.ndarray = _NO_VECTORS,
        velocities: np.ndarray = _NO_VECTORS,
        forces: np.ndarray = _NO_VECTORS,
        masses=(),
        types=(),
    ) -> None:
        self.rank = rank
        self.gids = np.ascontiguousarray(gids, dtype=np.int64)
        self.velocities = np.ascontiguousarray(velocities, dtype=np.float64)
        self.masses = np.ascontiguousarray(masses, dtype=np.float64)
        self.types = np.ascontiguousarray(types, dtype=np.int64)
        self.ref_positions: np.ndarray | None = None
        # ghost copies (read-only atoms owned by other ranks)
        self.ghost_gids = np.empty(0, dtype=np.int64)
        #: per-owner (owner_rank, ghost_row_indices, owner_slots) triples;
        #: invariant between rebuilds, precomputed by the ghost exchange so
        #: the per-step refresh/scatter are straight gathers.
        self.ghost_groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        #: global ids, types and masses of the local (owned + ghost) atoms,
        #: cached per rebuild by :meth:`set_ghosts`
        self.local_gids = self.gids
        self.local_types = self.types
        self.local_masses = self.masses
        self.neighbors: NeighborData | None = None
        #: node-box share under intra-node load balancing: the sorted gids
        #: this rank *evaluates* (None ⇒ classic owner-computes), plus the
        #: same share as a global boolean mask for vectorized pair filtering.
        self.balance_gids: np.ndarray | None = None
        self.balance_mask: np.ndarray | None = None
        self.pair_seconds = 0.0
        self.neigh_seconds = 0.0
        self.scratch: dict = {}
        #: per-rank scratch pool: force-field output buffers, integrator
        #: stages and per-atom accumulators live here, stable between
        #: rebuilds/migrations (each rank of a real engine owns its own).
        self.workspace = Workspace()
        #: the ``(positions, forces)`` slab rows the local arrays live in, or
        #: ``None`` for private memory
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self.fill(positions, forces, _NO_VECTORS)

    @property
    def n_owned(self) -> int:
        return len(self.gids)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost_gids)

    @property
    def n_local(self) -> int:
        return self.n_owned + self.n_ghost

    def owned(self, index=slice(None)) -> tuple:
        """The per-owned-atom arrays (all, or the ``index`` subset) — a migration message."""
        return tuple(getattr(self, name)[index] for name in _OWNED_FIELDS)

    def set_owned(self, fields) -> None:
        """Replace the owned arrays; positions/forces rejoin the layout at the next :meth:`fill`."""
        for name, field in zip(_OWNED_FIELDS, fields):
            setattr(self, name, field)

    # -- the layout ----------------------------------------------------------------
    def split(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owned head, ghost tail)`` views of any per-local-atom row."""
        return row[: self.n_owned], row[self.n_owned : self.n_local]

    def cut(self) -> None:
        """Point the position/force views at the current ``n_owned``/``n_ghost``.

        Views only — the contents are whatever the home holds: a worker cuts
        its slab rows after the parent filled them.
        """
        rows = np.empty((2, self.n_local, 3)) if self._rows is None else self._rows
        self._local_positions, self._local_forces = rows[0][: self.n_local], rows[1][: self.n_local]
        self._local_atoms = None
        self.positions, self.ghost_positions = self.split(self._local_positions)
        self.forces, self.ghost_forces = self.split(self._local_forces)

    def fill(self, positions, forces, ghost_positions, ghost_forces=0.0) -> None:
        """Re-cut, then write the owned and ghost rows into the new cut.

        The sources may be the previous cut's views: an unmoved slab head
        copies onto itself, anything that changed size is already a copy.
        """
        self.cut()
        self.positions[:] = positions
        self.ghost_positions[:] = ghost_positions
        self.forces[:] = forces
        self.ghost_forces[:] = ghost_forces

    def rehome(self, rows: tuple[np.ndarray, np.ndarray] | None) -> None:
        """Move the local arrays onto ``rows`` (``None``: back to private memory)."""
        held = self.positions, self.forces, self.ghost_positions, self.ghost_forces
        self._rows = rows
        self.fill(*held)

    # -- per-rebuild structure -------------------------------------------------------
    def set_ghosts(self, ghost_gids: np.ndarray, types: np.ndarray, masses: np.ndarray) -> None:
        """Adopt a rebuild's ghost list; ``types``/``masses`` are the global
        per-gid invariants the local ones are gathered from."""
        self.ghost_gids = ghost_gids
        self.local_gids = np.concatenate([self.gids, ghost_gids])
        self.local_types = types[self.local_gids]
        self.local_masses = masses[self.local_gids]

    def assign_share(self, gids: np.ndarray | None, n_global: int) -> None:
        """Set the node-box share this rank evaluates (``None``: its owned atoms)."""
        self.balance_gids = gids
        self.balance_mask = None
        if gids is not None:
            self.balance_mask = np.zeros(n_global, dtype=bool)
            self.balance_mask[gids] = True

    def primary_rows(self) -> np.ndarray:
        """Mask of the local rows this rank centres evaluations on: its owned
        rows, or under ``node_balance`` its node-box share — the only case
        where a ghost row is a centre.  Every other row is a neighbour only."""
        if self.balance_mask is None:
            return np.arange(self.n_local) < self.n_owned
        return self.balance_mask[self.local_gids]

    def build_neighbors(self, box: Box, cutoff: float, skin: float) -> float:
        """Rebuild ``neighbors`` over the local system, searching only the
        pairs that touch a primary row; returns the wall-clock seconds.  The
        one build call of both rank executors."""
        start = time.perf_counter()
        self.neighbors = build_neighbor_data(
            self._local_positions, box, cutoff, skin, primary=self.primary_rows()
        )
        return time.perf_counter() - start

    # -- what the evaluators consume ---------------------------------------------------
    def local_positions(self) -> np.ndarray:
        return self._local_positions

    def local_forces(self) -> np.ndarray:
        return self._local_forces

    def local_atoms(self, type_names: tuple[str, ...]) -> Atoms:
        """The rank's owned+ghost system as an :class:`Atoms` container over
        the domain's own arrays (``Atoms`` adopts contiguous float64/int64
        arrays zero-copy), made once per :meth:`cut` and reused until the
        next: a steady-state step allocates nothing here."""
        if self._local_atoms is None:
            self._local_atoms = Atoms(
                positions=self._local_positions,
                types=self.local_types,
                masses=self.local_masses,
                forces=self._local_forces,
                ids=self.local_gids,
                type_names=type_names,
            )
        return self._local_atoms

    def store_forces(self, local_forces: np.ndarray) -> None:
        """Keep an evaluation's owned+ghost forces: they come back in a
        workspace buffer the rank's next evaluation reuses, unless the rank's
        worker already stored them in the shared home."""
        if local_forces is not self._local_forces:
            np.copyto(self._local_forces, local_forces)
