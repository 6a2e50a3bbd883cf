"""Ghost-exchange delivery logic: the communication schemes the engine executes.

:class:`GhostExchange` is the executable core of the communication schemes:
given a :class:`~repro.parallel.decomposition.SpatialDecomposition` and an
exchange cutoff it answers, with real coordinates, *which atoms each rank
receives as ghosts* under

* the **p2p pattern** — every ghost-shell neighbour rank sends the slice of
  its atoms within the cutoff of the receiver's sub-box, and
* the **node-based pattern** — the ranks of a node see their node peers'
  atoms through shared memory plus every atom that neighbouring nodes ship
  because it falls in the *node-box* ghost shell.

:class:`repro.parallel.engine.DomainDecomposedSimulation` drives real dynamics
through the very delivery rules the correctness properties pin down (p2p
delivers exactly the reference set; node-based a superset of it).

The selection methods are *per-sender*: ``p2p_selection(sender_positions,
receiver_rank)`` is literally the mask a sending rank applies to its own atom
slab, which is how the engine assembles one message per (sender, receiver)
pair instead of peeking at global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import Box
from .decomposition import SpatialDecomposition
from .ghost import ghost_shell_ranks, layers_for_cutoff
from .topology import RankTopology

#: Bytes shipped per atom in the ghost-list exchange (position + id + type +
#: mass) and per refreshed position / returned force (3 doubles): the one
#: 48/24 convention of the engine's byte counters and the priced schemes.
BYTES_PER_GHOST_ATOM = 48.0
BYTES_PER_VECTOR = 24.0

#: The delivery patterns :meth:`GhostExchange.deliver` and the engine execute.
DELIVERY_SCHEMES = ("p2p", "node-based")


def check_delivery_scheme(name: str) -> str:
    """``name`` if it is a delivery pattern ("p2p" or "node-based"); ``KeyError`` otherwise."""
    name = str(name)
    if name not in DELIVERY_SCHEMES:
        raise KeyError(f"unknown delivery scheme {name!r}; available: {list(DELIVERY_SCHEMES)}")
    return name


def periodic_point_to_box_distance(
    positions: np.ndarray, lower: np.ndarray, upper: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Minimum-image distance from each point to an axis-aligned box."""
    positions = np.asarray(positions, dtype=np.float64)
    per_axis = np.zeros_like(positions)
    for axis in range(3):
        best = None
        for shift in (-lengths[axis], 0.0, lengths[axis]):
            c = positions[:, axis] + shift
            d = np.maximum(np.maximum(lower[axis] - c, c - upper[axis]), 0.0)
            best = d if best is None else np.minimum(best, d)
        per_axis[:, axis] = best
    return np.sqrt(np.einsum("ij,ij->i", per_axis, per_axis))


@dataclass
class GhostExchange:
    """Executable ghost-delivery rules for one decomposition and cutoff.

    ``cutoff`` is the *exchange* radius: the engine passes the force cutoff
    plus the neighbour skin so ghost lists stay valid exactly as long as the
    neighbour lists built from them.
    """

    decomposition: SpatialDecomposition
    cutoff: float

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.topology: RankTopology = self.decomposition.topology
        self.box: Box = self.decomposition.box

    # -- geometry ------------------------------------------------------------------
    def rank_layers(self) -> tuple[int, int, int]:
        return layers_for_cutoff(self.decomposition.sub_box_lengths, self.cutoff)

    def node_layers(self) -> tuple[int, int, int]:
        return layers_for_cutoff(self.decomposition.node_box_lengths, self.cutoff)

    def p2p_neighbor_ranks(self, rank: int) -> list[int]:
        """Distinct ranks in ``rank``'s ghost shell (torus-wrapped, deduped)."""
        coord = self.topology.rank_coord(rank)
        coords = ghost_shell_ranks(coord, self.topology.rank_dims, self.rank_layers())
        return [self.topology.rank_index(c) for c in coords]

    def node_neighbor_ranks(self, rank: int) -> list[int]:
        """Ranks living on the nodes in ``rank``'s *node* ghost shell."""
        node_coord = self.topology.node_of_rank(rank)
        coords = ghost_shell_ranks(node_coord, self.topology.node_dims, self.node_layers())
        ranks: list[int] = []
        for coord in coords:
            ranks.extend(self.topology.ranks_on_node(coord))
        return ranks

    def node_peer_ranks(self, rank: int) -> list[int]:
        """The other ranks of ``rank``'s node (shared-memory peers)."""
        return [r for r in self.topology.ranks_on_node(self.topology.node_of_rank(rank)) if r != rank]

    def senders(self, pattern: str, rank: int):
        """Who ships ghosts to ``rank`` under a delivery pattern, in delivery order.

        Yields ``(sender_rank, select)``: ``select`` is the selection method
        masking the sender's atom slab, or ``None`` for a node peer, whose
        whole slab is visible through shared memory.  The engine's exchange
        and the whole-system :meth:`deliver` both walk this list.
        """
        if pattern == "p2p":
            for sender in self.p2p_neighbor_ranks(rank):
                yield sender, self.p2p_selection
        else:
            for sender in self.node_peer_ranks(rank):
                yield sender, None
            for sender in self.node_neighbor_ranks(rank):
                yield sender, self.node_selection

    # -- per-sender selections -------------------------------------------------------
    def p2p_selection(
        self, sender_positions: np.ndarray, receiver_rank: int, prewrapped: bool = False
    ) -> np.ndarray:
        """Mask over a sender's atoms: within ``cutoff`` of the receiver's sub-box.

        ``prewrapped=True`` declares the positions already wrapped into the
        primary cell — a sender talks to every rank of its ghost shell, so
        the engine wraps each rank's slab once per rebuild instead of once
        per (sender, receiver) pair.
        """
        lower, upper = self.decomposition.rank_bounds(receiver_rank)
        wrapped = sender_positions if prewrapped else self.box.wrap(sender_positions)
        distance = periodic_point_to_box_distance(wrapped, lower, upper, self.box.lengths)
        return distance <= self.cutoff

    def node_selection(
        self, sender_positions: np.ndarray, receiver_rank: int, prewrapped: bool = False
    ) -> np.ndarray:
        """Mask over a sender's atoms: within ``cutoff`` of the receiver's node-box."""
        node_coord = self.topology.node_of_rank(receiver_rank)
        lengths = self.decomposition.node_box_lengths
        lower = np.array(node_coord, dtype=np.float64) * lengths
        upper = lower + lengths
        wrapped = sender_positions if prewrapped else self.box.wrap(sender_positions)
        distance = periodic_point_to_box_distance(wrapped, lower, upper, self.box.lengths)
        return distance <= self.cutoff

    # -- whole-system deliveries (checker / convenience API) ---------------------------
    def reference_ghosts(self, rank: int, positions: np.ndarray, owners: np.ndarray | None = None) -> np.ndarray:
        """Atom ids (owned elsewhere) within ``cutoff`` of the rank's sub-box."""
        owners = self.decomposition.assign_to_ranks(positions) if owners is None else owners
        needed = self.p2p_selection(positions, rank) & (owners != rank)
        return np.nonzero(needed)[0]

    def deliver(self, scheme: str, rank: int, positions: np.ndarray, owners: np.ndarray | None = None) -> np.ndarray:
        """Sorted atom ids ``rank`` holds as ghosts after an exchange under a
        delivery pattern (see :data:`DELIVERY_SCHEMES`)."""
        owners = self.decomposition.assign_to_ranks(positions) if owners is None else owners
        delivered = [np.empty(0, dtype=np.int64)]
        for sender, select in self.senders(check_delivery_scheme(scheme), rank):
            sender_atoms = np.nonzero(owners == sender)[0]
            if select is not None and len(sender_atoms):
                sender_atoms = sender_atoms[select(positions[sender_atoms], rank)]
            delivered.append(sender_atoms)
        return np.unique(np.concatenate(delivered))
