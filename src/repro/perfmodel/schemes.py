"""Communication schemes for the ghost exchange (Fig. 7 of the paper).

Three families of schemes are modelled, all driven by the *actual* geometry of
the domain decomposition (sub-box sizes, ghost-shell layers, neighbour counts
on the torus) and a uniform atom density:

* :class:`ThreeStageScheme` — LAMMPS' staged exchange: for each dimension in
  turn, exchange with the +/- neighbours as many times as there are ghost
  layers.  Few, large, strictly sequential messages.
* :class:`P2PScheme` — every rank sends directly to every rank whose sub-box
  intersects its ghost shell (up to 124 neighbours at 0.5 r_cut sub-boxes).
* :class:`NodeBasedScheme` — the paper's contribution: the ranks of a node
  aggregate their atoms through shared memory (NoC), one/two/four leader
  ranks exchange one message per neighbouring *node* over uTofu RDMA spread
  across the 6 TNIs, and the received ghosts are scattered back to the
  workers.  Variants: number of leaders, single-thread communication
  (sg-lb-4l), and the original atom organization without the load-balance
  broadcast (ref-4l).

Every scheme produces a :class:`~repro.perfmodel.messages.CommunicationPlan`
for a representative rank/node; the machine model prices the plan.  The
schemes the engine *executes* (p2p and node-based delivery) are
:class:`repro.parallel.exchange.GhostExchange`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..md.box import Box
from ..parallel.decomposition import SpatialDecomposition
from ..parallel.exchange import BYTES_PER_GHOST_ATOM, BYTES_PER_VECTOR
from ..parallel.ghost import layers_for_cutoff
from ..parallel.topology import RankTopology
from .machine import torus_hops
from .messages import CommRound, CommunicationPlan, Message

#: Canonical scheme names used by the Fig. 7 benchmark (paper bar labels).
SCHEME_NAMES = [
    "baseline",      # MPI-based 3-stage pattern (LAMMPS default)
    "3stage-utofu",  # 3-stage pattern over uTofu RDMA
    "p2p-utofu",     # direct point-to-point over uTofu RDMA
    "lb-1l",         # node-based, 1 leader
    "lb-2l",         # node-based, 2 leaders
    "lb-4l",         # node-based, 4 leaders (the shipped configuration)
    "sg-lb-4l",      # node-based, 4 leaders, single communication thread each
    "ref-4l",        # node-based, 4 leaders, original atom organization
]


@dataclass
class ExchangeContext:
    """Everything a scheme needs to know about the problem instance."""

    decomposition: SpatialDecomposition
    cutoff: float
    atom_density: float

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.atom_density <= 0:
            raise ValueError("atom density must be positive")
        self.topology = self.decomposition.topology
        self.rank_dims = self.decomposition.rank_dims
        self.node_dims = self.decomposition.node_dims
        self.sub_box_lengths = self.decomposition.sub_box_lengths
        self.node_box_lengths = self.decomposition.node_box_lengths

    @property
    def atoms_per_rank(self) -> float:
        return float(self.atom_density * np.prod(self.sub_box_lengths))

    @property
    def reverse_ratio(self) -> float:
        return BYTES_PER_VECTOR / BYTES_PER_GHOST_ATOM

    def local_bytes_per_rank(self) -> float:
        return self.atoms_per_rank * BYTES_PER_GHOST_ATOM

    @classmethod
    def from_subbox_factors(
        cls,
        topology: RankTopology,
        cutoff: float,
        subbox_factors: tuple[float, float, float],
        atom_density: float,
    ) -> "ExchangeContext":
        """Build a context whose sub-box sides are ``factors * cutoff``.

        This is how the Fig. 7 configurations ([1,1,1] r_cut, [.5,.5,1] r_cut,
        [.5,.5,.5] r_cut) are expressed.
        """
        factors = np.asarray(subbox_factors, dtype=np.float64)
        if np.any(factors <= 0):
            raise ValueError("sub-box factors must be positive")
        lengths = factors * cutoff * np.array(topology.rank_dims)
        decomposition = SpatialDecomposition(Box(lengths), topology)
        return cls(decomposition, cutoff=cutoff, atom_density=atom_density)


def overlap_volume(offset, sub_box_lengths, cutoff: float) -> float:
    """Volume of the neighbour at ``offset`` that lies inside the ghost shell.

    For a neighbour displaced by ``offset`` (in sub-box units) along each axis,
    the slab of that neighbour's box needed by the centre rank has, per axis,

    * the full side length when offset is 0,
    * ``min(cutoff - (|offset|-1) * side, side)`` otherwise.
    """
    lengths = np.asarray(sub_box_lengths, dtype=np.float64)
    volume = 1.0
    for o, side in zip(offset, lengths):
        o = abs(int(o))
        if o == 0:
            extent = side
        else:
            extent = min(max(cutoff - (o - 1) * side, 0.0), side)
        volume *= extent
    return float(volume)


def _neighbor_offsets(layers: tuple[int, int, int], dims: np.ndarray) -> list[tuple[int, int, int]]:
    """Neighbour offsets within the ghost shell.

    Offsets that wrap onto the same physical domain are *not* merged: under
    periodic boundaries the receiving domain needs the ghost slab of every
    periodic image separately, so each offset is a distinct message (this is
    also what LAMMPS does on small processor grids).  Offsets that wrap onto
    the centre domain itself are its own periodic images and require no
    communication.
    """
    lx, ly, lz = layers
    offsets: list[tuple[int, int, int]] = []
    for dx in range(-lx, lx + 1):
        for dy in range(-ly, ly + 1):
            for dz in range(-lz, lz + 1):
                if dx == dy == dz == 0:
                    continue
                wrapped = (dx % dims[0], dy % dims[1], dz % dims[2])
                if wrapped == (0, 0, 0):
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def _node_hops(rank_offset: tuple[int, int, int], topology: RankTopology) -> int:
    """Torus hop distance between the nodes of two ranks separated by ``rank_offset``.

    The representative rank sits at the origin corner of its node block, which
    is the common case; the resulting hop counts match the average to within
    one hop.
    """
    node_offset = [int(off) // b for off, b in zip(rank_offset, topology.rank_block)]
    return torus_hops(node_offset, topology.node_dims)


class CommScheme:
    """Base class: a scheme turns an :class:`ExchangeContext` into a plan."""

    name: str = "abstract"

    def plan(self, context: ExchangeContext) -> CommunicationPlan:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class ThreeStageScheme(CommScheme):
    """LAMMPS' dimension-by-dimension staged exchange."""

    use_rdma: bool = False
    name: str = field(default="baseline", init=False)

    def __post_init__(self) -> None:
        self.name = "3stage-utofu" if self.use_rdma else "baseline"

    def plan(self, context: ExchangeContext) -> CommunicationPlan:
        layers = layers_for_cutoff(context.sub_box_lengths, context.cutoff)
        plan = CommunicationPlan(scheme=self.name, use_rdma=self.use_rdma)
        extended = context.sub_box_lengths.astype(float).copy()
        block = context.topology.rank_block
        for axis in range(3):
            n_layers = layers[axis]
            if n_layers == 0:
                continue
            cross_section = np.prod(np.delete(extended, axis))
            slab_depth = min(context.cutoff, float(context.sub_box_lengths[axis]) * n_layers)
            volume_per_direction = cross_section * slab_depth
            bytes_per_round = (
                volume_per_direction / n_layers * context.atom_density * BYTES_PER_GHOST_ATOM
            )
            for layer in range(1, n_layers + 1):
                messages = []
                for direction in (+1, -1):
                    # A first-layer neighbour along a dimension the node block
                    # spans is on the same node for half the ranks; deeper
                    # layers always leave the node.
                    intra = layer == 1 and block[axis] > 1 and direction == +1
                    messages.append(
                        Message(
                            n_bytes=bytes_per_round,
                            hops=max(1, int(np.ceil(layer / block[axis]))),
                            intra_node=intra,
                        )
                    )
                # The two directions of one stage can overlap, but stages are
                # strictly ordered, hence one round per (axis, layer).
                plan.rounds.append(CommRound(messages=messages, engines=None, threads=None))
            extended[axis] += 2.0 * context.cutoff
        plan.registered_regions = 2 * sum(2 * l for l in layers)
        plan.reverse_traffic_ratio = context.reverse_ratio
        plan.ranks_sharing_network = context.topology.ranks_per_node
        plan.notes = {"layers": layers, "pattern": "3-stage"}
        return plan


@dataclass
class P2PScheme(CommScheme):
    """Direct point-to-point exchange with every ghost-shell rank."""

    use_rdma: bool = True
    name: str = field(default="p2p-utofu", init=False)

    def __post_init__(self) -> None:
        self.name = "p2p-utofu" if self.use_rdma else "p2p-mpi"

    def plan(self, context: ExchangeContext) -> CommunicationPlan:
        layers = layers_for_cutoff(context.sub_box_lengths, context.cutoff)
        offsets = _neighbor_offsets(layers, context.rank_dims)
        messages = []
        for offset in offsets:
            volume = overlap_volume(offset, context.sub_box_lengths, context.cutoff)
            n_bytes = volume * context.atom_density * BYTES_PER_GHOST_ATOM
            hops = _node_hops(offset, context.topology)
            intra = hops == 0
            messages.append(Message(n_bytes=n_bytes, hops=max(hops, 1), intra_node=intra))
        plan = CommunicationPlan(scheme=self.name, use_rdma=self.use_rdma)
        plan.rounds.append(
            CommRound(messages=messages, engines=None, threads=None)
        )
        # The p2p implementation (Li et al. 2023) already manages its buffers
        # through a registered pool, so no per-neighbour NIC-cache pressure.
        plan.registered_regions = None
        plan.reverse_traffic_ratio = context.reverse_ratio
        plan.ranks_sharing_network = context.topology.ranks_per_node
        plan.notes = {"layers": layers, "n_neighbors": len(offsets), "pattern": "p2p"}
        return plan


@dataclass
class NodeBasedScheme(CommScheme):
    """The paper's node-based parallelization scheme."""

    leaders: int = 4
    multithread: bool = True
    ref_layout: bool = False
    use_rdma: bool = True
    name: str = field(default="lb-4l", init=False)

    def __post_init__(self) -> None:
        if self.leaders not in (1, 2, 4):
            raise ValueError("leader count must be 1, 2 or 4")
        if self.ref_layout:
            self.name = f"ref-{self.leaders}l"
        elif not self.multithread:
            self.name = f"sg-lb-{self.leaders}l"
        else:
            self.name = f"lb-{self.leaders}l"

    def plan(self, context: ExchangeContext) -> CommunicationPlan:
        topology = context.topology
        ranks_per_node = topology.ranks_per_node
        node_layers = layers_for_cutoff(context.node_box_lengths, context.cutoff)
        offsets = _neighbor_offsets(node_layers, context.node_dims)

        messages = []
        total_ghost_bytes = 0.0
        for offset in offsets:
            volume = overlap_volume(offset, context.node_box_lengths, context.cutoff)
            n_bytes = volume * context.atom_density * BYTES_PER_GHOST_ATOM
            total_ghost_bytes += n_bytes
            hops = torus_hops(offset, context.node_dims)
            messages.append(Message(n_bytes=n_bytes, hops=max(hops, 1), intra_node=False))

        threads_per_leader = 6 if self.multithread else 1
        comm_threads = self.leaders * threads_per_leader
        plan = CommunicationPlan(scheme=self.name, use_rdma=self.use_rdma)
        plan.rounds.append(CommRound(messages=messages, engines=None, threads=comm_threads))

        # Intra-node gather of local atoms into the shared/RDMA buffers.
        local_bytes = context.local_bytes_per_rank()
        plan.gather_bytes_per_rank = [local_bytes] * ranks_per_node

        # Scatter of received ghosts: the leaders unpack each received packet
        # once into the shared-memory atom structures (positions/types live in
        # shared memory, so workers read them in place — §III-A.2).  The
        # load-balanced organization additionally keeps the slightly larger
        # node-box ghost list per rank (eq. 2 vs eq. 1), a few extra kilobytes.
        scatter_total = total_ghost_bytes
        if not self.ref_layout:
            scatter_total *= 1.05
        plan.scatter_bytes_per_rank = [scatter_total / ranks_per_node] * ranks_per_node

        plan.n_intra_node_syncs = 2
        # Copy/unpack concurrency: every thread of the leaders helps with the
        # gather/scatter copies; only the number of threads driving the TNIs
        # differs between the multithreaded and single-thread variants.
        plan.copy_threads = self.leaders * topology.threads_per_rank
        plan.unpack_messages = len(messages)
        # The leaders' buffers come from one registered pool (registered_regions
        # stays None); DeepMDEngine prices per-neighbour registration instead
        # when a configuration turns the memory pool off.
        plan.reverse_traffic_ratio = context.reverse_ratio
        plan.notes = {
            "node_layers": node_layers,
            "n_neighbor_nodes": len(offsets),
            "leaders": self.leaders,
            "multithread": self.multithread,
            "load_balanced": not self.ref_layout,
            "messages_per_rank": len(offsets) / max(self.leaders, 1),
            "pattern": "node-based",
        }
        return plan


def build_scheme(name: str) -> CommScheme:
    """Factory resolving the Fig. 7 bar labels to scheme instances."""
    name = str(name)
    if name == "baseline":
        return ThreeStageScheme(use_rdma=False)
    if name == "3stage-utofu":
        return ThreeStageScheme(use_rdma=True)
    if name == "p2p-utofu":
        return P2PScheme(use_rdma=True)
    if name == "lb-1l":
        return NodeBasedScheme(leaders=1)
    if name == "lb-2l":
        return NodeBasedScheme(leaders=2)
    if name == "lb-4l":
        return NodeBasedScheme(leaders=4)
    if name == "sg-lb-4l":
        return NodeBasedScheme(leaders=4, multithread=False)
    if name == "ref-4l":
        return NodeBasedScheme(leaders=4, ref_layout=True)
    raise KeyError(f"unknown communication scheme {name!r}; available: {SCHEME_NAMES}")
