"""The ghost exchange of Fig. 7: planned from the decomposition, priced on the machine.

Three families of exchange are modelled, all driven by the *actual* geometry
of the domain decomposition (sub-box sizes, ghost-shell layers, neighbour
counts on the torus) and a uniform atom density:

* **3-stage** — LAMMPS' staged exchange: for each dimension in turn,
  exchange with the +/- neighbours as many times as there are ghost layers.
  Few, large, strictly sequential messages.
* **p2p** — every rank sends directly to every rank whose sub-box intersects
  its ghost shell (up to 124 neighbours at 0.5 r_cut sub-boxes).
* **node-based** — the paper's contribution: the ranks of a node aggregate
  their atoms through shared memory (NoC), one/two/four leader ranks exchange
  one message per neighbouring *node* over uTofu RDMA spread across the 6
  TNIs, and the received ghosts are scattered back to the workers.

:data:`SCHEMES` maps the eight Fig. 7 bar labels onto a family and its
settings.  :func:`plan_exchange` turns a label and a decomposition into the
:class:`CommunicationPlan` of one *representative* rank (the benchmark
systems are uniform, so every rank is statistically equivalent): the
inter-node messages grouped into sequential rounds, the intra-node
shared-memory traffic, the synchronizations and the threads that drain the
messages.  :func:`exchange_time` prices a plan on a machine spec:

1. workers copy local atoms into shared RDMA buffers (NoC, cross-NUMA),
2. an intra-node synchronization,
3. the leaders' messages to neighbouring nodes, spread over the TNIs,
4. another synchronization and the scatter of received ghosts,
5. the reverse path for the ghost-force reduction (smaller payload).

Rank-level families (3-stage, p2p) skip 1/2/4 and pay per-message software
overheads instead (MPI in the baseline).  The NIC registration-cache penalty
applies when buffers are registered per neighbour rather than pooled.  The
patterns the engine *executes* (p2p and node-based delivery) are
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
from .machine import (
    FUGAKU,
    UNPACK_PER_MESSAGE,
    FugakuSpec,
    message_occupancy,
    nic_cache_penalty,
    noc_copy_time,
    noc_sync_time,
    tni_makespan,
    torus_hops,
    wire_latency,
)

#: Ratio of force send-back bytes to ghost-position bytes (the reverse path).
REVERSE_TRAFFIC_RATIO = BYTES_PER_VECTOR / BYTES_PER_GHOST_ATOM


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer."""

    n_bytes: float
    hops: int = 1
    intra_node: bool = False

    def __post_init__(self) -> None:
        if self.n_bytes < 0:
            raise ValueError("message size must be non-negative")
        if self.hops < 0:
            raise ValueError("hop count must be non-negative")


@dataclass
class CommRound:
    """Messages that may proceed concurrently (within the node's TNIs)."""

    messages: list[Message] = field(default_factory=list)
    #: concurrent communication threads driving the TNIs (None = no cap).
    threads: int | None = None

    @property
    def total_bytes(self) -> float:
        return float(sum(m.n_bytes for m in self.messages))

    @property
    def n_messages(self) -> int:
        return len(self.messages)


@dataclass
class CommunicationPlan:
    """The per-step ghost-exchange plan of one representative rank."""

    scheme: str
    rounds: list[CommRound] = field(default_factory=list)
    #: bytes copied across NUMA domains into shared send buffers (gather).
    gather_bytes_per_rank: list[float] = field(default_factory=list)
    #: bytes scattered from shared receive buffers back to workers.
    scatter_bytes_per_rank: list[float] = field(default_factory=list)
    #: intra-node synchronizations per exchange (sender + receiver side).
    n_intra_node_syncs: int = 0
    #: threads available for intra-node copies.
    copy_threads: int = 12
    #: whether messages use uTofu RDMA (True) or the MPI API (False).
    use_rdma: bool = True
    #: how many MPI ranks of one node issue this per-rank plan concurrently
    #: (rank-level schemes: 4 ranks share the node's TNIs/links and transmit
    #: their partially overlapping ghost regions redundantly; node-level
    #: schemes: 1).
    ranks_sharing_network: int = 1
    #: registered RDMA regions (for the NIC-cache model); None = pooled.
    registered_regions: int | None = None
    #: received packets that a leader must unpack into shared memory per
    #: exchange (0 for rank-level schemes, which receive into place).
    unpack_messages: int = 0

    @property
    def n_messages(self) -> int:
        return sum(r.n_messages for r in self.rounds)

    @property
    def total_message_bytes(self) -> float:
        return float(sum(r.total_bytes for r in self.rounds))


# -- geometry ------------------------------------------------------------------


def subbox_decomposition(
    topology: RankTopology, cutoff: float, subbox_factors: tuple[float, float, float]
) -> SpatialDecomposition:
    """The decomposition of ``topology`` whose sub-box sides are ``factors * cutoff``.

    This is how the Fig. 7 configurations ([1,1,1] r_cut, [.5,.5,1] r_cut,
    [.5,.5,.5] r_cut) are expressed.
    """
    factors = np.asarray(subbox_factors, dtype=np.float64)
    if np.any(factors <= 0):
        raise ValueError("sub-box factors must be positive")
    lengths = factors * cutoff * np.array(topology.rank_dims)
    return SpatialDecomposition(Box(lengths), topology)


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


# -- the three families ----------------------------------------------------------


def _plan_three_stage(
    label: str, decomposition: SpatialDecomposition, cutoff: float, atom_density: float, use_rdma: bool
) -> CommunicationPlan:
    """LAMMPS' dimension-by-dimension staged exchange."""
    sub_box_lengths = decomposition.sub_box_lengths
    layers = layers_for_cutoff(sub_box_lengths, cutoff)
    plan = CommunicationPlan(scheme=label, use_rdma=use_rdma)
    extended = sub_box_lengths.astype(float).copy()
    block = decomposition.topology.rank_block
    for axis in range(3):
        n_layers = layers[axis]
        if n_layers == 0:
            continue
        cross_section = np.prod(np.delete(extended, axis))
        slab_depth = min(cutoff, float(sub_box_lengths[axis]) * n_layers)
        volume_per_direction = cross_section * slab_depth
        bytes_per_round = volume_per_direction / n_layers * atom_density * BYTES_PER_GHOST_ATOM
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
            plan.rounds.append(CommRound(messages=messages))
        extended[axis] += 2.0 * cutoff
    plan.registered_regions = 2 * sum(2 * l for l in layers)
    plan.ranks_sharing_network = decomposition.topology.ranks_per_node
    return plan


def _plan_p2p(
    label: str, decomposition: SpatialDecomposition, cutoff: float, atom_density: float
) -> CommunicationPlan:
    """Direct point-to-point exchange over uTofu with every ghost-shell rank."""
    sub_box_lengths = decomposition.sub_box_lengths
    layers = layers_for_cutoff(sub_box_lengths, cutoff)
    messages = []
    for offset in _neighbor_offsets(layers, decomposition.rank_dims):
        volume = overlap_volume(offset, sub_box_lengths, cutoff)
        n_bytes = volume * atom_density * BYTES_PER_GHOST_ATOM
        hops = _node_hops(offset, decomposition.topology)
        messages.append(Message(n_bytes=n_bytes, hops=max(hops, 1), intra_node=hops == 0))
    # The p2p implementation (Li et al. 2023) already manages its buffers
    # through a registered pool, so no per-neighbour NIC-cache pressure
    # (registered_regions stays None).
    return CommunicationPlan(
        scheme=label,
        rounds=[CommRound(messages=messages)],
        ranks_sharing_network=decomposition.topology.ranks_per_node,
    )


def _plan_node_based(
    label: str,
    decomposition: SpatialDecomposition,
    cutoff: float,
    atom_density: float,
    leaders: int,
    multithread: bool,
    ref_layout: bool,
) -> CommunicationPlan:
    """The paper's node-based scheme over uTofu RDMA."""
    topology = decomposition.topology
    ranks_per_node = topology.ranks_per_node
    node_box_lengths = decomposition.node_box_lengths
    node_layers = layers_for_cutoff(node_box_lengths, cutoff)

    messages = []
    total_ghost_bytes = 0.0
    for offset in _neighbor_offsets(node_layers, decomposition.node_dims):
        volume = overlap_volume(offset, node_box_lengths, cutoff)
        n_bytes = volume * atom_density * BYTES_PER_GHOST_ATOM
        total_ghost_bytes += n_bytes
        hops = torus_hops(offset, decomposition.node_dims)
        messages.append(Message(n_bytes=n_bytes, hops=max(hops, 1), intra_node=False))

    threads_per_leader = 6 if multithread else 1
    plan = CommunicationPlan(scheme=label)
    plan.rounds.append(CommRound(messages=messages, threads=leaders * threads_per_leader))

    # Intra-node gather of local atoms into the shared/RDMA buffers.
    atoms_per_rank = float(atom_density * np.prod(decomposition.sub_box_lengths))
    plan.gather_bytes_per_rank = [atoms_per_rank * BYTES_PER_GHOST_ATOM] * ranks_per_node

    # Scatter of received ghosts: the leaders unpack each received packet
    # once into the shared-memory atom structures (positions/types live in
    # shared memory, so workers read them in place — §III-A.2).  The
    # load-balanced organization additionally keeps the slightly larger
    # node-box ghost list per rank (eq. 2 vs eq. 1), a few extra kilobytes.
    scatter_total = total_ghost_bytes
    if not ref_layout:
        scatter_total *= 1.05
    plan.scatter_bytes_per_rank = [scatter_total / ranks_per_node] * ranks_per_node

    plan.n_intra_node_syncs = 2
    # Copy/unpack concurrency: every thread of the leaders helps with the
    # gather/scatter copies; only the number of threads driving the TNIs
    # differs between the multithreaded and single-thread variants.
    plan.copy_threads = leaders * topology.threads_per_rank
    plan.unpack_messages = len(messages)
    # The leaders' buffers come from one registered pool (registered_regions
    # stays None); DeepMDEngine prices per-neighbour registration instead
    # when a configuration turns the memory pool off.
    return plan


#: The Fig. 7 bar labels: each is one family planner and its settings.
SCHEMES = {
    "baseline": (_plan_three_stage, {"use_rdma": False}),      # MPI-based 3-stage (LAMMPS default)
    "3stage-utofu": (_plan_three_stage, {"use_rdma": True}),   # 3-stage over uTofu RDMA
    "p2p-utofu": (_plan_p2p, {}),                              # direct point-to-point over uTofu
    "lb-1l": (_plan_node_based, {"leaders": 1, "multithread": True, "ref_layout": False}),
    "lb-2l": (_plan_node_based, {"leaders": 2, "multithread": True, "ref_layout": False}),
    # the shipped configuration
    "lb-4l": (_plan_node_based, {"leaders": 4, "multithread": True, "ref_layout": False}),
    # one communication thread per leader
    "sg-lb-4l": (_plan_node_based, {"leaders": 4, "multithread": False, "ref_layout": False}),
    # the original atom organization, without the load-balanced layout
    "ref-4l": (_plan_node_based, {"leaders": 4, "multithread": True, "ref_layout": True}),
}


def plan_exchange(
    label: str, decomposition: SpatialDecomposition, cutoff: float, atom_density: float
) -> CommunicationPlan:
    """The :class:`CommunicationPlan` of the Fig. 7 scheme ``label`` on ``decomposition``."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if atom_density <= 0:
        raise ValueError("atom density must be positive")
    try:
        planner, settings = SCHEMES[str(label)]
    except KeyError:
        raise KeyError(f"unknown communication scheme {label!r}; available: {list(SCHEMES)}") from None
    return planner(str(label), decomposition, cutoff, atom_density, **settings)


# -- pricing ---------------------------------------------------------------------


def _network_time(plan: CommunicationPlan, machine: FugakuSpec, byte_scale: float) -> float:
    """Time of the plan's message rounds in one direction, at ``byte_scale`` times its bytes."""
    network = machine.network
    penalty = 0.0
    if plan.registered_regions is not None:
        penalty = nic_cache_penalty(machine.nic_cache, plan.registered_regions)
    sharing = max(1, int(plan.ranks_sharing_network))
    round_overhead = network.rdma_round_overhead if plan.use_rdma else network.mpi_round_overhead
    total = 0.0
    for comm_round in plan.rounds:
        occupancies = []
        max_latency = 0.0
        for message in comm_round.messages:
            if message.intra_node:
                single = noc_copy_time(machine.node, [message.n_bytes * byte_scale], plan.copy_threads)
            else:
                single = message_occupancy(network, message.n_bytes * byte_scale, plan.use_rdma, penalty)
                max_latency = max(max_latency, wire_latency(network, message.hops, plan.use_rdma))
            # Rank-level schemes: every rank of the node issues the same
            # pattern concurrently, competing for the node's TNIs/links.
            occupancies.extend([single] * sharing)
        # Engine occupancy serializes on the TNIs; the wire latency of the
        # round is pipelined and charged once (the last message's arrival).
        total += round_overhead + tni_makespan(network, occupancies, comm_round.threads) + max_latency
    return total


def exchange_breakdown(plan: CommunicationPlan, machine: FugakuSpec) -> dict[str, float]:
    """Seconds per phase of the full exchange on ``machine``: gather, network, scatter, sync, reverse."""
    node = machine.node
    gather = noc_copy_time(node, plan.gather_bytes_per_rank, plan.copy_threads)
    scatter = noc_copy_time(node, plan.scatter_bytes_per_rank, plan.copy_threads)
    if plan.unpack_messages:
        scatter += plan.unpack_messages * UNPACK_PER_MESSAGE / max(1, min(plan.copy_threads, 48))
    sync = noc_sync_time(node, plan.n_intra_node_syncs)
    # Reverse path: ghost forces flow back with a smaller payload; the
    # intra-node part mirrors gather/scatter at the force-byte ratio.
    ratio = REVERSE_TRAFFIC_RATIO
    reverse = _network_time(plan, machine, ratio) + ratio * (gather + scatter) + sync
    return {
        "gather": gather,
        "network": _network_time(plan, machine, 1.0),
        "scatter": scatter,
        "sync": sync,
        "reverse": reverse,
    }


def exchange_time(plan: CommunicationPlan, machine: FugakuSpec = FUGAKU) -> float:
    """Time of the full exchange on ``machine`` (positions out, forces back)."""
    phase = exchange_breakdown(plan, machine)
    forward = phase["gather"] + phase["network"] + phase["scatter"] + phase["sync"]
    return forward + phase["reverse"]
