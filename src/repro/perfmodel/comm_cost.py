"""Pricing a communication plan on the machine model.

The per-step ghost exchange consists of (for the node-based scheme)

1. workers copy local atoms into shared RDMA buffers (NoC, cross-NUMA),
2. an intra-node synchronization,
3. the leaders' messages to neighbouring nodes, spread over the TNIs,
4. another synchronization and the scatter of received ghosts,
5. the reverse path for the ghost-force reduction (smaller payload).

Rank-level schemes (3-stage, p2p) skip 1/2/4 and pay per-message software
overheads instead (MPI in the baseline).  The NIC registration-cache penalty
applies when buffers are registered per neighbour rather than pooled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    FUGAKU,
    UNPACK_PER_MESSAGE,
    FugakuSpec,
    message_occupancy,
    nic_cache_penalty,
    noc_copy_time,
    noc_sync_time,
    tni_makespan,
    wire_latency,
)
from .messages import CommunicationPlan


@dataclass
class CommTimeBreakdown:
    """Time components of one ghost exchange (seconds)."""

    gather: float = 0.0
    network: float = 0.0
    scatter: float = 0.0
    sync: float = 0.0
    reverse: float = 0.0

    @property
    def forward(self) -> float:
        return self.gather + self.network + self.scatter + self.sync

    @property
    def total(self) -> float:
        return self.forward + self.reverse


@dataclass
class CommCostModel:
    """Evaluates :class:`CommunicationPlan` objects on the Fugaku model."""

    machine: FugakuSpec = FUGAKU

    # -- one direction -----------------------------------------------------------
    def _network_time(self, plan: CommunicationPlan, byte_scale: float) -> float:
        network = self.machine.network
        penalty = 0.0
        if plan.registered_regions is not None:
            penalty = nic_cache_penalty(self.machine.nic_cache, plan.registered_regions)
        sharing = max(1, int(plan.ranks_sharing_network))
        round_overhead = network.rdma_round_overhead if plan.use_rdma else network.mpi_round_overhead
        total = 0.0
        for comm_round in plan.rounds:
            occupancies = []
            max_latency = 0.0
            for message in comm_round.messages:
                if message.intra_node:
                    single = noc_copy_time(self.machine.node, [message.n_bytes * byte_scale], plan.copy_threads)
                else:
                    single = message_occupancy(network, message.n_bytes * byte_scale, plan.use_rdma, penalty)
                    max_latency = max(max_latency, wire_latency(network, message.hops, plan.use_rdma))
                # Rank-level schemes: every rank of the node issues the same
                # pattern concurrently, competing for the node's TNIs/links.
                occupancies.extend([single] * sharing)
            # Engine occupancy serializes on the TNIs; the wire latency of the
            # round is pipelined and charged once (the last message's arrival).
            total += (
                round_overhead
                + tni_makespan(network, occupancies, comm_round.engines, comm_round.threads)
                + max_latency
            )
        return total

    def evaluate(self, plan: CommunicationPlan) -> CommTimeBreakdown:
        """Time of the full exchange (positions out, forces back)."""
        breakdown = CommTimeBreakdown()
        node = self.machine.node
        breakdown.gather = noc_copy_time(node, plan.gather_bytes_per_rank, plan.copy_threads)
        breakdown.scatter = noc_copy_time(node, plan.scatter_bytes_per_rank, plan.copy_threads)
        if plan.unpack_messages:
            breakdown.scatter += (
                plan.unpack_messages * UNPACK_PER_MESSAGE / max(1, min(plan.copy_threads, 48))
            )
        breakdown.sync = noc_sync_time(node, plan.n_intra_node_syncs)
        breakdown.network = self._network_time(plan, byte_scale=1.0)

        # Reverse path: ghost forces flow back with a smaller payload; the
        # intra-node part mirrors gather/scatter at the force-byte ratio.
        ratio = plan.reverse_traffic_ratio
        reverse_network = self._network_time(plan, byte_scale=ratio)
        reverse_intra = ratio * (breakdown.gather + breakdown.scatter)
        reverse_sync = breakdown.sync
        breakdown.reverse = reverse_network + reverse_intra + reverse_sync
        return breakdown

    def exchange_time(self, plan: CommunicationPlan) -> float:
        return self.evaluate(plan).total
