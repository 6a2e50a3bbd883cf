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

from dataclasses import dataclass, field

from ..hardware.nic_cache import NICRegistrationCache
from ..hardware.noc import NocModel
from ..hardware.specs import FUGAKU, UNPACK_PER_MESSAGE, FugakuSpec
from ..hardware.tni import TNIScheduler
from ..hardware.tofu import TofuDNetwork, TorusCoordinates
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

    machine: FugakuSpec = field(default_factory=lambda: FUGAKU)

    def __post_init__(self) -> None:
        self.network = TofuDNetwork(TorusCoordinates((1, 1, 1)), self.machine.network)
        self.noc = NocModel(self.machine.node)
        self.tni = TNIScheduler(self.machine.network)
        self.nic_cache = NICRegistrationCache(self.machine.nic_cache)

    # -- one direction -----------------------------------------------------------
    def _network_time(self, plan: CommunicationPlan, byte_scale: float = 1.0) -> float:
        penalty = 0.0
        if plan.registered_regions is not None:
            penalty = self.nic_cache.per_message_penalty(plan.registered_regions)
        sharing = max(1, int(plan.ranks_sharing_network))
        round_overhead = (
            self.machine.network.rdma_round_overhead
            if plan.use_rdma
            else self.machine.network.mpi_round_overhead
        )
        total = 0.0
        for comm_round in plan.rounds:
            occupancies = []
            max_latency = 0.0
            for message in comm_round.messages:
                if message.intra_node:
                    single = self.noc.gather_time(
                        [message.n_bytes * byte_scale], copy_threads=plan.copy_threads
                    )
                else:
                    single = self.network.occupancy(
                        message.n_bytes * byte_scale,
                        use_rdma=plan.use_rdma,
                        registration_penalty=penalty,
                    )
                    max_latency = max(
                        max_latency, self.network.latency(message.hops, plan.use_rdma)
                    )
                # Rank-level schemes: every rank of the node issues the same
                # pattern concurrently, competing for the node's TNIs/links.
                occupancies.extend([single] * sharing)
            # Engine occupancy serializes on the TNIs; the wire latency of the
            # round is pipelined and charged once (the last message's arrival).
            total += (
                round_overhead
                + self.tni.makespan(
                    occupancies, engines=comm_round.engines, threads=comm_round.threads
                )
                + max_latency
            )
        return total

    def evaluate(self, plan: CommunicationPlan) -> CommTimeBreakdown:
        """Time of the full exchange (positions out, forces back)."""
        breakdown = CommTimeBreakdown()
        breakdown.gather = self.noc.gather_time(plan.gather_bytes_per_rank, plan.copy_threads)
        breakdown.scatter = self.noc.scatter_time(plan.scatter_bytes_per_rank, plan.copy_threads)
        if plan.unpack_messages:
            breakdown.scatter += (
                plan.unpack_messages * UNPACK_PER_MESSAGE / max(1, min(plan.copy_threads, 48))
            )
        breakdown.sync = self.noc.synchronization_time(plan.n_intra_node_syncs)
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
