"""Message and communication-plan containers.

A :class:`CommunicationPlan` describes, for one *representative* rank (the
benchmark systems are uniform, so every rank is statistically equivalent),
everything the ghost exchange of one MD step does: the inter-node messages
(grouped into sequential rounds), the intra-node shared-memory traffic, the
synchronizations, and how many concurrent engines/threads drain the messages.
:mod:`repro.perfmodel.comm_cost` turns a plan into seconds on the machine
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    """Messages that may proceed concurrently (within engine limits)."""

    messages: list[Message] = field(default_factory=list)
    #: concurrent RDMA engines available for this round (None = all TNIs).
    engines: int | None = None
    #: concurrent communication threads driving the engines (None = no cap).
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
    #: ratio of force send-back bytes to ghost-position bytes (reverse path).
    reverse_traffic_ratio: float = 0.5
    #: free-form notes (leader count, load-balance variant, ...).
    notes: dict = field(default_factory=dict)

    # -- aggregate queries ---------------------------------------------------------
    @property
    def n_messages(self) -> int:
        return sum(r.n_messages for r in self.rounds)

    @property
    def total_message_bytes(self) -> float:
        return float(sum(r.total_bytes for r in self.rounds))
