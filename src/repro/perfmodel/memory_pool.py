"""RDMA registered-buffer management (Fig. 8).

Point-to-point communication with many neighbours either registers a pair of
buffers per neighbour (simple, but the NIC's registration cache thrashes once
the number of regions exceeds its capacity) or registers one large pooled
region and hands out offsets (the paper's memory pool).  This module tracks
buffer allocations both ways and, together with the NIC-cache model, produces
the per-message cost curves of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.nic_cache import NICRegistrationCache
from ..hardware.specs import NICCacheSpec


@dataclass
class _Buffer:
    offset: int
    size: int
    neighbor: int
    direction: str  # "send" or "recv"


@dataclass
class RdmaBufferManager:
    """Allocates send/receive buffers for neighbour communication.

    Parameters
    ----------
    pooled:
        True = one registered region, buffers are carved out by offset;
        False = every buffer is its own registered region.
    alignment:
        offsets are rounded up to this many bytes (RDMA descriptor alignment).
    """

    pooled: bool = True
    alignment: int = 256
    buffers: list[_Buffer] = field(default_factory=list)
    _next_offset: int = 0

    def allocate(self, neighbor: int, size: int, direction: str = "send") -> _Buffer:
        if size <= 0:
            raise ValueError("buffer size must be positive")
        if direction not in ("send", "recv"):
            raise ValueError("direction must be 'send' or 'recv'")
        aligned = -(-size // self.alignment) * self.alignment
        buf = _Buffer(offset=self._next_offset, size=aligned, neighbor=neighbor, direction=direction)
        self._next_offset += aligned
        self.buffers.append(buf)
        return buf

    def allocate_for_neighbors(self, n_neighbors: int, size: int) -> None:
        """Send + receive buffers for every neighbour (the Fig. 8 setup)."""
        for neighbor in range(n_neighbors):
            self.allocate(neighbor, size, "send")
            self.allocate(neighbor, size, "recv")

    # -- accounting ------------------------------------------------------------
    @property
    def registered_regions(self) -> int:
        """Regions the NIC must track: 1 when pooled, one per buffer otherwise."""
        if not self.buffers:
            return 0
        return 1 if self.pooled else len(self.buffers)

    def per_message_penalty(self, cache: NICRegistrationCache | None = None) -> float:
        """Expected NIC-cache penalty per message for the current allocation."""
        cache = cache or NICRegistrationCache(NICCacheSpec())
        return cache.per_message_penalty(self.registered_regions)

    def reset(self) -> None:
        self.buffers.clear()
        self._next_offset = 0
