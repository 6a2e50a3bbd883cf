"""NIC registration-cache model (Fig. 8 of the paper).

RDMA requires registering memory regions and connections with the NIC; the
TofuD controller caches this metadata on chip.  When the number of registered
regions exceeds the cache capacity, entries spill to main memory and every
message that misses pays an extra fetch.  The paper works around this with a
memory pool: one large registered region shared by all neighbours.

The model charges a per-message penalty equal to the miss probability (an
LRU-style occupancy argument: with R registered regions and a cache of C
entries, a uniformly chosen region misses with probability max(0, 1 - C/R))
times the miss cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .specs import NICCacheSpec


@dataclass
class NICRegistrationCache:
    spec: NICCacheSpec = field(default_factory=NICCacheSpec)

    def miss_probability(self, registered_regions: int) -> float:
        if registered_regions <= 0:
            return 0.0
        if registered_regions <= self.spec.cache_entries:
            return 0.0
        return 1.0 - self.spec.cache_entries / registered_regions

    def per_message_penalty(self, registered_regions: int) -> float:
        """Expected extra time per message due to cache misses (seconds)."""
        return self.miss_probability(registered_regions) * self.spec.miss_penalty
