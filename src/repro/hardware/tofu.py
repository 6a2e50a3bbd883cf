"""Tofu Interconnect D network model.

Fugaku's interconnect is a 6D torus/mesh (X, Y, Z, a, b, c) in which 12 nodes
form a cell; applications see a folded *logical 3D torus*, which is how
LAMMPS-style domain decompositions map onto the machine.  The model here works
on the logical 3D torus: messages are charged an injection overhead, a base
latency plus a per-hop latency (hops measured on the torus), and a bandwidth
term on the injection link; concurrent messages of one node are spread over
the 6 TNIs by :class:`~repro.hardware.tni.TNIScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .specs import TofuDSpec


@dataclass(frozen=True)
class TorusCoordinates:
    """Coordinates of a node in the logical 3D torus."""

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.dims):
            raise ValueError("torus dimensions must be >= 1")

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.dims))

    def wrap(self, coord) -> tuple[int, int, int]:
        return tuple(int(c) % d for c, d in zip(coord, self.dims))

    def index(self, coord) -> int:
        x, y, z = self.wrap(coord)
        _, ny, nz = self.dims
        return (x * ny + y) * nz + z

    def coordinate(self, index: int) -> tuple[int, int, int]:
        _, ny, nz = self.dims
        x, rem = divmod(int(index), ny * nz)
        y, z = divmod(rem, nz)
        return (x, y, z)

    def hops(self, a, b) -> int:
        """Minimum torus (Manhattan-with-wraparound) hop distance."""
        total = 0
        for ca, cb, d in zip(a, b, self.dims):
            delta = abs(int(ca) - int(cb)) % d
            total += min(delta, d - delta)
        return total


@dataclass
class TofuDNetwork:
    """Point-to-point message cost on the logical 3D torus."""

    torus: TorusCoordinates
    spec: TofuDSpec = field(default_factory=TofuDSpec)

    def occupancy(
        self,
        n_bytes: float,
        use_rdma: bool = True,
        registration_penalty: float = 0.0,
    ) -> float:
        """Engine/CPU occupancy of one message (excludes wire latency).

        Occupancy is what serializes on a TNI: descriptor posting, the
        bandwidth term, and any NIC registration-cache penalty.  The wire
        latency is pipelined across messages and is charged once per round
        (see :meth:`latency`).
        """
        if n_bytes < 0:
            raise ValueError("message size must be non-negative")
        post = self.spec.rdma_post_overhead if use_rdma else self.spec.mpi_post_overhead
        time = post + n_bytes / self.spec.link_bandwidth + registration_penalty
        if not use_rdma:
            time *= self.spec.mpi_overhead_factor
        return time

    def latency(self, hops: int = 1, use_rdma: bool = True) -> float:
        """End-to-end wire latency of one message over ``hops`` torus hops."""
        if hops < 0:
            raise ValueError("hop count must be non-negative")
        latency = self.spec.hop_latency + max(0, hops - 1) * self.spec.per_hop_latency
        if not use_rdma:
            latency *= self.spec.mpi_overhead_factor
        return latency
