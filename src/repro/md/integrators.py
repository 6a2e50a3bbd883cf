"""Time integration (velocity Verlet)."""

from __future__ import annotations

import numpy as np

from ..units import ACC_CONV
from .atoms import Atoms
from .box import Box
from .workspace import UNPOOLED


class VelocityVerlet:
    """Velocity-Verlet integrator in A / fs / eV / amu units.

    The two half-steps are exposed separately (``first_half`` /
    ``second_half``) because the MD loop interleaves force evaluation and, in
    the parallel engine, ghost-force reduction between them — the same
    structure LAMMPS uses.
    """

    def __init__(self, timestep_fs: float) -> None:
        if timestep_fs <= 0:
            raise ValueError("timestep must be positive")
        self.dt = float(timestep_fs)

    def _half_kick(self, atoms: Atoms, workspace) -> None:
        """``v += ((ACC_CONV * F) / m) * (0.5 dt)``, staged through one buffer."""
        acc = workspace.buffer("vv.acc", atoms.forces.shape)
        np.multiply(atoms.forces, ACC_CONV, out=acc)
        acc /= atoms.masses[:, None]
        acc *= 0.5 * self.dt
        atoms.velocities += acc

    def first_half(self, atoms: Atoms, box: Box, workspace=None) -> None:
        """Advance velocities half a step, positions a full step (wrapped in place)."""
        workspace = UNPOOLED if workspace is None else workspace
        self._half_kick(atoms, workspace)
        drift = workspace.buffer("vv.drift", atoms.velocities.shape)
        np.multiply(atoms.velocities, self.dt, out=drift)
        atoms.positions += drift
        atoms.positions = box.wrap(atoms.positions, out=atoms.positions)

    def second_half(self, atoms: Atoms, box: Box, workspace=None) -> None:
        """Advance velocities the remaining half step with the new forces."""
        self._half_kick(atoms, UNPOOLED if workspace is None else workspace)
