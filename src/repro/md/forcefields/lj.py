"""Lennard-Jones 12-6 potential (the classical-force-field baseline).

The paper contrasts NNMD with classical force fields "like Lennard-Jones";
this implementation provides that baseline, with the standard energy shift at
the cutoff so the potential is continuous.
"""

from __future__ import annotations

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData
from ..workspace import UNPOOLED
from .base import ForceField, ForceResult
from .pairs import scatter_pairs, stage_pairs


class LennardJones(ForceField):
    """Single-species LJ potential: ``4 eps [(sigma/r)^12 - (sigma/r)^6]``."""

    def __init__(self, epsilon: float, sigma: float, cutoff: float, shift: bool = True) -> None:
        if epsilon <= 0 or sigma <= 0 or cutoff <= 0:
            raise ValueError("epsilon, sigma and cutoff must be positive")
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self.cutoff = float(cutoff)
        self.shift = bool(shift)
        sr6 = (self.sigma / self.cutoff) ** 6
        self._e_cut = 4.0 * self.epsilon * (sr6 * sr6 - sr6) if shift else 0.0

    # reprolint: hot-path
    def compute(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> ForceResult:
        """Out-of-cutoff pairs (the neighbour list carries the skin) are
        handled by *masked* arithmetic — their energy/force terms are
        multiplied to exact zero instead of being compressed out — so no
        boolean-index re-gathers are needed and every array keeps the stable
        between-rebuild pair count."""
        w = UNPOOLED if workspace is None else workspace
        n = len(atoms)
        forces = w.zeros("lj.forces", (n, 3))
        per_atom = w.zeros("lj.per_atom", n)
        i, j, delta, r2 = stage_pairs("lj", atoms.positions, box, neighbors.pairs, w)
        n_pairs = len(r2)
        mask = w.capacity("lj.mask", n_pairs, dtype=np.bool_)
        np.less_equal(r2, self.cutoff * self.cutoff, out=mask)

        inv_r2 = w.capacity("lj.inv_r2", n_pairs)
        np.divide(1.0, r2, out=inv_r2)
        sr2 = w.capacity("lj.sr2", n_pairs)
        np.multiply(inv_r2, self.sigma * self.sigma, out=sr2)
        sr6 = w.capacity("lj.sr6", n_pairs)
        np.multiply(sr2, sr2, out=sr6)
        sr6 *= sr2
        sr12 = w.capacity("lj.sr12", n_pairs)
        np.multiply(sr6, sr6, out=sr12)

        pair_energy = w.capacity("lj.energy", n_pairs)
        np.subtract(sr12, sr6, out=pair_energy)
        pair_energy *= 4.0 * self.epsilon
        pair_energy -= self._e_cut
        pair_energy *= mask

        coeff = w.capacity("lj.coeff", n_pairs)
        np.multiply(sr12, 2.0, out=coeff)
        coeff -= sr6
        coeff *= 24.0 * self.epsilon
        coeff *= inv_r2
        coeff *= mask

        delta *= coeff[:, None]
        return ForceResult(scatter_pairs(forces, per_atom, i, j, delta, pair_energy), forces, per_atom)
