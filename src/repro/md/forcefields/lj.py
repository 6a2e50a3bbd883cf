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
from .pairs import pair_blocks, pair_operands, scatter_pairs


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
        between-rebuild pair count.  The arithmetic runs block by block
        (:func:`~repro.md.forcefields.pairs.pair_blocks`)."""
        w = UNPOOLED if workspace is None else workspace
        n = len(atoms)
        forces = w.zeros("lj.forces", (n, 3))
        per_atom = w.zeros("lj.per_atom", n)
        coords, i, j = pair_operands("lj", atoms.positions, neighbors.pairs, w)
        n_pairs = len(i)
        pair_energy = w.capacity("lj.energy", n_pairs)
        pair_forces = w.capacity("lj.pair_forces", 3 * n_pairs).reshape(3, n_pairs)
        for rows, delta, r2 in pair_blocks("lj", coords, box, i, j, w):
            m = len(r2)
            mask = w.capacity("lj.mask", m, dtype=np.bool_)
            np.less_equal(r2, self.cutoff * self.cutoff, out=mask)

            inv_r2 = w.capacity("lj.inv_r2", m)
            np.divide(1.0, r2, out=inv_r2)
            sr2 = w.capacity("lj.sr2", m)
            np.multiply(inv_r2, self.sigma * self.sigma, out=sr2)
            sr6 = w.capacity("lj.sr6", m)
            np.multiply(sr2, sr2, out=sr6)
            sr6 *= sr2
            sr12 = w.capacity("lj.sr12", m)
            np.multiply(sr6, sr6, out=sr12)

            energy = pair_energy[rows]
            np.subtract(sr12, sr6, out=energy)
            energy *= 4.0 * self.epsilon
            energy -= self._e_cut
            energy *= mask

            coeff = w.capacity("lj.coeff", m)
            np.multiply(sr12, 2.0, out=coeff)
            coeff -= sr6
            coeff *= 24.0 * self.epsilon
            coeff *= inv_r2
            coeff *= mask

            np.multiply(delta.T, coeff, out=pair_forces[:, rows])
        energy = scatter_pairs(forces, per_atom, i, j, pair_forces.T, pair_energy)
        return ForceResult(energy, forces, per_atom)
