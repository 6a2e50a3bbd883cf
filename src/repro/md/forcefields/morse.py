"""Morse pair potential parameterized for copper.

Used as a smooth pseudo-AIMD reference for the copper benchmark (the paper's
copper model is a Deep Potential trained on DFT; any smooth metallic-like
reference exercises the same training/inference code paths).
"""

from __future__ import annotations

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData
from ..workspace import UNPOOLED
from .base import ForceField, ForceResult
from .pairs import pair_blocks, pair_operands, scatter_pairs

#: Literature Morse parameters for copper (Girifalco & Weizer, 1959).
CU_MORSE = {"d": 0.3429, "alpha": 1.3588, "r0": 2.866}


class MorsePotential(ForceField):
    """``E(r) = d [exp(-2 a (r - r0)) - 2 exp(-a (r - r0))]`` with a shift."""

    def __init__(self, cutoff: float = 8.0, shift: bool = True) -> None:
        if cutoff <= 0:
            raise ValueError("Morse cutoff must be positive")
        self.d = CU_MORSE["d"]
        self.alpha = CU_MORSE["alpha"]
        self.r0 = CU_MORSE["r0"]
        self.cutoff = float(cutoff)
        self._e_cut = self._pair_energy(np.array([cutoff]))[0] if shift else 0.0

    def _pair_energy(self, r: np.ndarray) -> np.ndarray:
        x = np.exp(-self.alpha * (r - self.r0))
        return self.d * (x * x - 2.0 * x)

    # reprolint: hot-path
    def compute(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> ForceResult:
        """Masked per-pair arithmetic, block by block: skin pairs multiply to exact zero."""
        w = UNPOOLED if workspace is None else workspace
        n = len(atoms)
        forces = w.zeros("morse.forces", (n, 3))
        per_atom = w.zeros("morse.per_atom", n)
        coords, i, j = pair_operands("morse", atoms.positions, neighbors.pairs, w)
        n_pairs = len(i)
        pair_energy = w.capacity("morse.energy", n_pairs)
        pair_forces = w.capacity("morse.pair_forces", 3 * n_pairs).reshape(3, n_pairs)
        for rows, delta, r in pair_blocks("morse", coords, box, i, j, w):
            m = len(r)
            np.sqrt(r, out=r)
            mask = w.capacity("morse.mask", m, dtype=np.bool_)
            np.less_equal(r, self.cutoff, out=mask)

            # x = exp(-alpha (r - r0)); energy = d (x^2 - 2x) - e_cut
            x = w.capacity("morse.x", m)
            np.subtract(r, self.r0, out=x)
            x *= -self.alpha
            np.exp(x, out=x)
            energy = pair_energy[rows]
            np.multiply(x, x, out=energy)
            two_x = w.capacity("morse.two_x", m)
            np.multiply(x, 2.0, out=two_x)
            energy -= two_x
            energy *= self.d
            energy -= self._e_cut
            energy *= mask

            # f_mag = -dE/dr = -d (-2 a x^2 + 2 a x)
            f_mag = w.capacity("morse.f_mag", m)
            np.multiply(x, x, out=f_mag)
            f_mag *= -2.0 * self.alpha
            two_x *= self.alpha  # (2 x) * alpha == 2 alpha x
            f_mag += two_x
            f_mag *= -self.d
            f_mag *= mask
            f_mag /= r

            np.multiply(delta.T, f_mag, out=pair_forces[:, rows])
        energy = scatter_pairs(forces, per_atom, i, j, pair_forces.T, pair_energy)
        return ForceResult(energy, forces, per_atom)
