"""Gupta / second-moment tight-binding potential for copper.

This is a genuinely many-body (EAM-like) potential, so the "pseudo-AIMD"
copper reference has the same qualitative character as the DFT data the paper
trains on: the atomic energy depends on the whole local environment, not only
on pair distances.

    E_i = sum_j A exp(-p (r_ij/r0 - 1)) - sqrt( sum_j xi^2 exp(-2 q (r_ij/r0 - 1)) )

Parameters default to the Cleri & Rosato (1993) copper fit.
"""

from __future__ import annotations

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData
from ..workspace import UNPOOLED, scatter_add_scalars, scatter_add_vectors
from .base import ForceField, ForceResult
from .pairs import compress_pairs, stage_pairs

#: Cleri & Rosato (PRB 48, 22) parameters for Cu.
CU_GUPTA = {"a": 0.0855, "xi": 1.224, "p": 10.960, "q": 2.278, "r0": 2.556}


class GuptaPotential(ForceField):
    """Second-moment approximation (SMA) many-body potential."""

    #: EAM-like: the engine forward-communicates the embedding derivative
    #: (1/sqrt(rho)) to ghost copies before evaluating pair forces.
    parallel_strategy = "density"

    def __init__(
        self,
        a: float = CU_GUPTA["a"],
        xi: float = CU_GUPTA["xi"],
        p: float = CU_GUPTA["p"],
        q: float = CU_GUPTA["q"],
        r0: float = CU_GUPTA["r0"],
        cutoff: float = 6.5,
    ) -> None:
        if min(a, xi, p, q, r0, cutoff) <= 0:
            raise ValueError("Gupta parameters must be positive")
        self.a = float(a)
        self.xi = float(xi)
        self.p = float(p)
        self.q = float(q)
        self.r0 = float(r0)
        self.cutoff = float(cutoff)

    def pair_terms(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair ``(repulsion, density, d(rep)/dr, d(rho)/dr)`` at distances ``r``.

        The repulsive term is counted once per member atom (it appears in both
        E_i and E_j), hence the factors of two in the radial derivatives:

        *   d(rep)/dr   = -2 A p / r0 * exp(-p x)
        *   d(rho_i)/dr = -2 q xi^2 / r0 * exp(-2 q x)
        """
        x = r / self.r0 - 1.0
        repulsion = self.a * np.exp(-self.p * x)
        density_pair = self.xi * self.xi * np.exp(-2.0 * self.q * x)
        drep_dr = -2.0 * self.a * self.p / self.r0 * np.exp(-self.p * x)
        drho_dr = -2.0 * self.q * self.xi * self.xi / self.r0 * np.exp(-2.0 * self.q * x)
        return repulsion, density_pair, drep_dr, drho_dr

    # reprolint: hot-path
    def density_stage(self, positions: np.ndarray, box: Box, pairs: np.ndarray, w):
        """Stage 1: per-atom energies and the embedding derivative
        ``1/sqrt(rho)``, complete for every atom whose whole environment is in
        ``pairs``, plus the in-cutoff pairs' staged terms for :meth:`force_stage`."""
        i, j, delta, r = stage_pairs("gupta.all", positions, box, pairs, w)
        np.sqrt(r, out=r)
        keep = np.nonzero(r <= self.cutoff)[0]
        i, j, delta, r = compress_pairs("gupta", keep, i, j, delta, r, w)
        repulsion, density_pair, drep_dr, drho_dr = self.pair_terms(r)

        n = len(positions)
        rep_atom = w.zeros("gupta.rep_atom", n)
        scatter_add_scalars(rep_atom, i, repulsion)
        scatter_add_scalars(rep_atom, j, repulsion)
        rho = w.zeros("gupta.rho", n)
        scatter_add_scalars(rho, i, density_pair)
        scatter_add_scalars(rho, j, density_pair)

        # the floor keeps zero-density atoms finite: their derivative is never
        # consumed (no in-cutoff pair) and their energy is the bare repulsion
        sqrt_rho = np.sqrt(np.maximum(rho, 1.0e-300))
        per_atom = w.buffer("gupta.per_atom", n)
        np.subtract(rep_atom, sqrt_rho, out=per_atom)
        isolated = rho == 0.0
        per_atom[isolated] = rep_atom[isolated]
        return per_atom, 1.0 / sqrt_rho, (i, j, delta, r, drep_dr, drho_dr)

    # reprolint: hot-path
    def force_stage(self, staged, inv_sqrt: np.ndarray, w) -> np.ndarray:
        """Stage 2: the Newton-scattered pair forces (``delta`` is scaled in place):
        ``dE/dr = d(rep)/dr - 0.5 (1/sqrt(rho_i) + 1/sqrt(rho_j)) d(rho)/dr``."""
        i, j, delta, r, drep_dr, drho_dr = staged
        forces = w.zeros("gupta.forces", (len(inv_sqrt), 3))
        coeff = w.capacity("gupta.coeff", len(r))
        np.negative(drep_dr - 0.5 * (inv_sqrt[i] + inv_sqrt[j]) * drho_dr, out=coeff)
        coeff /= r
        delta *= coeff[:, None]
        return scatter_add_vectors(forces, i, j, delta)

    def compute(self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None) -> ForceResult:
        w = UNPOOLED if workspace is None else workspace
        per_atom, inv_sqrt, staged = self.density_stage(atoms.positions, box, neighbors.pairs, w)
        forces = self.force_stage(staged, inv_sqrt, w)
        return ForceResult(float(per_atom.sum()), forces, per_atom)
