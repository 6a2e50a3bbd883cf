"""Gupta / second-moment tight-binding potential for copper.

This is a genuinely many-body (EAM-like) potential, so the "pseudo-AIMD"
copper reference has the same qualitative character as the DFT data the paper
trains on: the atomic energy depends on the whole local environment, not only
on pair distances.

    E_i = sum_j A exp(-p (r_ij/r0 - 1)) - sqrt( sum_j xi^2 exp(-2 q (r_ij/r0 - 1)) )

The parameters are the Cleri & Rosato (1993) copper fit.
"""

from __future__ import annotations

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData
from ..workspace import UNPOOLED, scatter_add_scalars, scatter_add_vectors
from .base import ForceField, ForceResult
from .pairs import compress_pairs, pair_operands, stage_pairs

#: Cleri & Rosato (PRB 48, 22) parameters for Cu.
CU_GUPTA = {"a": 0.0855, "xi": 1.224, "p": 10.960, "q": 2.278, "r0": 2.556}


class GuptaPotential(ForceField):
    """Second-moment approximation (SMA) many-body potential."""

    #: E_i is a sum over i's full neighbour list, so a rank evaluates its
    #: centre rows and reverse-scatters the forces on ghost copies.
    parallel_strategy = "peratom"

    def __init__(self, cutoff: float = 6.5) -> None:
        if cutoff <= 0:
            raise ValueError("Gupta cutoff must be positive")
        self.a = CU_GUPTA["a"]
        self.xi = CU_GUPTA["xi"]
        self.p = CU_GUPTA["p"]
        self.q = CU_GUPTA["q"]
        self.r0 = CU_GUPTA["r0"]
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
    def compute(self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None) -> ForceResult:
        """Energies ``E_i`` of the centre rows and the forces they exert.

        The centres are ``neighbors.primary`` (``None``: every row, the serial
        case).  Each pair's repulsion and embedding derivatives count once per
        centre member, with weights ``c`` of 1.0 or 0.0:
        ``dE/dr = 0.5 (c_i + c_j) d(rep)/dr - 0.5 (c_i/sqrt(rho_i) + c_j/sqrt(rho_j)) d(rho)/dr``.
        A rank holding every pair that touches its centres thus gets their
        complete energies and every force they exert, on owned rows and ghost
        copies alike; a non-centre row's energy is zero.  With every row a
        centre the weights are exact no-ops (``x * 1.0``, ``0.5 * 2.0``).
        """
        w = UNPOOLED if workspace is None else workspace
        coords, i, j = pair_operands("gupta.all", atoms.positions, neighbors.pairs, w)
        delta, r = stage_pairs("gupta.all", coords, box, i, j, w)
        np.sqrt(r, out=r)
        keep = np.nonzero(r <= self.cutoff)[0]
        i, j, delta, r = compress_pairs("gupta", keep, i, j, delta, r, w)
        repulsion, density_pair, drep_dr, drho_dr = self.pair_terms(r)

        n = len(atoms)
        centre = w.buffer("gupta.centre", n)
        centre[:] = True if neighbors.primary is None else neighbors.primary
        rep_atom = w.zeros("gupta.rep_atom", n)
        scatter_add_scalars(rep_atom, i, repulsion)
        scatter_add_scalars(rep_atom, j, repulsion)
        rho = w.zeros("gupta.rho", n)
        scatter_add_scalars(rho, i, density_pair)
        scatter_add_scalars(rho, j, density_pair)

        # the floor keeps zero-density atoms finite: their derivative is never
        # consumed (no in-cutoff pair) and their energy is the bare repulsion;
        # a non-centre row's density is partial, and its weight zeroes both
        sqrt_rho = np.sqrt(np.maximum(rho, 1.0e-300))
        per_atom = w.buffer("gupta.per_atom", n)
        np.subtract(rep_atom, sqrt_rho, out=per_atom)
        isolated = rho == 0.0
        per_atom[isolated] = rep_atom[isolated]
        per_atom *= centre
        inv_sqrt = w.buffer("gupta.inv_sqrt", n)
        np.divide(1.0, sqrt_rho, out=inv_sqrt)
        inv_sqrt *= centre

        # ``delta`` is scaled in place into the Newton-scattered pair forces
        coeff = w.capacity("gupta.coeff", len(r))
        np.add(centre[i], centre[j], out=coeff)
        coeff *= 0.5
        coeff *= drep_dr
        coeff -= 0.5 * (inv_sqrt[i] + inv_sqrt[j]) * drho_dr
        np.negative(coeff, out=coeff)
        coeff /= r
        delta *= coeff[:, None]
        forces = scatter_add_vectors(w.zeros("gupta.forces", (n, 3)), i, j, delta)
        return ForceResult(float(per_atom.sum()), forces, per_atom)
