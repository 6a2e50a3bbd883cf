"""Flexible SPC-like water reference potential.

The paper's water benchmark runs a Deep Potential trained on ab initio data;
here the "ab initio" reference is a classical flexible water model:

* harmonic O-H bonds and H-O-H angles (intramolecular),
* O-O Lennard-Jones,
* shifted-force Coulomb between atoms of different molecules (SPC/E charges),

all short-ranged so the whole interaction fits inside the 6 A cutoff used by
the paper's water system.  The model produces liquid-water-like radial
distribution functions, which is all Fig. 6 needs.
"""

from __future__ import annotations

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData
from ..water import WaterTopology
from ..workspace import UNPOOLED
from .base import ForceField, ForceResult
from .pairs import compress_pairs, scatter_pairs, stage_pairs

#: Coulomb constant e^2 / (4 pi eps0) in eV*A.
COULOMB_CONSTANT = 14.399645

#: SPC/E partial charges.
Q_OXYGEN = -0.8476
Q_HYDROGEN = 0.4238


class WaterReference(ForceField):
    """Flexible SPC-like water model (types: O=0, H=1)."""

    #: Pair + bonded terms; the engine remaps bonds/angles to rank-local
    #: indices via :meth:`with_topology`.
    parallel_strategy = "molecular"

    def __init__(
        self,
        topology: WaterTopology,
        cutoff: float = 6.0,
        k_bond: float = 45.93,
        r0_bond: float = 1.0,
        k_angle: float = 3.29,
        theta0_deg: float = 109.47,
        lj_epsilon: float = 6.737e-3,
        lj_sigma: float = 3.166,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.topology = topology
        self.cutoff = float(cutoff)
        self.k_bond = float(k_bond)
        self.r0_bond = float(r0_bond)
        self.k_angle = float(k_angle)
        self.theta0 = float(np.deg2rad(theta0_deg))
        self.lj_epsilon = float(lj_epsilon)
        self.lj_sigma = float(lj_sigma)
        sr6 = (self.lj_sigma / self.cutoff) ** 6
        self._lj_shift = 4.0 * self.lj_epsilon * (sr6 * sr6 - sr6)

    def with_topology(self, topology: WaterTopology) -> "WaterReference":
        """A clone sharing every parameter but bound to another topology.

        The domain-decomposed engine uses this to evaluate each rank's local
        system: bonds/angles are filtered to the terms the rank owns and
        remapped to local (owned+ghost) indices, while the physics stays
        bit-identical to the serial force field.
        """
        clone = WaterReference(
            topology=topology,
            cutoff=self.cutoff,
            k_bond=self.k_bond,
            r0_bond=self.r0_bond,
            k_angle=self.k_angle,
            theta0_deg=float(np.rad2deg(self.theta0)),
            lj_epsilon=self.lj_epsilon,
            lj_sigma=self.lj_sigma,
        )
        # deg→rad→deg can be off by one ulp; keep the angle bit-identical.
        clone.theta0 = self.theta0
        return clone

    # -- intramolecular terms --------------------------------------------------
    def _bond_terms(self, atoms: Atoms, box: Box, forces: np.ndarray, per_atom: np.ndarray) -> float:
        bonds = self.topology.bonds
        if len(bonds) == 0:
            return 0.0
        delta = atoms.positions[bonds[:, 0]] - atoms.positions[bonds[:, 1]]
        delta = box.minimum_image(delta)
        r = np.linalg.norm(delta, axis=1)
        dr = r - self.r0_bond
        energy = 0.5 * self.k_bond * dr * dr
        f_mag = -self.k_bond * dr  # force on atom 0 along +delta
        pair_forces = (f_mag / r)[:, None] * delta
        np.add.at(forces, bonds[:, 0], pair_forces)  # reprolint: allow[alloc] O(bonds) intramolecular scatter the parity tests pin
        np.add.at(forces, bonds[:, 1], -pair_forces)  # reprolint: allow[alloc] O(bonds) intramolecular scatter the parity tests pin
        np.add.at(per_atom, bonds[:, 0], 0.5 * energy)  # reprolint: allow[alloc] O(bonds) intramolecular scatter the parity tests pin
        np.add.at(per_atom, bonds[:, 1], 0.5 * energy)  # reprolint: allow[alloc] O(bonds) intramolecular scatter the parity tests pin
        return float(energy.sum())

    def _angle_terms(self, atoms: Atoms, box: Box, forces: np.ndarray, per_atom: np.ndarray) -> float:
        angles = self.topology.angles
        if len(angles) == 0:
            return 0.0
        # Convention: angles rows are (H1, O, H2); theta is at the middle atom.
        i, j, k = angles[:, 0], angles[:, 1], angles[:, 2]
        a = box.minimum_image(atoms.positions[i] - atoms.positions[j])
        b = box.minimum_image(atoms.positions[k] - atoms.positions[j])
        ra = np.linalg.norm(a, axis=1)
        rb = np.linalg.norm(b, axis=1)
        cos_theta = np.einsum("ij,ij->i", a, b) / (ra * rb)
        cos_theta = np.clip(cos_theta, -1.0 + 1.0e-12, 1.0 - 1.0e-12)
        theta = np.arccos(cos_theta)
        sin_theta = np.sqrt(1.0 - cos_theta * cos_theta)
        d_theta = theta - self.theta0
        energy = 0.5 * self.k_angle * d_theta * d_theta
        de_dtheta = self.k_angle * d_theta

        # F_i = (dE/dtheta / sin) * (b/(ra rb) - cos * a/ra^2), analogous for F_k.
        coeff = (de_dtheta / sin_theta)[:, None]
        f_i = coeff * (b / (ra * rb)[:, None] - cos_theta[:, None] * a / (ra * ra)[:, None])
        f_k = coeff * (a / (ra * rb)[:, None] - cos_theta[:, None] * b / (rb * rb)[:, None])
        f_j = -(f_i + f_k)
        np.add.at(forces, i, f_i)  # reprolint: allow[alloc] O(angles) intramolecular scatter the parity tests pin
        np.add.at(forces, j, f_j)  # reprolint: allow[alloc] O(angles) intramolecular scatter the parity tests pin
        np.add.at(forces, k, f_k)  # reprolint: allow[alloc] O(angles) intramolecular scatter the parity tests pin
        np.add.at(per_atom, j, energy)  # reprolint: allow[alloc] O(angles) intramolecular scatter the parity tests pin
        return float(energy.sum())

    # -- intermolecular terms ---------------------------------------------------
    # reprolint: hot-path
    def _nonbonded_terms(
        self,
        atoms: Atoms,
        box: Box,
        neighbors: NeighborData,
        forces: np.ndarray,
        per_atom: np.ndarray,
        w,
    ) -> float:
        mol = self.topology.molecules
        i, j, delta, r2 = stage_pairs("water.all", atoms.positions, box, neighbors.pairs, w)
        keep = np.nonzero((mol[i] != mol[j]) & (r2 <= self.cutoff * self.cutoff))[0]
        i, j, delta, r2 = compress_pairs("water", keep, i, j, delta, r2, w)
        r = np.sqrt(r2)
        inv_r = 1.0 / r

        charges = np.where(atoms.types == 0, Q_OXYGEN, Q_HYDROGEN)
        qq = COULOMB_CONSTANT * charges[i] * charges[j]
        rc = self.cutoff
        # Shifted-force Coulomb: E = qq (1/r - 1/rc + (r - rc)/rc^2); E(rc)=E'(rc)=0.
        e_coul = qq * (inv_r - 1.0 / rc + (r - rc) / (rc * rc))
        f_coul = qq * (inv_r * inv_r - 1.0 / (rc * rc))  # -dE/dr

        # O-O Lennard-Jones.
        oo_mask = (atoms.types[i] == 0) & (atoms.types[j] == 0)
        e_lj = w.capacity_zeros("water.e_lj", len(e_coul))
        f_lj = w.capacity_zeros("water.f_lj", len(f_coul))
        if np.any(oo_mask):
            inv_r2 = 1.0 / r2[oo_mask]
            sr2 = self.lj_sigma * self.lj_sigma * inv_r2
            sr6 = sr2 * sr2 * sr2
            sr12 = sr6 * sr6
            e_lj[oo_mask] = 4.0 * self.lj_epsilon * (sr12 - sr6) - self._lj_shift
            f_lj[oo_mask] = 24.0 * self.lj_epsilon * (2.0 * sr12 - sr6) * inv_r2 * r[oo_mask]

        energy = e_coul + e_lj
        f_mag = f_coul + f_lj
        delta *= (f_mag * inv_r)[:, None]
        return scatter_pairs(forces, per_atom, i, j, delta, energy)

    # reprolint: hot-path
    def compute(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> ForceResult:
        n = len(atoms)
        w = UNPOOLED if workspace is None else workspace
        forces = w.zeros("water.forces", (n, 3))
        per_atom = w.zeros("water.per_atom", n)
        energy = 0.0
        energy += self._bond_terms(atoms, box, forces, per_atom)
        energy += self._angle_terms(atoms, box, forces, per_atom)
        energy += self._nonbonded_terms(atoms, box, neighbors, forces, per_atom, w)
        return ForceResult(energy, forces, per_atom)
