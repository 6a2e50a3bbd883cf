"""The allocating ``np.add.at`` bodies of the classical force fields.

The original un-pooled formulation of each potential, kept as the golden
reference the bodies in :mod:`repro.md.forcefields` are pinned against
(``tests/test_stepping_core.py::TestWorkspaceParity``, 1e-12) and timed
against (``benchmarks/bench_run_loop.py``).
"""

from __future__ import annotations

import numpy as np

from ..md import Atoms, Box, NeighborData
from ..md.forcefields import ForceField, ForceResult, GuptaPotential, LennardJones, MorsePotential


def accumulate_pair_forces(n_atoms: int, pairs: np.ndarray, pair_forces: np.ndarray) -> np.ndarray:
    """Scatter per-pair forces (acting on atom i of each i<j pair) onto atoms.

    ``pair_forces[k]`` is the force on ``pairs[k, 0]`` due to ``pairs[k, 1]``;
    Newton's third law applies the opposite force to the partner.
    """
    forces = np.zeros((n_atoms, 3))
    if len(pairs) == 0:
        return forces
    np.add.at(forces, pairs[:, 0], pair_forces)
    np.add.at(forces, pairs[:, 1], -pair_forces)
    return forces


def lennard_jones(ff: LennardJones, atoms: Atoms, box: Box, neighbors: NeighborData) -> ForceResult:
    n = len(atoms)
    pairs = neighbors.pairs
    forces = np.zeros((n, 3))
    per_atom = np.zeros(n)
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)

    delta = atoms.positions[pairs[:, 0]] - atoms.positions[pairs[:, 1]]
    delta = box.minimum_image(delta)
    r2 = np.einsum("ij,ij->i", delta, delta)
    mask = r2 <= ff.cutoff * ff.cutoff
    pairs = pairs[mask]
    delta = delta[mask]
    r2 = r2[mask]
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)

    inv_r2 = 1.0 / r2
    sr2 = ff.sigma * ff.sigma * inv_r2
    sr6 = sr2 * sr2 * sr2
    sr12 = sr6 * sr6
    pair_energy = 4.0 * ff.epsilon * (sr12 - sr6) - ff._e_cut
    # dE/dr * (1/r) so the force vector is coeff * delta
    coeff = 24.0 * ff.epsilon * (2.0 * sr12 - sr6) * inv_r2
    pair_forces = coeff[:, None] * delta

    forces = accumulate_pair_forces(n, pairs, pair_forces)
    np.add.at(per_atom, pairs[:, 0], 0.5 * pair_energy)
    np.add.at(per_atom, pairs[:, 1], 0.5 * pair_energy)
    return ForceResult(float(pair_energy.sum()), forces, per_atom)


def morse(ff: MorsePotential, atoms: Atoms, box: Box, neighbors: NeighborData) -> ForceResult:
    n = len(atoms)
    pairs = neighbors.pairs
    forces = np.zeros((n, 3))
    per_atom = np.zeros(n)
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)
    delta = atoms.positions[pairs[:, 0]] - atoms.positions[pairs[:, 1]]
    delta = box.minimum_image(delta)
    r = np.linalg.norm(delta, axis=1)
    mask = r <= ff.cutoff
    pairs, delta, r = pairs[mask], delta[mask], r[mask]
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)
    x = np.exp(-ff.alpha * (r - ff.r0))
    energy = ff.d * (x * x - 2.0 * x) - ff._e_cut
    dedr = ff.d * (-2.0 * ff.alpha * x * x + 2.0 * ff.alpha * x)
    f_mag = -dedr
    pair_forces = (f_mag / r)[:, None] * delta
    forces = accumulate_pair_forces(n, pairs, pair_forces)
    np.add.at(per_atom, pairs[:, 0], 0.5 * energy)
    np.add.at(per_atom, pairs[:, 1], 0.5 * energy)
    return ForceResult(float(energy.sum()), forces, per_atom)


def gupta(ff: GuptaPotential, atoms: Atoms, box: Box, neighbors: NeighborData) -> ForceResult:
    n = len(atoms)
    pairs = neighbors.pairs
    forces = np.zeros((n, 3))
    per_atom = np.zeros(n)
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)

    delta = atoms.positions[pairs[:, 0]] - atoms.positions[pairs[:, 1]]
    delta = box.minimum_image(delta)
    r = np.linalg.norm(delta, axis=1)
    mask = r <= ff.cutoff
    pairs, delta, r = pairs[mask], delta[mask], r[mask]
    if len(pairs) == 0:
        return ForceResult(0.0, forces, per_atom)

    i_idx, j_idx = pairs[:, 0], pairs[:, 1]
    repulsion, density_pair, drep_dr, drho_dr = ff.pair_terms(r)

    # per-atom repulsive energy and embedding density
    rep_atom = np.zeros(n)
    np.add.at(rep_atom, i_idx, repulsion)
    np.add.at(rep_atom, j_idx, repulsion)
    rho = np.zeros(n)
    np.add.at(rho, i_idx, density_pair)
    np.add.at(rho, j_idx, density_pair)

    sqrt_rho = np.sqrt(np.maximum(rho, 1.0e-300))
    inv_sqrt = 1.0 / sqrt_rho
    per_atom = rep_atom - sqrt_rho
    # Atoms with no neighbours contribute nothing.
    per_atom[rho == 0.0] = rep_atom[rho == 0.0]
    energy = float(per_atom.sum())

    # Pair force magnitude (positive = repulsive), acting on atom i along +delta.
    dE_dr = drep_dr - 0.5 * (inv_sqrt[i_idx] + inv_sqrt[j_idx]) * drho_dr
    f_mag = -dE_dr  # force on i along +delta direction
    pair_forces = (f_mag / r)[:, None] * delta
    np.add.at(forces, i_idx, pair_forces)
    np.add.at(forces, j_idx, -pair_forces)
    return ForceResult(energy, forces, per_atom)


_BODIES = {LennardJones: lennard_jones, MorsePotential: morse, GuptaPotential: gupta}


class ReferenceForceField(ForceField):
    """Runs ``inner``'s reference body wherever a force field is expected,
    ignoring the pool: a run loop over it is the same dynamics, allocating."""

    def __init__(self, inner: ForceField) -> None:
        self.inner, self.cutoff = inner, inner.cutoff
        self._body = _BODIES[type(inner)]

    def compute(self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None) -> ForceResult:
        return self._body(self.inner, atoms, box, neighbors)
