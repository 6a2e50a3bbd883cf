"""Force-field interface shared by reference potentials and the DP model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..atoms import Atoms
from ..box import Box
from ..neighbor import NeighborData

#: Displacement (A) of each central-difference trial in
#: :meth:`ForceField.numerical_forces`.
FINITE_DIFFERENCE_STEP = 1.0e-5


@dataclass
class ForceResult:
    """The output of one force evaluation.

    Attributes
    ----------
    energy:
        total potential energy in eV.
    forces:
        ``(n, 3)`` forces in eV/A.
    per_atom_energy:
        ``(n,)`` atomic energy decomposition (sums to ``energy``).
    virial:
        optional 3x3 virial tensor (eV).
    """

    energy: float
    forces: np.ndarray
    per_atom_energy: np.ndarray | None = None
    virial: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.forces = np.asarray(self.forces, dtype=np.float64)
        if self.per_atom_energy is not None:
            self.per_atom_energy = np.asarray(self.per_atom_energy, dtype=np.float64)


class ForceField:
    """Base class: a force field maps (atoms, box, neighbours) to forces."""

    #: interaction cutoff in angstrom; ``None`` means the force field decides.
    cutoff: float = 0.0

    #: How the domain-decomposed engine splits this force field over ranks
    #: (see :mod:`repro.parallel.engine`):
    #:
    #: * ``"pair"`` — energy/forces decompose into pair terms; each pair is
    #:   computed once globally, by the rank owning the member with the lower
    #:   global id, and ghost forces are reverse-scattered (LJ, Morse).
    #: * ``"molecular"`` — pair terms plus bonded terms (bonds/angles); each
    #:   bonded term is computed by the owner of its lowest-id member and the
    #:   force field must provide ``with_topology`` for rank-local index maps
    #:   (flexible water).
    #: * ``"density"`` — EAM-like: a per-atom density is accumulated first,
    #:   its embedding derivative is forward-communicated to ghost copies,
    #:   then pair forces are evaluated once per pair (Gupta).
    #: * ``"peratom"`` — the energy is a sum of per-atom terms over each
    #:   atom's full neighbour list; ranks evaluate owned atoms only and
    #:   reverse-scatter the neighbour forces (Deep Potential).
    parallel_strategy: str = "pair"

    def compute(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> ForceResult:
        """Evaluate energy/forces; see :class:`ForceResult`.

        ``workspace`` is the buffer pool, never an arithmetic switch: the
        returned arrays are :class:`repro.md.workspace.Workspace` buffers,
        valid until the *next* ``compute`` on the same workspace; ``None``
        resolves to :data:`repro.md.workspace.UNPOOLED`, the same body on
        freshly owned arrays.
        """
        raise NotImplementedError

    def energy(self, atoms: Atoms, box: Box, neighbors: NeighborData) -> float:
        return self.compute(atoms, box, neighbors).energy

    # -- finite-difference helper (used by the test-suite) -------------------
    def numerical_forces(
        self,
        atoms: Atoms,
        box: Box,
        neighbors_builder,
    ) -> np.ndarray:
        """Central-difference forces with step :data:`FINITE_DIFFERENCE_STEP`;
        ``neighbors_builder(atoms)`` must return a fresh :class:`NeighborData`
        for perturbed coordinates.

        The stencil and the force table are assembled with array operations;
        the only remaining loop issues the 6n independent black-box energy
        evaluations, reusing one O(n) position buffer per trial instead of a
        full per-element ``Atoms`` copy.
        """
        base = atoms.copy()
        n = len(base)
        if n == 0:
            return np.zeros((0, 3))

        # bump[axis] is the +step displacement vector along that axis; the
        # unperturbed rows are wrapped once up front (wrapping is idempotent,
        # so this matches wrapping each whole perturbed configuration).
        bump = FINITE_DIFFERENCE_STEP * np.eye(3)
        signs = (+1.0, -1.0)
        wrapped = box.wrap(base.positions)

        trial = base.copy()
        buffer = np.empty_like(wrapped)
        energies = np.empty((n, 3, 2))
        for i in range(n):
            for axis in range(3):
                for slot, sign in enumerate(signs):
                    np.copyto(buffer, wrapped)
                    buffer[i] = box.wrap(base.positions[i] + sign * bump[axis])
                    trial.positions = buffer
                    nd = neighbors_builder(trial)
                    energies[i, axis, slot] = self.compute(trial, box, nd).energy

        return -(energies[..., 0] - energies[..., 1]) / (2.0 * FINITE_DIFFERENCE_STEP)
