"""Structure-of-arrays atom container.

``Atoms`` mirrors the layout LAMMPS uses internally: contiguous per-atom
arrays for positions, velocities, forces, integer types, masses and ids.  The
parallel package slices these arrays when distributing atoms over simulated
MPI ranks, and the load-balance study (Fig. 5 of the paper) reorganizes the
same arrays into local/ghost groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import MASSES, maxwell_boltzmann_sigmas
from ..utils.rng import default_rng


@dataclass
class Atoms:
    """Per-atom state for a simulation.

    Attributes
    ----------
    positions:
        ``(n, 3)`` cartesian coordinates in angstrom.
    velocities:
        ``(n, 3)`` velocities in A/fs.
    forces:
        ``(n, 3)`` forces in eV/A.
    types:
        ``(n,)`` integer species indices (0-based).
    masses:
        ``(n,)`` per-atom masses in amu.
    ids:
        ``(n,)`` global atom ids (useful after decomposition/reordering).
    type_names:
        mapping from type index to element symbol.
    """

    positions: np.ndarray
    types: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray = None  # type: ignore[assignment]
    forces: np.ndarray = None  # type: ignore[assignment]
    ids: np.ndarray = None  # type: ignore[assignment]
    type_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        n = len(self.positions)
        self.types = np.ascontiguousarray(self.types, dtype=np.int64)
        if self.types.shape != (n,):
            raise ValueError("types must have shape (n,)")
        self.masses = np.ascontiguousarray(self.masses, dtype=np.float64)
        if self.masses.shape != (n,):
            raise ValueError("masses must have shape (n,)")
        if self.velocities is None:
            self.velocities = np.zeros((n, 3))
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
        if self.velocities.shape != (n, 3):
            raise ValueError(f"velocities must have shape (n, 3) with n = {n}, got {self.velocities.shape}")
        if self.forces is None:
            self.forces = np.zeros((n, 3))
        self.forces = np.ascontiguousarray(self.forces, dtype=np.float64)
        if self.forces.shape != (n, 3):
            raise ValueError(f"forces must have shape (n, 3) with n = {n}, got {self.forces.shape}")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if self.ids.shape != (n,):
            raise ValueError(f"ids must have shape (n,) with n = {n}, got {self.ids.shape}")
        self.type_names = tuple(self.type_names)

    # -- basic protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.positions)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def n_types(self) -> int:
        if self.type_names:
            return len(self.type_names)
        return int(self.types.max()) + 1 if len(self.types) else 0

    def copy(self) -> "Atoms":
        return Atoms(
            positions=self.positions.copy(),
            types=self.types.copy(),
            masses=self.masses.copy(),
            velocities=self.velocities.copy(),
            forces=self.forces.copy(),
            ids=self.ids.copy(),
            type_names=self.type_names,
        )

    def select(self, index) -> "Atoms":
        """Return a new ``Atoms`` holding the selected subset."""
        return Atoms(
            positions=self.positions[index],
            types=self.types[index],
            masses=self.masses[index],
            velocities=self.velocities[index],
            forces=self.forces[index],
            ids=self.ids[index],
            type_names=self.type_names,
        )

    # -- initialization helpers ----------------------------------------------
    def initialize_velocities(self, temperature_k: float, rng=None) -> None:
        """Draw Maxwell-Boltzmann velocities at ``temperature_k``, then remove
        the centre-of-mass drift."""
        rng = default_rng(rng)
        n = self.n_atoms
        if n == 0:
            return
        sigmas = maxwell_boltzmann_sigmas(self.masses, temperature_k)
        self.velocities = rng.normal(size=(n, 3)) * sigmas[:, None]
        if n > 1:
            total_mass = self.masses.sum()
            com_velocity = (self.masses[:, None] * self.velocities).sum(axis=0) / total_mass
            self.velocities -= com_velocity

    @staticmethod
    def from_symbols(positions, symbols, **kwargs) -> "Atoms":
        """Build from element symbols, looking masses up in :data:`MASSES`."""
        symbols = list(symbols)
        unique = sorted(set(symbols), key=symbols.index)
        type_map = {sym: i for i, sym in enumerate(unique)}
        types = np.array([type_map[s] for s in symbols], dtype=np.int64)
        masses = np.array([MASSES[s] for s in symbols], dtype=np.float64)
        return Atoms(
            positions=np.asarray(positions, dtype=np.float64),
            types=types,
            masses=masses,
            type_names=tuple(unique),
            **kwargs,
        )

    def concatenate(self, other: "Atoms") -> "Atoms":
        """Concatenate two atom sets sharing the same type map."""
        if self.type_names and other.type_names and self.type_names != other.type_names:
            raise ValueError("cannot concatenate atoms with different type maps")
        return Atoms(
            positions=np.vstack([self.positions, other.positions]),
            types=np.concatenate([self.types, other.types]),
            masses=np.concatenate([self.masses, other.masses]),
            velocities=np.vstack([self.velocities, other.velocities]),
            forces=np.vstack([self.forces, other.forces]),
            ids=np.concatenate([self.ids, other.ids]),
            type_names=self.type_names or other.type_names,
        )
