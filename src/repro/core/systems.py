"""Benchmark system definitions (the copper and water systems of the paper).

A :class:`SystemSpec` carries the physical parameters the performance model
needs (density, cutoff, neighbour count, time-step, Deep Potential sizes) and
can synthesize real atomic coordinates at any size for the decomposition /
load-balance studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import Box
from ..md.lattice import cells_for_atom_count, fcc_lattice
from ..units import CU_LATTICE_CONSTANT, WATER_DENSITY, AVOGADRO, MASSES
from ..utils.rng import default_rng


@dataclass(frozen=True)
class SystemSpec:
    """Physical and model parameters of one benchmark system."""

    name: str
    timestep_fs: float
    cutoff: float
    cutoff_smooth: float
    atom_density: float  # atoms per cubic angstrom
    neighbors_per_atom: int
    embedding_sizes: tuple[int, ...] = (25, 50, 100)
    axis_neurons: int = 16
    fitting_sizes: tuple[int, ...] = (240, 240, 240)
    type_names: tuple[str, ...] = ("X",)

    # -- coordinate synthesis --------------------------------------------------
    def build_positions(self, n_atoms: int, rng=None) -> tuple[np.ndarray, Box]:
        """Synthesize realistic coordinates with about ``n_atoms`` atoms.

        Copper: an exact FCC supercell (the actual benchmark structure).
        Water: molecules on a jittered grid at the experimental density with
        the three atoms of each molecule placed around the oxygen — enough
        realism for binning/load-balance statistics at half-million-atom
        scale without the cost of building full random orientations.
        """
        rng = default_rng(rng)
        if self.name == "copper":
            cells = cells_for_atom_count(n_atoms)
            atoms, box = fcc_lattice(cells, CU_LATTICE_CONSTANT, "Cu", perturbation=0.03, rng=rng)
            return atoms.positions, box
        if self.name == "water":
            n_molecules = max(1, int(round(n_atoms / 3)))
            mass_g = n_molecules * (MASSES["O"] + 2 * MASSES["H"]) / AVOGADRO
            edge = (mass_g / WATER_DENSITY * 1.0e24) ** (1.0 / 3.0)
            box = Box.cubic(edge)
            grid = int(np.ceil(n_molecules ** (1.0 / 3.0)))
            spacing = edge / grid
            idx = np.arange(grid ** 3)[:n_molecules]
            cells = np.stack([idx // (grid * grid), (idx // grid) % grid, idx % grid], axis=1)
            centers = (cells + 0.5) * spacing + rng.normal(scale=0.15, size=(n_molecules, 3))
            offsets = rng.normal(scale=0.6, size=(n_molecules, 2, 3))
            positions = np.concatenate(
                [centers[:, None, :], centers[:, None, :] + offsets], axis=1
            ).reshape(-1, 3)
            return box.wrap(positions), box
        raise KeyError(f"unknown system {self.name!r}")

    def atoms_for_cores(self, n_cores: int, atoms_per_core: float) -> int:
        return int(round(n_cores * atoms_per_core))


def copper_spec() -> SystemSpec:
    """The 8 A-cutoff copper benchmark (512 neighbours, 1 fs time-step)."""
    return SystemSpec(
        name="copper",
        timestep_fs=1.0,
        cutoff=8.0,
        cutoff_smooth=0.5,
        atom_density=4.0 / CU_LATTICE_CONSTANT ** 3,
        neighbors_per_atom=512,
        type_names=("Cu",),
    )


def water_spec() -> SystemSpec:
    """The 6 A-cutoff water benchmark (46/92 neighbours, 0.5 fs time-step)."""
    molecules_per_a3 = WATER_DENSITY / (MASSES["O"] + 2 * MASSES["H"]) * AVOGADRO * 1.0e-24
    return SystemSpec(
        name="water",
        timestep_fs=0.5,
        cutoff=6.0,
        cutoff_smooth=0.5,
        atom_density=3.0 * molecules_per_a3,
        # average padded neighbour count over 2 H (46) + 1 O (92) per molecule
        neighbors_per_atom=61,
        type_names=("O", "H"),
    )


SYSTEMS: dict[str, SystemSpec] = {}


def get_system(name: str) -> SystemSpec:
    """Resolve a benchmark system by name ("copper" or "water")."""
    if name == "copper":
        return copper_spec()
    if name == "water":
        return water_spec()
    raise KeyError(f"unknown system {name!r}; available: copper, water")
