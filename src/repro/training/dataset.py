"""Pseudo-AIMD reference data generation.

The paper trains its Deep Potential models on ab initio (DFT) data.  DFT is
not available here, so the "ab initio reference" is an analytic many-body
potential (:class:`~repro.md.forcefields.GuptaPotential` for copper, the
flexible SPC-like model for water; the README's "Layout" table lists them
under ``src/repro/md``).  What matters for the reproduction is that the training pipeline,
the accuracy comparison of Table II, and the precision-insensitivity of
Fig. 6 all exercise the same code paths they would with DFT labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.forcefields import ForceField, GuptaPotential, WaterReference
from ..md.lattice import copper_system
from ..md.neighbor import build_neighbor_data
from ..md.water import water_system
from ..utils.rng import default_rng

#: Largest random displacement amplitude (A) of a copper training frame.
COPPER_MAX_PERTURBATION = 0.18
#: Positional jitter (A) of each molecule in a water training frame.
WATER_JITTER = 0.08


@dataclass
class ReferenceFrame:
    """One labelled configuration."""

    atoms: Atoms
    box: Box
    energy: float
    per_atom_energy: np.ndarray
    forces: np.ndarray


@dataclass
class ReferenceDataset:
    """A list of labelled frames plus the generating force field."""

    frames: list[ReferenceFrame] = field(default_factory=list)
    force_field: ForceField | None = None
    type_names: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.frames)

    def add_frame(self, atoms: Atoms, box: Box, force_field: ForceField) -> ReferenceFrame:
        neighbors = build_neighbor_data(atoms.positions, box, force_field.cutoff)
        result = force_field.compute(atoms, box, neighbors)
        frame = ReferenceFrame(
            atoms=atoms,
            box=box,
            energy=result.energy,
            per_atom_energy=(
                result.per_atom_energy
                if result.per_atom_energy is not None
                else np.full(len(atoms), result.energy / max(len(atoms), 1))
            ),
            forces=result.forces,
        )
        self.frames.append(frame)
        return frame

    def split(self, validation_fraction: float = 0.2, rng=None) -> tuple["ReferenceDataset", "ReferenceDataset"]:
        """Random train/validation split."""
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation fraction must be in [0, 1)")
        rng = default_rng(rng)
        indices = rng.permutation(len(self.frames))
        n_val = int(round(validation_fraction * len(self.frames)))
        val_idx = set(indices[:n_val].tolist())
        train = ReferenceDataset(force_field=self.force_field, type_names=self.type_names)
        val = ReferenceDataset(force_field=self.force_field, type_names=self.type_names)
        for i, frame in enumerate(self.frames):
            (val if i in val_idx else train).frames.append(frame)
        return train, val

    def energy_statistics(self) -> dict[str, float]:
        energies = np.array([f.energy / len(f.atoms) for f in self.frames])
        return {
            "mean_energy_per_atom": float(energies.mean()) if len(energies) else 0.0,
            "std_energy_per_atom": float(energies.std()) if len(energies) else 0.0,
            "n_frames": float(len(self.frames)),
        }


def generate_copper_dataset(
    n_frames: int = 20,
    n_cells: tuple[int, int, int] = (3, 3, 3),
    cutoff: float = 5.0,
    rng=None,
) -> ReferenceDataset:
    """Perturbed-FCC copper frames labelled with the Gupta potential.

    Frame ``k`` of ``n`` is jittered by ``(k + 1) / n`` of
    :data:`COPPER_MAX_PERTURBATION`, so the model sees both near-equilibrium
    and strongly distorted environments (what thermal MD at a few hundred
    kelvin explores).
    """
    rng = default_rng(rng)
    potential = GuptaPotential(cutoff=cutoff)
    dataset = ReferenceDataset(force_field=potential, type_names=("Cu",))
    for k in range(n_frames):
        amplitude = COPPER_MAX_PERTURBATION * (k + 1) / n_frames
        atoms, box = copper_system(n_cells, perturbation=amplitude, rng=rng)
        dataset.add_frame(atoms, box, potential)
    return dataset


def generate_water_dataset(
    n_frames: int = 20,
    n_molecules: int = 64,
    cutoff: float = 6.0,
    rng=None,
) -> ReferenceDataset:
    """Randomly oriented water boxes, each molecule's centre jittered by
    :data:`WATER_JITTER`, labelled with the flexible-SPC reference."""
    rng = default_rng(rng)
    dataset = ReferenceDataset(type_names=("O", "H"))
    for _ in range(n_frames):
        atoms, box, topology = water_system(n_molecules, rng=rng, jitter=WATER_JITTER)
        # Small intramolecular distortions so bond/angle terms are sampled.
        atoms.positions += rng.normal(scale=0.03, size=atoms.positions.shape)
        atoms.positions = box.wrap(atoms.positions)
        potential = WaterReference(topology, cutoff=cutoff)
        if dataset.force_field is None:
            dataset.force_field = potential
        dataset.add_frame(atoms, box, potential)
    return dataset
