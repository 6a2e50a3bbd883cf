"""Water-box builder and molecular topology.

The water benchmark in the paper contains 0.56 million atoms (~186,667
molecules) with a 6 A cutoff and a 0.5 fs time-step.  This module builds
water boxes of any size by placing rigid SPC-geometry molecules on a cubic
lattice at the experimental density and giving each a random orientation.
The resulting configuration is suitable both as an MD starting point and as
the seed for pseudo-AIMD training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import MASSES, WATER_DENSITY, AVOGADRO
from ..utils.rng import default_rng
from .atoms import Atoms
from .box import Box

#: SPC/flexible-SPC geometry.
OH_BOND_LENGTH = 1.0  # A
HOH_ANGLE_DEG = 109.47

#: Mass of one water molecule in grams.
_WATER_MOLAR_MASS = MASSES["O"] + 2.0 * MASSES["H"]


@dataclass(frozen=True)
class WaterTopology:
    """Connectivity of a water box.

    Attributes
    ----------
    bonds:
        ``(n_bonds, 2)`` atom-index pairs (every O-H bond).
    angles:
        ``(n_angles, 3)`` atom-index triplets ``(H, O, H)``.
    molecules:
        ``(n_atoms,)`` molecule index of each atom.
    """

    bonds: np.ndarray
    angles: np.ndarray
    molecules: np.ndarray


def _water_template() -> np.ndarray:
    """Coordinates of one water molecule (O at origin), shape (3, 3)."""
    half_angle = np.deg2rad(HOH_ANGLE_DEG) / 2.0
    h1 = OH_BOND_LENGTH * np.array([np.sin(half_angle), np.cos(half_angle), 0.0])
    h2 = OH_BOND_LENGTH * np.array([-np.sin(half_angle), np.cos(half_angle), 0.0])
    return np.array([[0.0, 0.0, 0.0], h1, h2])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix (via QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def water_box_length(n_molecules: int, density: float = WATER_DENSITY) -> float:
    """Edge length (A) of a cubic box holding ``n_molecules`` at ``density``."""
    if n_molecules <= 0:
        raise ValueError("need at least one molecule")
    mass_g = n_molecules * _WATER_MOLAR_MASS / AVOGADRO
    volume_cm3 = mass_g / density
    volume_a3 = volume_cm3 * 1.0e24
    return float(volume_a3 ** (1.0 / 3.0))


def water_system(
    n_molecules: int,
    density: float = WATER_DENSITY,
    rng=None,
    jitter: float = 0.05,
) -> tuple[Atoms, Box, WaterTopology]:
    """Build a cubic water box.

    Molecules are placed on an ``m x m x m`` grid (``m**3 >= n_molecules``)
    with random orientations and a small positional jitter, which gives a
    reasonable liquid-like starting structure once equilibrated.
    Atom ordering is O, H, H per molecule; types are O=0, H=1.
    """
    rng = default_rng(rng)
    length = water_box_length(n_molecules, density)
    box = Box.cubic(length)

    grid = int(np.ceil(n_molecules ** (1.0 / 3.0)))
    spacing = length / grid
    template = _water_template()

    positions = np.empty((3 * n_molecules, 3))
    molecule_ids = np.repeat(np.arange(n_molecules), 3)
    count = 0
    for ix in range(grid):
        for iy in range(grid):
            for iz in range(grid):
                if count >= n_molecules:
                    break
                center = (np.array([ix, iy, iz]) + 0.5) * spacing
                center = center + rng.normal(scale=jitter, size=3)
                rotation = _random_rotation(rng)
                mol = template @ rotation.T + center
                positions[3 * count : 3 * count + 3] = mol
                count += 1
            if count >= n_molecules:
                break
        if count >= n_molecules:
            break

    positions = box.wrap(positions)
    types = np.tile(np.array([0, 1, 1], dtype=np.int64), n_molecules)
    masses = np.tile(np.array([MASSES["O"], MASSES["H"], MASSES["H"]]), n_molecules)
    atoms = Atoms(
        positions=positions,
        types=types,
        masses=masses,
        type_names=("O", "H"),
    )

    oxygens = 3 * np.arange(n_molecules)
    bonds = np.empty((2 * n_molecules, 2), dtype=np.int64)
    bonds[0::2, 0] = oxygens
    bonds[0::2, 1] = oxygens + 1
    bonds[1::2, 0] = oxygens
    bonds[1::2, 1] = oxygens + 2
    angles = np.stack([oxygens + 1, oxygens, oxygens + 2], axis=1)
    topology = WaterTopology(bonds=bonds, angles=angles, molecules=molecule_ids)
    return atoms, box, topology
