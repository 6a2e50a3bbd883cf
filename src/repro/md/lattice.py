"""Crystal lattice builders (copper FCC benchmark system).

The paper's headline benchmark is a 0.54-million-atom copper system.  The
builders here create FCC supercells of arbitrary size, plus helpers to choose
a supercell that approximates a requested total atom count (used by the
strong-scaling experiment to reproduce the 540,000-atom configuration).
"""

from __future__ import annotations

import numpy as np

from ..units import CU_LATTICE_CONSTANT, MASSES
from ..utils.rng import default_rng
from .atoms import Atoms
from .box import Box

#: Fractional coordinates of the 4-atom FCC basis.
FCC_BASIS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ]
)


def fcc_lattice(
    n_cells: tuple[int, int, int],
    lattice_constant: float,
    perturbation: float = 0.0,
    rng=None,
) -> tuple[Atoms, Box]:
    """Build an FCC supercell of copper atoms.

    Parameters
    ----------
    n_cells:
        number of conventional cells along x, y, z.
    lattice_constant:
        conventional cell edge in angstrom.
    perturbation:
        optional random displacement amplitude (A) added to every atom, used
        to generate training configurations away from the perfect lattice.
    """
    nx, ny, nz = (int(v) for v in n_cells)
    if min(nx, ny, nz) < 1:
        raise ValueError("cell counts must be >= 1")
    if lattice_constant <= 0:
        raise ValueError("lattice constant must be positive")

    cells = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    # positions = (cell + basis) * a, built by broadcasting.
    frac = cells[:, None, :] + FCC_BASIS[None, :, :]
    positions = (frac.reshape(-1, 3)) * lattice_constant

    if perturbation > 0.0:
        rng = default_rng(rng)
        positions = positions + rng.normal(scale=perturbation, size=positions.shape)

    box = Box(np.array([nx, ny, nz], dtype=np.float64) * lattice_constant)
    positions = box.wrap(positions)
    n = len(positions)
    atoms = Atoms(
        positions=positions,
        types=np.zeros(n, dtype=np.int64),
        masses=np.full(n, MASSES["Cu"]),
        type_names=("Cu",),
    )
    return atoms, box


def copper_system(
    n_cells: tuple[int, int, int] = (4, 4, 4),
    perturbation: float = 0.0,
    rng=None,
) -> tuple[Atoms, Box]:
    """The copper benchmark system (FCC, a0 = 3.615 A)."""
    return fcc_lattice(n_cells, CU_LATTICE_CONSTANT, perturbation, rng)


def cells_for_atom_count(target_atoms: int) -> tuple[int, int, int]:
    """Choose a roughly cubic FCC supercell with about ``target_atoms`` atoms.

    The paper's strong-scaling benchmark uses 540,000 copper atoms; with a
    4-atom FCC basis this corresponds to a 51x51x52-ish supercell.  The
    returned cell counts satisfy ``nx*ny*nz*len(FCC_BASIS) >= target_atoms``
    while staying as close to the target as possible.
    """
    if target_atoms <= 0:
        raise ValueError("target atom count must be positive")
    atoms_per_cell = len(FCC_BASIS)
    n_cells_total = target_atoms / atoms_per_cell
    edge = int(np.floor(n_cells_total ** (1.0 / 3.0)))
    edge = max(edge, 1)
    best = None
    for nx in range(max(1, edge - 1), edge + 3):
        for ny in range(max(1, edge - 1), edge + 3):
            nz = int(np.ceil(n_cells_total / (nx * ny)))
            nz = max(nz, 1)
            total = nx * ny * nz * atoms_per_cell
            score = (abs(total - target_atoms), abs(nx - ny) + abs(ny - nz))
            if total >= target_atoms and (best is None or score < best[0]):
                best = (score, (nx, ny, nz))
    assert best is not None
    return best[1]
