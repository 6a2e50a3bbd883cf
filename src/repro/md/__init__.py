"""A self-contained molecular-dynamics engine (the "LAMMPS" substrate).

The paper's optimizations act on the structure of a LAMMPS MD step: neighbour
list construction, ghost-region communication, the pair (force) phase, and
integration.  This package implements that structure in NumPy:

* :mod:`box` / :mod:`atoms` — the orthorhombic periodic cell and the
  structure-of-arrays atom container,
* :mod:`lattice` / :mod:`water` — builders for the copper and water
  benchmark systems,
* :mod:`neighbor` — binned neighbour search with skin and re-build cadence
  (the paper rebuilds every 50 steps with a 2 A skin),
* :mod:`forcefields` — Lennard-Jones, Morse and Gupta/EAM-like copper
  references and a flexible SPC-like water reference (the "pseudo-AIMD" data
  generators),
* :mod:`integrators` + :mod:`thermostats` — time integration,
* :mod:`stepping` — the *single* run-loop implementation with LAMMPS-style
  per-phase timing, driving both the serial :class:`Simulation` backend and
  the domain-decomposed engine,
* :mod:`workspace` — preallocated per-step scratch buffers (near-zero
  steady-state allocations),
* :mod:`rdf` — the radial distribution function used by Fig. 6.

The package re-exports only the names code outside the tests imports from
it; everything else is imported from its module.
"""

from .box import Box
from .atoms import Atoms
from .lattice import copper_system
from .water import water_system
from .neighbor import NeighborList, NeighborData
from .thermostats import LangevinThermostat
from .simulation import Simulation
from .workspace import Workspace
from .rdf import radial_distribution_function
from .forcefields import LennardJones

__all__ = [
    "Box",
    "Atoms",
    "copper_system",
    "water_system",
    "NeighborList",
    "NeighborData",
    "LangevinThermostat",
    "Simulation",
    "Workspace",
    "radial_distribution_function",
    "LennardJones",
]
