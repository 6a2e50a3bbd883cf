"""The serial MD backend over the shared stepping core.

``Simulation`` is the single-process execution strategy: all atoms live in
one :class:`Atoms` container over the full periodic box, forces come from one
:class:`NeighborList`-driven evaluation, and the integrator touches the
arrays directly.  The run loop itself — velocity-Verlet sequencing,
thermostat application, sampling, trajectory capture, per-phase accounting
and :class:`SimulationReport` assembly — lives in
:class:`repro.md.stepping.SteppingLoop`; this module only implements the
:class:`~repro.md.stepping.EngineBackend` hooks.

The serial backend is also the parity reference for the domain-decomposed
engine (:class:`repro.parallel.engine.DomainDecomposedSimulation`), the other
backend of the same loop, which adds a ``comm`` timer phase for the ghost
exchange; the two are pinned together by
``tests/test_parallel_engine_parity.py``.

Per-step scratch (forces, per-atom energies, pair temporaries, integrator
accelerations) comes from the :class:`~repro.md.workspace.Workspace` every
simulation owns (``sim.workspace``).  The allocating LJ/Morse/Gupta
reference arithmetic lives in :mod:`repro.reference.forcefields`, whose
``ReferenceForceField`` adapter runs it through this same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..units import kinetic_energy, temperature as instantaneous_temperature
from ..utils.timer import PhaseTimer
from .atoms import Atoms
from .box import Box
from .forcefields.base import ForceField
from .integrators import VelocityVerlet
from .neighbor import NeighborList, require_minimum_image
from .stepping import EngineBackend, SimulationReport, SteppingLoop, validate_cutoff, validate_state
from .thermostats import Thermostat
from .workspace import Workspace

__all__ = ["Simulation", "SimulationReport"]


@dataclass
class Simulation(EngineBackend):
    """A serial MD simulation over the full periodic box."""

    atoms: Atoms
    box: Box
    force_field: ForceField
    timestep_fs: float
    neighbor_skin: float = 2.0
    neighbor_every: int = 50
    thermostat: Thermostat | None = None
    timers: PhaseTimer = field(default_factory=PhaseTimer, init=False)

    def __post_init__(self) -> None:
        cutoff = validate_cutoff(self.force_field)
        validate_state(self.atoms, self.box)
        require_minimum_image(self.box, cutoff + self.neighbor_skin)
        self.integrator = VelocityVerlet(self.timestep_fs)
        self.neighbor_list = NeighborList(
            cutoff=cutoff, skin=self.neighbor_skin, rebuild_every=self.neighbor_every
        )
        self.workspace = Workspace()
        self._last_energy: float | None = None
        self.last_virial: np.ndarray | None = None
        self.trajectory: list[np.ndarray] = []

    # -- single force evaluation ------------------------------------------------
    def compute_forces(self) -> float:
        with self.timers.phase("neigh"):
            data, _ = self.neighbor_list.maybe_rebuild(self.atoms, self.box)
        with self.timers.phase("pair"):
            result = self.force_field.compute(self.atoms, self.box, data, workspace=self.workspace)
        # result arrays may live in the workspace pool (valid only until the
        # next evaluation) — keep the public surfaces (atoms.forces,
        # last_virial) on persistent storage outside the pool
        np.copyto(self.atoms.forces, result.forces)
        self.last_virial = None if result.virial is None else result.virial.copy()
        self._last_energy = result.energy
        return result.energy

    # -- EngineBackend hooks ------------------------------------------------------
    def integrate_first_half(self) -> None:
        self.integrator.first_half(self.atoms, self.box, workspace=self.workspace)

    def integrate_second_half(self) -> None:
        self.integrator.second_half(self.atoms, self.box, workspace=self.workspace)

    def apply_thermostat(self) -> None:
        self.thermostat.apply(self.atoms, self.timestep_fs)

    def sample_temperature(self) -> float:
        return instantaneous_temperature(self.atoms.masses, self.atoms.velocities)

    def capture_positions(self) -> np.ndarray:
        return self.atoms.positions.copy()

    def neighbor_build_count(self) -> int:
        return self.neighbor_list.n_builds

    def neighbor_build_seconds(self) -> float:
        return self.neighbor_list.build_seconds

    # -- the run loop -------------------------------------------------------------
    def run(
        self,
        n_steps: int,
        sample_every: int = 1,
        trajectory_every: int = 0,
    ) -> SimulationReport:
        """Integrate ``n_steps`` steps through the shared stepping core.

        ``sample_every`` controls how often energy/temperature are recorded;
        ``trajectory_every`` (if nonzero) stores position snapshots on
        ``self.trajectory`` for RDF analysis (0 leaves previous snapshots
        untouched).
        """
        return SteppingLoop(self).run(
            n_steps, sample_every=sample_every, trajectory_every=trajectory_every
        )

    # -- convenience -----------------------------------------------------------
    def total_energy(self) -> float:
        potential = self._last_energy if self._last_energy is not None else self.compute_forces()
        return potential + kinetic_energy(self.atoms.masses, self.atoms.velocities)
