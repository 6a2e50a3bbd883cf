"""The shared MD run-loop core driving both execution strategies.

There is exactly **one** implementation of the MD timestep pipeline in this
repository and it lives here: :class:`SteppingLoop` owns the velocity-Verlet
sequence, the thermostat application point, energy/temperature sampling,
trajectory capture, per-run wall-clock accounting and
:class:`SimulationReport` assembly.  The serial :class:`repro.md.Simulation`,
the domain-decomposed
:class:`repro.parallel.engine.DomainDecomposedSimulation` and the serving
engine's MD burst batch (``repro.serving.engine._BurstGroup``, many small
systems in lockstep with one fused force evaluation per step) are thin
:class:`EngineBackend` implementations: they provide the force evaluation
(with whatever neighbour/ghost/migration machinery their execution strategy
needs), the two integrator half-steps, and the gather/reduce primitives the
loop samples through.  New run-loop capabilities (sampling modes, trajectory
formats, ensembles, timing surfaces) must land *here*, once — never in a
backend — so the 1e-10 cross-rank parity suite keeps pinning a single loop.

The step sequence (identical for every backend, the structure LAMMPS uses):

1. ``integrate`` phase — first velocity-Verlet half-step,
2. force evaluation via :meth:`EngineBackend.compute_forces` (which accounts
   its own ``neigh``/``pair``/``comm`` phases),
3. ``integrate`` phase — second half-step,
4. ``thermostat`` phase — thermostat, if configured,
5. sampling (energy + temperature reduction) and trajectory capture.

Wall-clock conventions: ``elapsed_seconds`` covers the steps of *this* run
call (the lazily triggered initial force evaluation is excluded, matching the
historical behaviour); ``neighbor_build_seconds`` and ``neighbor_builds`` are
likewise per-run — the backend's cumulative counters are snapshotted when
``run`` starts and the report carries the deltas, which *include* the initial
build when this run triggered it.  (``neighbor_builds`` used to report the
cumulative counter, so a second ``run()`` re-claimed the first run's builds.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils.timer import PhaseTimer
from .neighbor import require_finite


def validate_cutoff(force_field) -> float:
    """The force field's interaction cutoff, validated once for every backend."""
    cutoff = getattr(force_field, "cutoff", 0.0)
    if cutoff is None or cutoff <= 0:
        raise ValueError("force field must define a positive cutoff")
    return float(cutoff)


def validate_state(atoms) -> None:
    """Refuse a NaN or inf position or velocity up front, naming the quantity and row.

    Every engine checks at construction: a bad velocity would otherwise only
    surface a step later, as a position.
    """
    require_finite(atoms.positions, "position")
    require_finite(atoms.velocities, "velocity")


def harvest_force_field_info(force_field) -> dict:
    """``describe()`` of the force field, if it provides one."""
    describe = getattr(force_field, "describe", None)
    return dict(describe()) if callable(describe) else {}


@dataclass
class SimulationReport:
    """Summary of one ``run`` call (emitted identically by every backend)."""

    n_steps: int
    potential_energies: np.ndarray
    temperatures: np.ndarray
    timers: PhaseTimer
    #: neighbour-list builds triggered during *this* ``run`` call (a per-run
    #: delta of the backend's cumulative counter, like ``elapsed_seconds``).
    neighbor_builds: int
    #: wall-clock seconds accounted to *this* ``run`` call (the timers object
    #: accumulates across successive runs of the same simulation).
    elapsed_seconds: float = 0.0
    #: ``describe()`` of the force field, if it provides one — records the
    #: effective configuration (e.g. the Deep Potential's precision policy and
    #: compression grid) that produced this trajectory.
    force_field_info: dict = field(default_factory=dict)
    #: wall-clock seconds spent inside neighbour-list *builds* during this
    #: ``run`` call (summed over ranks for the domain-decomposed engine;
    #: excludes the per-step staleness checks the ``neigh`` timer phase also
    #: covers).  Unlike the cumulative ``NeighborList.build_seconds`` counter
    #: this is a per-run delta, the same convention as ``elapsed_seconds``.
    neighbor_build_seconds: float = 0.0
    #: this run's wall-clock seconds per timer phase (a per-run delta of the
    #: cumulative ``timers`` breakdown).
    phase_seconds: dict = field(default_factory=dict)

    @property
    def mean_temperature(self) -> float:
        return float(self.temperatures.mean()) if len(self.temperatures) else 0.0

    @property
    def steps_per_second(self) -> float:
        """MD throughput over this run's accounted wall-clock time."""
        return self.n_steps / self.elapsed_seconds if self.elapsed_seconds > 0.0 else 0.0


class EngineBackend:
    """What the shared :class:`SteppingLoop` needs from an execution strategy.

    A backend encapsulates *where the atoms live* (one array, or partitioned
    over simulated ranks) and therefore how forces are computed, how the
    integrator reaches the arrays, and how global scalars/arrays are reduced
    or gathered.  Everything about the *step sequence* — ordering, phase
    accounting, sampling cadence, report assembly — belongs to the loop.

    Required attributes: ``timers`` (:class:`PhaseTimer`), ``thermostat``,
    ``timestep_fs``, ``force_field``, ``trajectory`` (a list the loop appends
    snapshots to) and ``_last_energy`` (``None`` until the first force
    evaluation; maintained by :meth:`compute_forces`).
    """

    timers: PhaseTimer
    thermostat = None
    trajectory: list
    _last_energy: float | None = None

    # -- forces (accounts its own neigh/pair/comm phases) ----------------------
    def compute_forces(self) -> float:
        """One full force evaluation; returns the global potential energy.

        Owns the per-strategy pre-step work: neighbour staleness checks and
        rebuilds for the serial backend; ghost refresh, migration, halo
        exchanges and the reverse force scatter for the distributed one.
        """
        raise NotImplementedError

    # -- integration (the loop wraps both in the ``integrate`` phase) ----------
    def integrate_first_half(self) -> None:
        raise NotImplementedError

    def integrate_second_half(self) -> None:
        raise NotImplementedError

    # -- thermostat (wrapped in the ``thermostat`` phase) ----------------------
    def apply_thermostat(self) -> None:
        raise NotImplementedError

    # -- reductions / gathers ---------------------------------------------------
    def sample_temperature(self) -> float:
        """Instantaneous temperature (a global reduction over ranks)."""
        raise NotImplementedError

    def capture_positions(self) -> np.ndarray:
        """A freshly owned global-order position snapshot for the trajectory."""
        raise NotImplementedError

    # -- neighbour-build accounting --------------------------------------------
    def neighbor_build_count(self) -> int:
        """Cumulative number of neighbour-list builds (lockstep across ranks)."""
        raise NotImplementedError

    def neighbor_build_seconds(self) -> float:
        """Cumulative wall-clock seconds spent inside neighbour-list builds."""
        raise NotImplementedError


@dataclass
class SteppingLoop:
    """Drives velocity-Verlet dynamics over any :class:`EngineBackend`."""

    backend: EngineBackend

    # reprolint: hot-path
    def run(
        self,
        n_steps: int,
        sample_every: int = 1,
        trajectory_every: int = 0,
    ) -> SimulationReport:
        """Integrate ``n_steps`` steps.

        ``sample_every`` controls how often energy/temperature are recorded
        (0 disables sampling entirely); ``trajectory_every`` (if nonzero)
        resets ``backend.trajectory`` and stores position snapshots on it.
        With ``trajectory_every=0`` a previous run's snapshots are left
        untouched, so capture runs can be followed by plain runs without
        losing frames.
        """
        backend = self.backend
        if n_steps < 0:
            raise ValueError("number of steps must be non-negative")
        timers = backend.timers
        build_seconds_start = backend.neighbor_build_seconds()
        builds_start = backend.neighbor_build_count()
        if backend._last_energy is None:
            backend.compute_forces()
        timer_start = timers.total()
        phase_start = timers.snapshot()
        energies: list[float] = []
        temperatures: list[float] = []
        if trajectory_every:
            # rebind rather than clear in place: a trajectory list handed out
            # by a previous capture run stays intact for its holder
            backend.trajectory = []

        for step in range(n_steps):
            with timers.phase("integrate"):
                backend.integrate_first_half()
            energy = backend.compute_forces()
            with timers.phase("integrate"):
                backend.integrate_second_half()
            if backend.thermostat is not None:
                with timers.phase("thermostat"):
                    backend.apply_thermostat()
            if sample_every and (step % sample_every == 0):
                energies.append(energy)
                temperatures.append(backend.sample_temperature())
            if trajectory_every and (step % trajectory_every == 0):
                backend.trajectory.append(backend.capture_positions())

        return SimulationReport(
            n_steps=n_steps,
            potential_energies=np.array(energies),
            temperatures=np.array(temperatures),
            timers=timers,
            neighbor_builds=backend.neighbor_build_count() - builds_start,
            elapsed_seconds=timers.total() - timer_start,
            force_field_info=harvest_force_field_info(backend.force_field),
            neighbor_build_seconds=backend.neighbor_build_seconds() - build_seconds_start,
            phase_seconds=timers.totals_since(phase_start),
        )
