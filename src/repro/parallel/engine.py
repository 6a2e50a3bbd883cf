"""Domain-decomposed MD engine over simulated MPI ranks.

:class:`DomainDecomposedSimulation` runs the *same* velocity-Verlet dynamics
as the serial :class:`repro.md.Simulation` — literally the same code:
both are :class:`~repro.md.stepping.EngineBackend` implementations driven by
the shared :class:`~repro.md.stepping.SteppingLoop`, which owns the step
sequence, sampling, trajectory capture and report assembly.  This module only
implements the distributed force evaluation: the atom arrays are partitioned
over the ranks of a :class:`~repro.parallel.topology.RankTopology` via
:class:`~repro.parallel.decomposition.SpatialDecomposition`, and every data
movement between ranks goes through an explicit exchange method, so the loop
has the communication structure of a real distributed MD engine while staying
an in-process simulation.

Owned / ghost / migration lifecycle
-----------------------------------

* **Owned atoms.**  Each rank owns the atoms whose wrapped coordinates fall in
  its sub-box at the last neighbour rebuild.  Positions, velocities and forces
  of owned atoms live only on the owner.
* **Ghost atoms.**  At every neighbour rebuild each rank receives read-only
  copies of the remote atoms within ``cutoff + skin`` of its sub-box, through
  the delivery rules of :class:`~repro.parallel.exchange.GhostExchange`
  (either the **p2p** pattern or the paper's **node-based** pattern).  Between
  rebuilds only the ghost *positions* are refreshed each step (the forward
  exchange); the ghost list itself stays fixed, exactly as long as the
  neighbour lists built from it stay valid under the half-skin criterion.
* **Force decomposition.**  Every energy term is computed by exactly one rank
  (the owner of the term's lowest-id member for pair/bonded terms; the owner
  of the centre atom for per-atom terms), accumulating forces on owned atoms
  and on ghost copies.  EAM-like force fields get an extra mid-force forward
  exchange of their per-atom embedding derivative, mirroring how LAMMPS
  communicates EAM densities.  The accumulated ghost forces are then
  **reverse-scattered** to their owner ranks, so Newton's third law holds
  globally without double counting.
* **Migration.**  At each rebuild, atoms whose wrapped coordinates crossed a
  sub-box boundary are packed up (position, velocity, force, type, mass,
  global id) and shipped to their new owner; the global atom set is conserved
  and each atom has exactly one owner at all times.
* **Reductions.**  Potential energy, the virial and the instantaneous
  temperature are global reductions over ranks, emitted through the same
  :class:`~repro.md.simulation.SimulationReport` as the serial loop, with an
  additional ``comm`` timer phase covering every exchange.

Execution: who runs the ranks
----------------------------

The per-rank stages of a force evaluation (neighbour builds, density prepare,
force finish) are delegated to a :class:`~repro.parallel.executor.RankExecutor`:
``executor="sequential"`` (default) runs them in-process in rank order — the
golden reference — while ``executor="process"`` runs them concurrently on a
persistent pool of forked worker processes, each rank's local arrays
(:class:`~repro.parallel.domain.RankDomain`) living in shared-memory rows
parent and worker both address.  All parent-side communication (migration,
ghost exchange, halo forward, reverse scatter) and all reductions happen in
fixed rank order, so the concurrent executor is *bit-identical* to the
sequential one (pinned by ``tests/test_parallel_executor.py`` with exact
equality).

Intra-node load balancing (``node_balance=True``, §III-C) wires the node-box
organization into the dynamics: under node-based delivery every rank of a
node already holds the identical node-box atom copy (its node peers' atoms
arrive as ghosts), so the engine splits each node's atoms evenly over the
node's ranks — contiguous runs of the node's sorted gids, in NUMA slot order,
sized by :func:`~repro.parallel.decomposition.even_shares` — and generalizes
owner-computes to *assigned*-computes: a pair is evaluated by the rank
assigned its lowest-gid member, a per-atom environment by the rank assigned
its centre atom.  :meth:`~DomainDecomposedSimulation.load_balance_stats`
reports the measured per-rank ``pair_seconds`` in the Table III layout.

Parity: ``tests/test_parallel_engine_parity.py`` pins every decomposition and
both delivery schemes to the serial trajectories step-for-step at ``1e-10``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.forcefields.base import ForceField
from ..md.integrators import VelocityVerlet
from ..md.neighbor import first_outside, max_displacement, require_minimum_image
from ..md.stepping import EngineBackend, SimulationReport, SteppingLoop, validate_cutoff, validate_state
from ..md.thermostats import Thermostat
from ..md.workspace import Workspace
from ..units import temperature as instantaneous_temperature
from ..utils.timer import PhaseTimer
from .decomposition import DecompositionStats, LoadBalanceStats, SpatialDecomposition, even_shares
from .domain import RankDomain
from .evaluators import _EVALUATORS, _RankEvaluator
from .exchange import (
    BYTES_PER_GHOST_ATOM,
    BYTES_PER_VECTOR,
    GhostExchange,
    check_delivery_scheme,
)
from .executor import make_executor
from .topology import RankTopology


class DomainDecomposedSimulation(EngineBackend):
    """An MD simulation distributed over simulated MPI ranks.

    Parameters mirror :class:`repro.md.Simulation`; additionally:

    rank_dims:
        the rank-grid shape; the node block is derived via
        :meth:`RankTopology.for_rank_grid`.
    scheme:
        ghost-delivery pattern: ``"p2p"`` or ``"node-based"``.
    executor / n_workers:
        who runs the per-rank force stages: ``"sequential"`` (default, the
        golden reference) or ``"process"`` — a persistent pool of
        ``n_workers`` forked worker processes computing over shared-memory
        slabs, bit-identical to sequential (see
        :mod:`repro.parallel.executor`).  Process engines hold OS resources;
        call :meth:`close` (or use the engine as a context manager).
    node_balance:
        split each node-box's atoms evenly over the node's ranks instead of
        evaluating strictly by sub-box ownership (§III-C).  Requires a
        node-based delivery ``scheme`` (the node-box copy every rank of a
        node then holds is what makes any assignment within the node legal)
        and a ``pair`` or ``peratom`` strategy; the bonded/density
        strategies keep the owner-computes golden path.
    """

    def __init__(
        self,
        atoms: Atoms,
        box: Box,
        force_field: ForceField,
        timestep_fs: float,
        rank_dims: tuple[int, int, int] = (1, 1, 1),
        scheme: str = "p2p",
        neighbor_skin: float = 2.0,
        neighbor_every: int = 50,
        thermostat: Thermostat | None = None,
        executor: str = "sequential",
        n_workers: int | None = None,
        node_balance: bool = False,
    ) -> None:
        cutoff = validate_cutoff(force_field)
        validate_state(atoms, box)
        require_minimum_image(box, cutoff + float(neighbor_skin))
        self.box = box
        self.force_field = force_field
        self.timestep_fs = float(timestep_fs)
        self.neighbor_skin = float(neighbor_skin)
        self.neighbor_every = int(neighbor_every)
        self.thermostat = thermostat
        self.timers = PhaseTimer()
        self.cutoff = float(cutoff)

        self.topology = RankTopology.for_rank_grid(rank_dims)
        self.decomposition = SpatialDecomposition(box, self.topology)
        self.scheme = check_delivery_scheme(scheme)
        self.scheme_label = self.scheme
        self.exchange = GhostExchange(self.decomposition, self.cutoff + self.neighbor_skin)
        self.integrator = VelocityVerlet(self.timestep_fs)

        strategy = getattr(force_field, "parallel_strategy", "pair")
        if strategy not in _EVALUATORS:
            raise KeyError(
                f"unknown parallel strategy {strategy!r}; available: {sorted(_EVALUATORS)}"
            )
        self.strategy = strategy
        self.evaluator: _RankEvaluator = _EVALUATORS[strategy](self)

        self.node_balance = bool(node_balance)
        if self.node_balance:
            # Under node-based delivery every rank of a node holds the same
            # owned+ghost superset, the node-box copy; p2p delivers per-sub-box
            # shells only, so a rank cannot be assigned a node peer's atom.
            if self.scheme != "node-based":
                raise ValueError(
                    "node-box load balancing requires a node-based delivery scheme "
                    f"(got {scheme!r}): only the node-box atom copy shared by every "
                    "rank of a node makes an intra-node assignment evaluable"
                )
            if strategy not in ("pair", "peratom"):
                raise ValueError(
                    "node-box load balancing supports the 'pair' and 'peratom' "
                    f"strategies; {strategy!r} keeps the owner-computes golden path"
                )

        # global invariants (types/masses never change; ids are preserved)
        self.n_global = len(atoms)
        self.type_names = atoms.type_names
        self._types_global = atoms.types.copy()
        self._masses_global = atoms.masses.copy()
        self._ids_global = atoms.ids.copy()

        # counters and measurements
        self.n_builds = 0
        self._steps_since_build = 0
        self.n_migrated = 0
        self.n_exchanges = 0
        self.n_force_evaluations = 0
        self.comm_bytes_forward = 0.0
        self.comm_bytes_reverse = 0.0
        self.comm_messages = 0
        self._ghost_count_log: list[np.ndarray] = []
        self._last_energy: float | None = None
        self.last_virial: np.ndarray | None = None
        self.trajectory: list[np.ndarray] = []
        #: engine-level scratch pool (global gathers, the density halo)
        self.workspace = Workspace()

        # initial distribution: every atom to the rank owning its wrapped position
        owners = self.decomposition.assign_to_ranks(atoms.positions)
        self.domains: list[RankDomain] = []
        for rank in range(self.topology.n_ranks):
            idx = np.nonzero(owners == rank)[0]
            self.domains.append(
                RankDomain(
                    rank, idx, atoms.positions[idx], atoms.velocities[idx], atoms.forces[idx],
                    atoms.masses[idx], atoms.types[idx],
                )
            )
        self._owner_of = np.empty(self.n_global, dtype=np.int64)
        self._slot_of = np.empty(self.n_global, dtype=np.int64)
        self._refresh_directory()

        # the executor binds (and a process pool forks) against fully built
        # domains, so this must stay the last step of construction
        self._neighbors_ready = False
        self._executor = make_executor(executor, n_workers=n_workers)
        self._executor.bind(self)
        self.executor_name = self._executor.name

    # -- directory ---------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.topology.n_ranks

    def _refresh_directory(self) -> None:
        for domain in self.domains:
            self._owner_of[domain.gids] = domain.rank
            self._slot_of[domain.gids] = np.arange(domain.n_owned)

    # -- migration ----------------------------------------------------------------
    def _migrate(self) -> int:
        """Move atoms whose wrapped coordinates crossed a sub-box boundary."""
        incoming: list[list[tuple]] = [[] for _ in range(self.n_ranks)]  # RankDomain.owned() slices
        moved = 0
        for domain in self.domains:
            if domain.n_owned == 0:
                continue
            owners = self.decomposition.assign_to_ranks(domain.positions)
            leaving = owners != domain.rank
            if not leaving.any():
                continue
            for dest in np.unique(owners[leaving]):
                mask = owners == dest
                incoming[int(dest)].append(domain.owned(mask))
                self.comm_messages += 1
                self.comm_bytes_forward += mask.sum() * (BYTES_PER_GHOST_ATOM + 2 * BYTES_PER_VECTOR)
            domain.set_owned(domain.owned(~leaving))
            moved += int(leaving.sum())
        for rank, domain in enumerate(self.domains):
            if not incoming[rank]:
                continue
            merged = [np.concatenate(parts) for parts in zip(domain.owned(), *incoming[rank])]
            order = np.argsort(merged[0], kind="stable")  # by gid
            domain.set_owned([field[order] for field in merged])
        self.n_migrated += moved
        self._refresh_directory()
        return moved

    # -- ghost exchange ---------------------------------------------------------------
    def _exchange_ghosts(self) -> None:
        """Rebuild every rank's ghost list through the delivery rules."""
        self.n_exchanges += 1
        # each sender's slab is wrapped once per rebuild (it is reused for
        # every receiver in the sender's ghost shell)
        wrapped = [self.box.wrap(domain.positions) for domain in self.domains]
        for domain in self.domains:
            # seeded with an empty message, so a rank nobody sends to needs no branch
            gid_parts = [np.empty(0, dtype=np.int64)]
            pos_parts = [np.empty((0, 3))]
            owner_parts = [np.empty(0, dtype=np.int64)]
            for rank, select in self.exchange.senders(self.scheme, domain.rank):
                sender = self.domains[rank]
                if sender.n_owned == 0:
                    continue
                # a node peer's whole slab, else the sender's masked slice
                mask = slice(None) if select is None else select(wrapped[rank], domain.rank, prewrapped=True)
                gids = sender.gids[mask]
                if len(gids) == 0:
                    continue
                gid_parts.append(gids.copy())
                pos_parts.append(sender.positions[mask].copy())
                owner_parts.append(np.full(len(gids), rank, dtype=np.int64))
                self.comm_messages += 1
                self.comm_bytes_forward += len(gids) * BYTES_PER_GHOST_ATOM
            gids = np.concatenate(gid_parts)
            order = np.argsort(gids, kind="stable")
            ghost_gids, ghost_owners = gids[order], np.concatenate(owner_parts)[order]
            domain.set_ghosts(ghost_gids, self._types_global, self._masses_global)
            domain.fill(domain.positions, domain.forces, np.concatenate(pos_parts)[order])
            domain.ghost_groups = []
            for owner in np.unique(ghost_owners):
                rows = np.nonzero(ghost_owners == owner)[0]
                slots = self._slot_of[ghost_gids[rows]]
                domain.ghost_groups.append((int(owner), rows, slots))
        self._ghost_count_log.append(self.ghost_counts())

    def _refresh_ghost_positions(self) -> None:
        """Forward exchange: ghost copies track their owners' positions."""
        for domain in self.domains:
            if domain.n_ghost == 0:
                continue
            for owner, rows, slots in domain.ghost_groups:
                domain.ghost_positions[rows] = self.domains[owner].positions[slots]
                self.comm_messages += 1
            self.comm_bytes_forward += domain.n_ghost * BYTES_PER_VECTOR

    def _forward_halo(
        self, values_per_rank: list[np.ndarray], sinks: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Forward a per-owned-atom scalar to every ghost copy (EAM density).

        ``sinks`` (from :meth:`RankExecutor.halo_sinks`) are optional per-rank
        ``(n_ghost,)`` targets the halo values are gathered into — workspace
        capacity buffers for the sequential executor, shared-memory slab views
        for the process executor (so the forward exchange *is* the delivery
        to the workers); ``None`` returns fresh per-rank arrays.
        """
        scalar_global = self.workspace.zeros("halo.scalar", self.n_global)
        for domain, values in zip(self.domains, values_per_rank):
            scalar_global[domain.gids] = values
        halos = []
        for i, domain in enumerate(self.domains):
            if sinks is None:
                halos.append(scalar_global[domain.ghost_gids])
            else:
                halos.append(np.take(scalar_global, domain.ghost_gids, out=sinks[i]))
            if domain.n_ghost:
                self.comm_messages += len(domain.ghost_groups)
                self.comm_bytes_forward += domain.n_ghost * 8.0
        return halos

    def _reverse_scatter_forces(self) -> None:
        """Reverse exchange: ghost forces accumulate onto their owner ranks."""
        for domain in self.domains:
            if domain.n_ghost == 0:
                continue
            for owner, rows, slots in domain.ghost_groups:
                np.add.at(self.domains[owner].forces, slots, domain.ghost_forces[rows])
                self.comm_messages += 1
            self.comm_bytes_reverse += domain.n_ghost * BYTES_PER_VECTOR

    # -- node-box load balancing ---------------------------------------------------
    def _assign_node_shares(self) -> None:
        """Split each node-box's atoms evenly over the node's ranks (§III-C).

        Runs at every rebuild, after migration has settled ownership: each
        node's owned gids are sorted and dealt out as contiguous runs of
        :func:`even_shares` sizes, in :meth:`RankTopology.ranks_on_node` slot
        order.
        """
        for node_index in range(self.topology.n_nodes):
            ranks = self.topology.ranks_on_node(self.topology.node_coord(node_index))
            gids = np.sort(np.concatenate([self.domains[rank].gids for rank in ranks]))
            ends = np.cumsum(even_shares(len(gids), len(ranks)))
            for rank, share in zip(ranks, np.split(gids, ends[:-1])):
                self.domains[rank].assign_share(share, self.n_global)

    # -- neighbour lists ----------------------------------------------------------
    def _needs_rebuild(self) -> bool:
        """The serial :class:`NeighborList` criterion, max-reduced over ranks."""
        if not self._neighbors_ready:
            return True
        if self.neighbor_every and self._steps_since_build >= self.neighbor_every:
            return True
        if self.neighbor_skin <= 0.0:
            return True
        # a non-finite displacement is stale too (a Python ``max`` would drop
        # a NaN): the rebuild then names the row
        return not all(
            max_displacement(domain.positions, domain.ref_positions, self.box) <= 0.5 * self.neighbor_skin
            for domain in self.domains
        )

    def _refuse_lost_rows(self) -> None:
        """Fail the rebuild loudly on a NaN/inf coordinate or one outside an
        open axis of the box, naming the row (migration would otherwise route
        it to a rank that does not exist)."""
        for domain in self.domains:
            finite = np.isfinite(domain.positions).all(axis=1)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(
                    f"rank {domain.rank} position row {row} (atom {int(domain.gids[row])}) "
                    f"is not finite: {domain.positions[row]}"
                )
            outside = first_outside(domain.positions, self.box)
            if outside is not None:
                row, axis = outside
                raise ValueError(
                    f"rank {domain.rank} position row {row} (atom {int(domain.gids[row])}) "
                    f"is outside the open box along {'xyz'[axis]}: "
                    f"{float(domain.positions[row, axis])!r} not in [0, {float(self.box.lengths[axis])!r}]"
                )

    # -- force evaluation --------------------------------------------------------
    def compute_forces(self) -> float:
        """One distributed force evaluation (comm + neigh + pair phases).

        Parent-side communication and the fixed rank-order reductions live
        here; the per-rank stages run on the bound executor (sequentially in
        rank order, or concurrently on the worker pool — bit-identical
        either way, see :mod:`repro.parallel.executor`).
        """
        self._steps_since_build += 1
        executor = self._executor
        if self._needs_rebuild():
            self._refuse_lost_rows()
            with self.timers.phase("comm"):
                self._migrate()
                self._exchange_ghosts()
                if self.node_balance:
                    self._assign_node_shares()
                for domain in self.domains:
                    domain.ref_positions = domain.positions.copy()
                executor.publish_positions()
            with self.timers.phase("neigh"):
                executor.rebuild()
            self._neighbors_ready = True
            self.n_builds += 1
            self._steps_since_build = 0
        else:
            with self.timers.phase("comm"):
                self._refresh_ghost_positions()
                executor.publish_positions()

        halos: list[np.ndarray] | None = None
        if self.evaluator.needs_halo:
            with self.timers.phase("pair"):
                stage = executor.prepare()
            with self.timers.phase("comm"):
                halos = self._forward_halo(stage, executor.halo_sinks())

        energy = 0.0
        virial: np.ndarray | None = None
        with self.timers.phase("pair"):
            for domain, (rank_energy, local_forces, rank_virial) in zip(
                self.domains, executor.finish(halos)
            ):
                domain.store_forces(local_forces)
                energy += rank_energy
                if rank_virial is not None:
                    virial = rank_virial.copy() if virial is None else virial + rank_virial
        with self.timers.phase("comm"):
            self._reverse_scatter_forces()

        self.n_force_evaluations += 1
        self._last_energy = energy
        self.last_virial = virial
        return energy

    # -- EngineBackend hooks (the run loop itself lives in md.stepping) -----------
    def integrate_first_half(self) -> None:
        # a domain carries the positions/velocities/forces/masses the
        # integrator reads; its in-place wrap keeps ``positions`` the same view
        for domain in self.domains:
            if domain.n_owned:
                self.integrator.first_half(domain, self.box, workspace=domain.workspace)

    def integrate_second_half(self) -> None:
        for domain in self.domains:
            if domain.n_owned:
                self.integrator.second_half(domain, self.box, workspace=domain.workspace)

    def apply_thermostat(self) -> None:
        """Thermostats act on gathered velocities (a collective), so even
        stochastic thermostats draw per-atom noise in global id order and stay
        bit-compatible with the serial loop.  Only masses and velocities are
        gathered — the fields every :class:`Thermostat` reads and mutates."""
        shim = SimpleNamespace(
            velocities=self._gather_array("velocities", out=self._gather_buffer("thermostat")),
            masses=self._masses_global,
        )
        self.thermostat.apply(shim, self.timestep_fs)
        for domain in self.domains:
            domain.velocities = np.ascontiguousarray(shim.velocities[domain.gids])

    def sample_temperature(self) -> float:
        velocities = self._gather_array("velocities", out=self._gather_buffer("sample"))
        return instantaneous_temperature(self._masses_global, velocities)

    def capture_positions(self) -> np.ndarray:
        return self._gather_array("positions")

    def neighbor_build_count(self) -> int:
        return self.n_builds

    def neighbor_build_seconds(self) -> float:
        return float(sum(domain.neigh_seconds for domain in self.domains))

    def run(
        self,
        n_steps: int,
        sample_every: int = 1,
        trajectory_every: int = 0,
    ) -> SimulationReport:
        """Integrate ``n_steps`` steps; same contract as ``Simulation.run``
        (both delegate to the shared :class:`SteppingLoop`)."""
        return SteppingLoop(self).run(
            n_steps, sample_every=sample_every, trajectory_every=trajectory_every
        )

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (worker processes, shared memory).

        Idempotent, and a no-op for the sequential executor.  A process
        executor first moves every domain's arrays back to private memory, so
        the engine stays inspectable after close (gather, stats, domains);
        further force evaluations on it will fail.
        """
        self._executor.close()

    def __enter__(self) -> "DomainDecomposedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- global views ------------------------------------------------------------
    def _gather_buffer(self, name: str) -> np.ndarray:
        """A reusable ``(n_global, 3)`` gather target."""
        return self.workspace.buffer(f"gather.{name}", (self.n_global, 3))

    def _gather_array(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """Assemble a per-atom vector array in global id order.

        With ``out=None`` a fresh array is returned (safe to hold across
        steps — the public :meth:`gather` and trajectory capture use this);
        internal per-step reductions pass a reusable workspace buffer.
        """
        if out is None:
            out = np.empty((self.n_global, 3))
        for domain in self.domains:
            out[domain.gids] = getattr(domain, name)
        return out

    def gather(self) -> Atoms:
        """The full system in global id order (an MPI_Gather analogue)."""
        return Atoms(
            positions=self._gather_array("positions"),
            types=self._types_global.copy(),
            masses=self._masses_global.copy(),
            velocities=self._gather_array("velocities"),
            forces=self._gather_array("forces"),
            ids=self._ids_global.copy(),
            type_names=self.type_names,
        )

    def total_energy(self) -> float:
        from ..units import kinetic_energy

        potential = self._last_energy if self._last_energy is not None else self.compute_forces()
        return potential + kinetic_energy(self._masses_global, self._gather_array("velocities"))

    # -- measured statistics ------------------------------------------------------
    def owned_counts(self) -> np.ndarray:
        return np.array([domain.n_owned for domain in self.domains], dtype=np.int64)

    def ghost_counts(self) -> np.ndarray:
        return np.array([domain.n_ghost for domain in self.domains], dtype=np.int64)

    def assigned_counts(self) -> np.ndarray:
        """Atoms each rank *evaluates*: its node-box share under
        ``node_balance`` (assigned at the last rebuild), else its owned set."""
        if self.node_balance and all(
            domain.balance_gids is not None for domain in self.domains
        ):
            return np.array(
                [len(domain.balance_gids) for domain in self.domains], dtype=np.int64
            )
        return self.owned_counts()

    def ghost_stats(self) -> DecompositionStats:
        """Measured per-rank ghost-count statistics (§III-C memory overhead)."""
        return DecompositionStats(self.ghost_counts())

    def load_balance_stats(self) -> LoadBalanceStats:
        """Measured evaluated-atom counts and pair times (Table III layout).

        With ``node_balance`` the atom counts are the node-box shares.
        """
        suffix = "+lb" if self.node_balance else ""
        return LoadBalanceStats(
            label=f"engine[{self.scheme_label}{suffix}]",
            atom_counts=self.assigned_counts(),
            pair_times=np.array([domain.pair_seconds for domain in self.domains]),
        )

    def neighbor_build_times(self) -> np.ndarray:
        """Cumulative per-rank wall-clock seconds spent building neighbour lists."""
        return np.array([domain.neigh_seconds for domain in self.domains])

    def measured_comm_volume(self) -> dict:
        """Measured ghost-exchange volumes (all zero before the first exchange)."""
        log = np.stack(self._ghost_count_log or [np.zeros(self.n_ranks)])
        mean_ghosts = float(log.mean())
        return {
            "exchanges": len(self._ghost_count_log),
            "mean_ghosts_per_rank": mean_ghosts,
            "max_ghosts_per_rank": float(log.max()),
            "forward_bytes_per_rank": mean_ghosts * BYTES_PER_GHOST_ATOM,
            "total_forward_bytes": self.comm_bytes_forward,
            "total_reverse_bytes": self.comm_bytes_reverse,
            "messages": self.comm_messages,
        }
