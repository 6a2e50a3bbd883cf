"""The serving engine: work-conserving admission in front of one serving thread.

:class:`ServingEngine` turns a :class:`~repro.deepmd.model.DeepPotential`
into a request server for many small independent systems:

* **Work-conserving admission** — each time the serving thread is free it
  takes every pending same-kind request, up to ``max_batch_size``, from the
  :class:`~repro.serving.queue.AdmissionQueue`; no request waits on a timer.
  Requests that arrive while a batch computes share the next fused
  evaluation, so batch width follows the load.
* **Per-model caches** — the compressed Hermite tables, their packed
  low-precision copies and the per-``(type, dtype)`` standardization stats
  are built once at engine construction and shared across every request the
  engine ever serves (probed by ``tests/test_serving.py`` via
  ``table_cache_builds`` / ``packed_cache_builds`` / ``lp_cache_builds``).
* **One serving thread** — admit a batch, build each request's neighbour
  list, pack, run the fused kernels, split, fulfil; then admit the next.  Not
  a prep/compute pipeline: under the GIL the hand-offs cost as much as the
  overlap buys on one CPU and more across two (``benchmarks/e2e/README.md``).

Two request kinds are served: ``energy`` one-shots (energies, forces and a
per-system virial for one configuration) and ``md`` bursts (a short
velocity-Verlet run; an admitted burst batch is a private ``EngineBackend``
stepped by the one ``SteppingLoop``, one fused force evaluation per step).  A
request whose neighbour build raises ``ValueError`` at admission fails alone
and leaves its batch; any other exception in the serving thread is forwarded
to every unfulfilled request of the batch.  The synchronous
:meth:`ServingEngine.evaluate_batch` is the same pack-evaluate path, callable
from the client's thread for tests, benchmarks and embedding into existing
drivers; it packs into its own scope of the engine's pool, so it never
aliases a batch the serving thread is evaluating, and the model itself is
reentrant (a forward's tape belongs to the call), so the two need no lock
between them.
"""

from __future__ import annotations

import math
import threading
import time
import warnings

import numpy as np

from ..deepmd.envmat import warn_clamped, warn_truncated
from ..deepmd.gemm import GemmBackend
from ..deepmd.precision import DOUBLE, get_policy
from ..md.integrators import VelocityVerlet
from ..md.neighbor import require_finite, require_inside
from ..md.stepping import EngineBackend, SteppingLoop, validate_state
from ..md.workspace import Workspace
from ..utils.timer import PhaseTimer
from .batch import check_type_space, pack_systems, prepare_system
from .queue import AdmissionQueue, BurstResult, ServingRequest, ServingStats

__all__ = ["ServingEngine"]


class ServingEngine:
    """Serve energy/force one-shots and MD bursts over one shared model."""

    def __init__(
        self,
        model,
        precision=DOUBLE,
        compressed: bool = True,
        max_batch_size: int = 32,
        max_wait_ms: float | None = None,
        backend: GemmBackend | None = None,
    ) -> None:
        # kept only so that callers written for the old admission window still
        # construct; it no longer reaches the queue
        if max_wait_ms is not None:
            warnings.warn(
                "ServingEngine(max_wait_ms=) is deprecated and ignored: admission takes whatever is pending",
                DeprecationWarning,
                stacklevel=2,
            )
        self.model = model
        self.policy = get_policy(precision)
        self.compressed = bool(compressed)
        self.backend = backend or GemmBackend()
        self.stats = ServingStats()

        # Per-model caches, built once per engine and shared by every
        # request: the compressed table (the model is frozen, so the table
        # held here stays current), its packed nodes at the policy's compute
        # dtype, and — warmed lazily by the first
        # evaluation — the per-(type, dtype) standardization stats and
        # low-precision layer caches inside the model itself.
        self._table = None
        if self.compressed:
            self._table = model.compressed_embeddings()
            self._table.ensure_packed(self.policy.compute_dtype)

        # one pool, one scope per thread that packs into it: the serving
        # thread and synchronous evaluate_batch callers never share a buffer
        self._workspace = Workspace()
        self._loop_scope = self._workspace.scoped("serve.loop")
        self._sync_scope = self._workspace.scoped("serve.sync")

        # one truncation and one table-clamp warning per engine, as
        # DeepPotentialForceField warns once per force field
        self._overflow_warned = False
        self._clamp_warned = False

        self._queue = AdmissionQueue(max_batch_size=max_batch_size)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve_loop, name="serving-loop", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Close admission, serve every request still pending, join the thread."""
        if self._thread is not None:
            self._queue.close()
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, atoms, box):
        """Queue an energy/force one-shot; returns a ``Future`` of ModelOutput.

        A request with a NaN/inf position, a position outside an open axis of
        ``box`` or an atom type outside the model raises ``ValueError`` here,
        in the caller's thread, and is never queued.
        """
        require_finite(atoms.positions, "position")
        require_inside(atoms.positions, box)
        check_type_space(atoms.types, self.model.n_types, "request")
        request = ServingRequest(kind="energy", atoms=atoms.copy(), box=box)
        return self._queue.submit(request)

    def submit_md(self, atoms, box, n_steps: int, timestep_fs: float):
        """Queue a short MD burst; returns a ``Future`` of BurstResult.

        Rejected at once, like :meth:`submit`, for a NaN/inf position or
        velocity, a position outside an open axis of ``box``, an atom type
        outside the model, an ``n_steps`` that is not
        an integer >= 0 or a ``timestep_fs`` that is not finite and > 0.
        """
        validate_state(atoms, box)
        check_type_space(atoms.types, self.model.n_types, "request")
        if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
            raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
        if not (math.isfinite(timestep_fs) and timestep_fs > 0):
            raise ValueError(f"timestep_fs must be finite and > 0, got {timestep_fs!r}")
        request = ServingRequest(
            kind="md",
            atoms=atoms.copy(),
            box=box,
            n_steps=int(n_steps),
            timestep_fs=float(timestep_fs),
        )
        return self._queue.submit(request)

    def evaluate_batch(self, systems, workspace=None):
        """Synchronous pack → fused evaluate for prepared ``(atoms, box, neighbors)`` triples.

        The first batch with a row over ``max_neighbors`` (its farthest
        neighbours are dropped) emits one :class:`~repro.deepmd.AccuracyWarning`
        per engine, and so does the first batch with a pair closer than the
        compressed table's minimum distance (the 0.5 A default of
        ``model.compressed_embeddings()``; the table clamps).
        The result aliases buffers of ``workspace`` (default: the engine's
        ``serve.sync`` scope) until the next call with the same one;
        concurrent callers pass their own.
        """
        if workspace is None:
            workspace = self._sync_scope
        batch = pack_systems(self.model, systems, workspace=workspace)
        if not self._overflow_warned:
            self._overflow_warned = warn_truncated(batch.env, stacklevel=2)
        if self.compressed and not self._clamp_warned:
            self._clamp_warned = warn_clamped(batch.env, self._table, stacklevel=2)
        return self.model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            precision=self.policy,
            backend=self.backend,
            compressed=self.compressed,
            compression_table=self._table,
            workspace=workspace,
        )

    def cache_probe(self) -> dict:
        """Cache-build counters for the cross-request reuse tests."""
        lp_builds = sum(net.lp_cache_builds for net in self.model.fast_embeddings().values())
        lp_builds += sum(net.lp_cache_builds for net in self.model.fast_fittings().values())
        table = self._table
        return {
            "table_cache_builds": self.model.table_cache_builds,
            "packed_cache_builds": 0 if table is None else table.packed_cache_builds,
            "lp_cache_builds": lp_builds,
            "standardization_entries": len(self.model._lp_standardization),
            "table_id": id(table),
        }

    # ------------------------------------------------------------------
    # the serving thread
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            admitted = self._queue.admit()
            if admitted is None:
                return
            # a request cancelled while queued is dropped; the rest can no longer be cancelled
            admitted = [r for r in admitted if r.future.set_running_or_notify_cancel()]
            try:
                served, systems = self._build_neighbors(admitted)
                if not served:
                    continue
                if served[0].kind == "energy":
                    # split() copies out of the pool buffers, so fulfilled
                    # results stay valid after the scope is repacked
                    outputs = self.evaluate_batch(systems, workspace=self._loop_scope).split()
                else:
                    outputs = self._compute_bursts(served, systems)
                self.stats.record_batch(served, time.perf_counter())
                for request, output in zip(served, outputs):
                    request.future.set_result(output)
            except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                for request in admitted:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _build_neighbors(self, admitted):
        """``(served, systems)``: a request whose neighbour build raises ``ValueError`` fails alone."""
        served, systems = [], []
        for request in admitted:
            try:
                systems.append(prepare_system(self.model, request.atoms, request.box))
                served.append(request)
            except ValueError as exc:
                request.future.set_exception(exc)
        return served, systems

    def _compute_bursts(self, served, systems) -> list:
        """Step the burst batch on the stepping loop; one BurstResult per burst."""
        group = _BurstGroup(self, served, systems)
        SteppingLoop(group).run(max(request.n_steps for request in served), sample_every=0)
        return [
            BurstResult(atoms=request.atoms, energies=np.asarray(energies), n_steps=request.n_steps)
            for request, energies in zip(served, group.energies)
        ]


class _BurstGroup(EngineBackend):
    """An admitted MD burst batch as a :class:`SteppingLoop` backend, step for step ``run_bursts_serial``.

    The initial evaluation covers every burst (``n_steps == 0`` included) on the admission builds; a
    burst leaves the live set once its ``n_steps`` are done.  One lockstep rebuild per step counts as one build.
    """

    force_field = None

    def __init__(self, engine: ServingEngine, requests, systems) -> None:
        self.engine = engine
        self.requests = requests
        self.integrators = [VelocityVerlet(request.timestep_fs) for request in requests]
        self.energies: list[list[float]] = [[] for _ in requests]
        self.live = list(range(len(requests)))
        self.steps_done = 0
        self.timers = PhaseTimer()
        self._admission_systems = systems

    def compute_forces(self) -> float:
        requests, live = self.requests, self.live
        with self.timers.phase("neigh"):
            if self._last_energy is None:
                systems = self._admission_systems
            else:
                systems = [prepare_system(self.engine.model, requests[i].atoms, requests[i].box) for i in live]
        with self.timers.phase("pair"):
            out = self.engine.evaluate_batch(systems, workspace=self.engine._loop_scope)
        for k, i in enumerate(live):
            requests[i].atoms.forces = out.forces[out.offsets[k] : out.offsets[k + 1]].copy()
            if self._last_energy is not None:
                self.energies[i].append(float(out.energies[k]))
        self._last_energy = float(out.energies.sum())
        return self._last_energy

    def integrate_first_half(self) -> None:
        self.live = [i for i in self.live if self.steps_done < self.requests[i].n_steps]
        for i in self.live:
            self.integrators[i].first_half(self.requests[i].atoms, self.requests[i].box)

    def integrate_second_half(self) -> None:
        for i in self.live:
            self.integrators[i].second_half(self.requests[i].atoms, self.requests[i].box)
        self.steps_done += 1

    def neighbor_build_count(self) -> int:
        return self.timers.counts.get("neigh", 0)

    def neighbor_build_seconds(self) -> float:
        return self.timers.totals.get("neigh", 0.0)
