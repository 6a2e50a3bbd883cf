"""The serving engine: admission batching in front of one serving thread.

:class:`ServingEngine` turns a :class:`~repro.deepmd.model.DeepPotential`
into a request server for many small independent systems:

* **Admission batching** — requests coalesce under the
  :class:`~repro.serving.queue.AdmissionQueue` window (max-batch-size /
  max-wait-ms) so concurrent one-shots share one fused evaluation.
* **Per-model caches** — the compressed Hermite tables, their packed
  low-precision copies and the per-``(type, dtype)`` standardization stats
  are built once at engine construction and shared across every request the
  engine ever serves (probed by ``tests/test_serving.py`` via
  ``table_cache_builds`` / ``packed_cache_builds`` / ``lp_cache_builds``).
* **One serving thread** — admit a batch, build its neighbour lists, pack,
  run the fused kernels, split, fulfil; then admit the next.  Not a
  prep/compute pipeline: under the GIL the hand-offs cost as much as the
  overlap buys on one CPU and more across two (``benchmarks/e2e/README.md``,
  ``serving.engine.pipeline_efficiency``).

Two request kinds are served: ``energy`` one-shots (energies, forces and a
per-system virial for one configuration) and ``md`` bursts (a short
velocity-verlet run; the burst group steps in lockstep with one fused force
evaluation per step).  The synchronous :meth:`ServingEngine.evaluate_batch`
is the same pack-evaluate path, callable from the client's thread for tests,
benchmarks and embedding into existing drivers; it packs into its own scope
of the engine's pool, so it never aliases a batch the serving thread is
evaluating, and the model itself is reentrant (a forward's tape belongs to
the call), so the two need no lock between them.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..deepmd.gemm import GemmBackend
from ..deepmd.precision import DOUBLE, get_policy
from ..md.integrators import VelocityVerlet
from ..md.neighbor import require_finite
from ..md.stepping import validate_state
from ..md.workspace import Workspace
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
        compression_points: int = 2048,
        compression_min_distance: float = 0.5,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        backend: GemmBackend | None = None,
    ) -> None:
        self.model = model
        self.policy = get_policy(precision)
        self.compressed = bool(compressed)
        self.backend = backend or GemmBackend()
        self.stats = ServingStats()

        # Per-model caches, built once per engine and shared by every
        # request: the compressed table (the model is frozen, so the table
        # held here stays current), its packed low-precision copy when the
        # policy computes below fp64, and — warmed lazily by the first
        # evaluation — the per-(type, dtype) standardization stats and
        # low-precision layer caches inside the model itself.
        self._table = None
        if self.compressed:
            self._table = model.compressed_embeddings(compression_points, compression_min_distance)
            if not self.policy.is_double:
                self._table.ensure_packed(self.policy.compute_dtype)

        # one pool, one scope per thread that packs into it: the serving
        # thread and synchronous evaluate_batch callers never share a buffer
        self._workspace = Workspace()
        self._loop_scope = self._workspace.scoped("serve.loop")
        self._sync_scope = self._workspace.scoped("serve.sync")

        self._queue = AdmissionQueue(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
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
        """Queue an energy/force one-shot; returns a ServingFuture of ModelOutput.

        A request with a NaN/inf position or an atom type outside the model
        raises ``ValueError`` here, in the caller's thread, and is never
        queued: admitted, it would fail the whole batch it shares.
        """
        require_finite(atoms.positions, "position")
        check_type_space(atoms.types, self.model.n_types, "request")
        request = ServingRequest(kind="energy", atoms=atoms.copy(), box=box)
        return self._queue.submit(request)

    def submit_md(self, atoms, box, n_steps: int, timestep_fs: float):
        """Queue a short MD burst; returns a ServingFuture of BurstResult.

        Rejected at once, like :meth:`submit`, for a NaN/inf position or
        velocity or an atom type outside the model.
        """
        validate_state(atoms)
        check_type_space(atoms.types, self.model.n_types, "request")
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

        The result aliases buffers of ``workspace`` (default: the engine's
        ``serve.sync`` scope) until the next call with the same one;
        concurrent callers pass their own.
        """
        if workspace is None:
            workspace = self._sync_scope
        batch = pack_systems(self.model, systems, workspace=workspace)
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
            try:
                if admitted[0].kind == "energy":
                    self._serve_energy(admitted)
                else:
                    self._compute_bursts(admitted)
            except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                for request in admitted:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _evaluate_requests(self, configurations):
        """Neighbour lists → pack → fused evaluate of ``(atoms, box)`` pairs, in the loop's scope."""
        systems = [prepare_system(self.model, atoms, box) for atoms, box in configurations]
        return self.evaluate_batch(systems, workspace=self._loop_scope)

    def _serve_energy(self, admitted) -> None:
        out = self._evaluate_requests([(r.atoms, r.box) for r in admitted])
        # split() copies out of the pool buffers, so fulfilled results stay
        # valid after the scope is repacked
        outputs = out.split()
        self.stats.record_batch(admitted, time.perf_counter())
        for request, output in zip(admitted, outputs):
            request.future.set_result(output)

    def _compute_bursts(self, admitted) -> None:
        """Advance the burst group in lockstep, one fused evaluation per step.

        Mirrors :func:`repro.serving.serial.run_bursts_serial` step for step:
        velocity-verlet first half, neighbour rebuild, fused force
        evaluation, second half.  Systems whose ``n_steps`` are done drop out
        of the group; the remaining ones keep batching.
        """
        states = [request.atoms for request in admitted]
        integrators = [VelocityVerlet(request.timestep_fs) for request in admitted]
        targets = [request.n_steps for request in admitted]
        energies: list[list[float]] = [[] for _ in admitted]

        def fused_forces(live):
            out = self._evaluate_requests([(states[i], admitted[i].box) for i in live])
            for k, i in enumerate(live):
                states[i].forces = out.forces[out.offsets[k] : out.offsets[k + 1]].copy()
            return out

        everyone = list(range(len(admitted)))
        # initial forces for every burst (n_steps == 0 included), matching
        # the serial reference which always evaluates once before stepping
        fused_forces(everyone)
        live = [i for i in everyone if targets[i] > 0]
        done = 0
        while live:
            for i in live:
                integrators[i].first_half(states[i], admitted[i].box)
            out = fused_forces(live)
            for k, i in enumerate(live):
                energies[i].append(float(out.energies[k]))
            for i in live:
                integrators[i].second_half(states[i], admitted[i].box)
            done += 1
            live = [i for i in live if done < targets[i]]

        self.stats.record_batch(admitted, time.perf_counter())
        for i, request in enumerate(admitted):
            request.future.set_result(
                BurstResult(
                    atoms=states[i],
                    energies=np.asarray(energies[i]),
                    n_steps=targets[i],
                )
            )
