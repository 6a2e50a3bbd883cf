"""Rank executors: who actually runs the per-rank force work.

:class:`~repro.parallel.engine.DomainDecomposedSimulation` structures every
force evaluation as per-rank stages (neighbour rebuild, finish) separated by
parent-side communication (migration, ghost exchange, reverse force
scatter).  A *rank executor* owns the per-rank stages:

* :class:`SequentialRankExecutor` runs them in-process, one rank after the
  other, in rank order.  It is the **golden reference**: the original
  engine loop, byte for byte, and the baseline every concurrent executor is
  pinned against.
* :class:`MultiprocessRankExecutor` runs them concurrently on a
  :class:`~repro.parallel.threadpool.PersistentWorkerPool` of forked worker
  processes.  ``bind`` moves every :class:`~repro.parallel.domain.RankDomain`'s
  local position and force arrays onto that rank's rows of the
  ``multiprocessing.shared_memory`` slabs (:meth:`RankDomain.rehome`), the
  **one home** parent and worker both address: the parent's integrator,
  ghost refresh and reverse scatter write the rows the worker evaluates from
  — stepping a rank *is* publishing it — and the worker, a ``RankDomain``
  over the same rows, stores its forces where the parent's reductions read
  them.  Those two slabs carry all per-step data.  ``close`` moves the
  arrays back to private memory *before* the slabs are unlinked: a closed
  engine stays inspectable.

**The bitwise rule.**  Workers execute the *same* evaluator code as the
sequential executor on the *same* float64 bytes, and the parent reduces
energies/virials and scatters forces in fixed rank order (the pool's
fixed-order gather), never in completion order.  Identical code + identical
inputs + identical summation order ⇒ the concurrent executor is bit-identical
to the sequential one — ``tests/test_parallel_executor.py`` pins this with
exact array equality, not tolerances.

Structural state (which gids each rank owns, its ghost list, its node-box
share) changes only at neighbour rebuilds and is shipped once per rebuild
over the pool's pipes — the worker's domain re-cuts its views from it; the
per-step traffic is a pipe round-trip per stage and no array copy.
"""

from __future__ import annotations

import time
import weakref
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np

from .domain import RankDomain
from .evaluators import _EVALUATORS
from .threadpool import PersistentWorkerPool, usable_cpu_count, worker_reply

__all__ = [
    "RankExecutor",
    "SequentialRankExecutor",
    "MultiprocessRankExecutor",
    "SharedRankArrays",
    "make_executor",
    "EXECUTOR_NAMES",
]

#: Accepted ``executor=`` labels.
EXECUTOR_NAMES = ("sequential", "process")


class RankExecutor:
    """Runs the per-rank stages of one distributed force evaluation.

    The engine drives exactly this sequence per evaluation: ``rebuild`` on
    rebuild steps (after the parent's migration and ghost exchange), then
    ``finish``; forces and scalars come back in rank order for the parent's
    fixed-order reduction.  The ranks read their positions from the domains'
    arrays, which the parent updates in place, so no step publishes them.
    ``bind`` once at engine init and ``close`` at the end complete the four
    methods.
    """

    name = "base"

    def bind(self, engine) -> None:
        """Attach to an engine (called once, at the end of engine init)."""
        self.engine = engine

    def rebuild(self) -> None:
        """Per-rank neighbour builds + evaluator rebuilds (timed per rank)."""
        raise NotImplementedError

    def finish(self, halos) -> list:
        """Per-rank ``(energy, local_forces, virial)`` results, in rank order.

        The engine always passes ``halos=None``: no force field has a
        mid-force stage.  The parameter stays because wrapping executors
        (the e2e benchmark's ``SpanExecutor``) override ``finish(halos)``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; idempotent."""


class SequentialRankExecutor(RankExecutor):
    """The golden reference: every rank stage in-process, in rank order."""

    name = "sequential"

    def rebuild(self) -> None:
        # Per-rank vectorized binned builds over each rank's owned+ghost set.
        # Every rank pays for its *own* local system only, so the build cost
        # per rank shrinks as the decomposition grows — the quantity
        # ``benchmarks/bench_neighbor_build.py`` and the ``neigh`` column of
        # ``bench_parallel_engine.py`` track.
        engine = self.engine
        for domain in engine.domains:
            domain.neigh_seconds += domain.build_neighbors(
                engine.box, engine.cutoff, engine.neighbor_skin
            )
            engine.evaluator.rebuild(domain)

    def finish(self, halos) -> list:
        engine = self.engine
        results = []
        for domain in engine.domains:
            start = time.perf_counter()
            results.append(engine.evaluator.finish(domain))
            domain.pair_seconds += time.perf_counter() - start
        return results


# ---------------------------------------------------------------------------
# Shared-memory slabs
# ---------------------------------------------------------------------------


def _release_blocks(blocks: list) -> None:
    for block in blocks:
        try:
            block.unlink()
        except FileNotFoundError:
            pass
    for block in blocks:
        try:
            block.close()
        except BufferError:
            # an exporter keeps the mapping until it is collected.  NumPy
            # views are not exporters: close() unmaps under them and their
            # next read segfaults, so the executor rehomes every domain first.
            pass


class SharedRankArrays:
    """Per-rank position/force slabs in ``multiprocessing.shared_memory``.

    One row per rank, ``n_global`` atoms wide (a rank's owned+ghost set can
    never exceed the global atom count, so row ``r`` holds rank ``r``'s local
    arrays in its leading ``n_local`` entries).  Created by the parent before
    the workers fork, so every process addresses the *same* mapping: what
    one side writes the other reads — no pickling, no pipes, no copies.
    """

    def __init__(self, n_ranks: int, n_global: int) -> None:
        self._blocks: list[shared_memory.SharedMemory] = []
        width = max(int(n_global), 1)
        self.positions = self._allocate((n_ranks, width, 3))
        self.forces = self._allocate((n_ranks, width, 3))
        self._finalizer = weakref.finalize(self, _release_blocks, self._blocks)

    def _allocate(self, shape: tuple) -> np.ndarray:
        block = shared_memory.SharedMemory(create=True, size=int(np.prod(shape)) * 8)
        self._blocks.append(block)
        array = np.ndarray(shape, dtype=np.float64, buffer=block.buf)
        array.fill(0.0)
        return array

    def rows(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank ``rank``'s ``(positions, forces)`` rows, a :class:`RankDomain` home."""
        return self.positions[rank], self.forces[rank]

    def close(self) -> None:
        """Unlink and unmap the segments; idempotent.  No view of the slabs
        may be read after this."""
        self.positions = self.forces = None
        self._finalizer()


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


def _worker_main(conn, ranks, init) -> None:
    """Protocol loop of one forked worker (a contiguous run of ranks).

    Messages: ``("rebuild", payloads, owner_of)`` — refresh structural state
    and build neighbour lists; ``("finish",)`` — evaluate forces into the
    force slab; ``("stop",)`` — exit.  Replies carry per-rank wall-clock
    seconds (and for finish the energy/virial scalars) so the parent can keep
    per-rank ``pair_seconds``/``neigh_seconds`` measured, not modelled.
    """
    evaluator = _EVALUATORS[init.strategy](init)
    domains = [RankDomain(rank) for rank in ranks]
    for domain in domains:
        domain.rehome(init.shared.rows(domain.rank))

    def handle(message):
        kind = message[0]
        if kind == "rebuild":
            payloads, owner_of = message[1], message[2]
            init._owner_of = owner_of  # this fork's copy; only the molecular remap reads it
            replies = []
            for domain, (gids, ghost_gids, balance_gids) in zip(domains, payloads):
                domain.gids = gids
                domain.set_ghosts(ghost_gids, init.types, init.masses)
                domain.cut()  # views only: the parent filled the rows
                domain.assign_share(balance_gids, init.n_global)
                replies.append(domain.build_neighbors(init.box, init.cutoff, init.skin))
                evaluator.rebuild(domain)
            return replies
        if kind == "finish":
            replies = []
            for domain in domains:
                start = time.perf_counter()
                energy, local_forces, virial = evaluator.finish(domain)
                elapsed = time.perf_counter() - start
                domain.store_forces(local_forces)
                replies.append((energy, virial, elapsed))
            return replies
        raise ValueError(f"unknown worker request {kind!r}")

    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if not worker_reply(conn, handle, message):
                break
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The multiprocess executor
# ---------------------------------------------------------------------------


class MultiprocessRankExecutor(RankExecutor):
    """Concurrent rank execution on a persistent pool of forked workers.

    Ranks are split into contiguous runs, one per worker; every stage is a
    single broadcast + fixed-order gather on the pool, so results always come
    back in rank order no matter which worker finishes first.  See the module
    docstring for the bitwise-parity argument.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None) -> None:
        self._requested_workers = n_workers
        self.pool: PersistentWorkerPool | None = None
        self.shared: SharedRankArrays | None = None

    def bind(self, engine) -> None:
        self.engine = engine
        n_ranks = engine.n_ranks
        requested = self._requested_workers
        n_workers = usable_cpu_count() if requested is None else int(requested)
        if n_workers < 1:
            raise ValueError("number of workers must be >= 1")
        self.n_workers = n_workers = min(n_workers, n_ranks)

        self.shared = SharedRankArrays(n_ranks, engine.n_global)
        # the slab rows become the domains' home *before* the fork, so each
        # worker's RankDomain over the same rows sees what the parent steps
        for domain in engine.domains:
            domain.rehome(self.shared.rows(domain.rank))
        self._partition = [
            [int(r) for r in chunk] for chunk in np.array_split(np.arange(n_ranks), n_workers)
        ]
        init = SimpleNamespace(
            force_field=engine.force_field,
            box=engine.box,
            type_names=engine.type_names,
            n_global=engine.n_global,
            types=engine._types_global,
            masses=engine._masses_global,
            cutoff=engine.cutoff,
            skin=engine.neighbor_skin,
            strategy=engine.strategy,
            shared=self.shared,
            _owner_of=None,
        )
        # fork: workers inherit init (force field, globals, slab mappings)
        # without pickling a byte of it.
        self.pool = PersistentWorkerPool(
            _worker_main, [(ranks, init) for ranks in self._partition]
        )

    def _stage(self, messages):
        """One broadcast + fixed-order gather: ``(domain, reply)`` in rank order."""
        replies = self.pool.broadcast(messages)
        for ranks, worker_replies in zip(self._partition, replies):
            for rank, reply in zip(ranks, worker_replies):
                yield self.engine.domains[rank], reply

    def rebuild(self) -> None:
        engine = self.engine
        owner_of = engine._owner_of.copy() if engine.strategy == "molecular" else None
        messages = []
        for ranks in self._partition:
            domains = [engine.domains[rank] for rank in ranks]
            payloads = [(d.gids, d.ghost_gids, d.balance_gids) for d in domains]
            messages.append(("rebuild", payloads, owner_of))
        for domain, seconds in self._stage(messages):
            domain.neigh_seconds += seconds

    def finish(self, halos) -> list:
        results = []
        for domain, (energy, virial, seconds) in self._stage(("finish",)):
            domain.pair_seconds += seconds
            results.append((energy, domain.local_forces(), virial))
        return results

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.shared is not None:
            # unmapping under a live view segfaults its next reader: the
            # domains go back to private memory first
            for domain in self.engine.domains:
                domain.rehome(None)
            self.shared.close()
            self.shared = None


def make_executor(spec="sequential", n_workers: int | None = None) -> RankExecutor:
    """Resolve an ``executor=`` engine parameter into a :class:`RankExecutor`.

    ``spec`` may be an executor instance (returned as-is) or one of
    :data:`EXECUTOR_NAMES`; ``n_workers`` only applies to the process
    executor (default: one worker per rank, capped at the CPUs this process
    may run on).
    """
    if isinstance(spec, RankExecutor):
        return spec
    name = str(spec).lower()
    if name == "sequential":
        return SequentialRankExecutor()
    if name == "process":
        return MultiprocessRankExecutor(n_workers=n_workers)
    raise KeyError(f"unknown executor {spec!r}; available: {sorted(EXECUTOR_NAMES)}")
