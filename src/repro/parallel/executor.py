"""Rank executors: who actually runs the per-rank force work.

:class:`~repro.parallel.engine.DomainDecomposedSimulation` structures every
force evaluation as per-rank stages (neighbour rebuild, optional density
prepare, finish) separated by parent-side communication (migration, ghost
exchange, halo forward, reverse force scatter).  A *rank executor* owns the
per-rank stages:

* :class:`SequentialRankExecutor` runs them in-process, one rank after the
  other, in rank order.  It is the **golden reference**: the original
  engine loop, byte for byte, and the baseline every concurrent executor is
  pinned against.
* :class:`MultiprocessRankExecutor` runs them concurrently on a
  :class:`~repro.parallel.threadpool.PersistentWorkerPool` of forked worker
  processes.  Positions, forces and the density halo travel through
  ``multiprocessing.shared_memory`` slabs (one row per rank) instead of
  per-domain copies: the parent publishes each rank's owned+ghost positions
  into the position slab, workers build neighbour lists and evaluate forces
  directly on zero-copy slab views, and write their local force arrays into
  the force slab the parent reduces from.

**The bitwise rule.**  Workers execute the *same* evaluator code as the
sequential executor on the *same* float64 bytes, and the parent reduces
energies/virials and scatters forces in fixed rank order (the pool's
fixed-order gather), never in completion order.  Identical code + identical
inputs + identical summation order ⇒ the concurrent executor is bit-identical
to the sequential one — ``tests/test_parallel_executor.py`` pins this with
exact array equality, not tolerances.

Structural state (which gids each rank owns, its ghost list, its node-box
share) changes only at neighbour rebuilds and is shipped once per rebuild
over the pool's pipes; the per-step traffic is shared-memory only.
"""

from __future__ import annotations

import os
import time
import weakref
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np

from ..md.atoms import Atoms
from ..md.neighbor import build_neighbor_data
from ..md.workspace import Workspace
from .threadpool import PersistentWorkerPool, worker_reply

__all__ = [
    "RankExecutor",
    "SequentialRankExecutor",
    "MultiprocessRankExecutor",
    "SharedRankArrays",
    "make_executor",
    "EXECUTOR_NAMES",
]

#: Accepted ``executor=`` labels ("multiprocess" is an alias of "process").
EXECUTOR_NAMES = ("sequential", "process", "multiprocess")


class RankExecutor:
    """Runs the per-rank stages of one distributed force evaluation.

    The engine drives exactly this sequence per evaluation: on rebuild steps
    ``publish_positions`` then ``rebuild``; on plain steps just
    ``publish_positions``; then for halo force fields ``prepare`` and (after
    the parent's forward exchange into ``halo_sinks``) ``finish``; forces and
    scalars come back in rank order for the parent's fixed-order reduction.
    """

    name = "base"

    def bind(self, engine) -> None:
        """Attach to an engine (called once, at the end of engine init)."""
        self.engine = engine

    def publish_positions(self) -> None:
        """Make every rank's current owned+ghost positions visible to it."""

    def rebuild(self) -> None:
        """Per-rank neighbour builds + evaluator rebuilds (timed per rank)."""
        raise NotImplementedError

    def prepare(self) -> list:
        """Stage-1 per-owned-atom intermediates, in rank order (EAM density)."""
        raise NotImplementedError

    def halo_sinks(self) -> list | None:
        """Per-rank ``(n_ghost,)`` targets for the forward halo, or ``None``
        to let :meth:`engine._forward_halo` allocate (the reference path)."""
        return None

    def finish(self, halos) -> list:
        """Per-rank ``(energy, local_forces, virial)`` results, in rank order."""
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
            start = time.perf_counter()
            domain.neighbors = build_neighbor_data(
                domain.local_positions(), engine.box, engine.cutoff, engine.neighbor_skin
            )
            domain.neigh_seconds += time.perf_counter() - start
            engine.evaluator.rebuild(domain)

    def prepare(self) -> list:
        engine = self.engine
        stage = []
        for domain in engine.domains:
            start = time.perf_counter()
            stage.append(engine.evaluator.prepare(domain))
            domain.pair_seconds += time.perf_counter() - start
        return stage

    def halo_sinks(self) -> list | None:
        workspace = self.engine.workspace
        if workspace is None:
            return None
        return [
            workspace.capacity(f"halo.sink{domain.rank}", domain.n_ghost)
            for domain in self.engine.domains
        ]

    def finish(self, halos) -> list:
        engine = self.engine
        results = []
        for i, domain in enumerate(engine.domains):
            start = time.perf_counter()
            results.append(
                engine.evaluator.finish(domain, halos[i] if halos is not None else None)
            )
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
            # a live numpy view (e.g. a domain's ghost-force tail) still
            # exports the buffer; the mapping is freed when it is collected —
            # the unlink above already removed the backing segment.
            pass


class SharedRankArrays:
    """Per-rank position/force/halo slabs in ``multiprocessing.shared_memory``.

    One row per rank, ``n_global`` atoms wide (a rank's owned+ghost set can
    never exceed the global atom count, so row ``r`` holds rank ``r``'s local
    arrays in its leading ``n_local`` entries).  Created by the parent before
    the workers fork, so every process addresses the *same* mapping and the
    per-step position publish / force read-back are plain memory writes — no
    pickling, no pipes.
    """

    def __init__(self, n_ranks: int, n_global: int) -> None:
        self._blocks: list[shared_memory.SharedMemory] = []
        width = max(int(n_global), 1)
        self.positions = self._allocate((n_ranks, width, 3))
        self.forces = self._allocate((n_ranks, width, 3))
        self.halo = self._allocate((n_ranks, width))
        self._finalizer = weakref.finalize(self, _release_blocks, self._blocks)

    def _allocate(self, shape: tuple) -> np.ndarray:
        block = shared_memory.SharedMemory(create=True, size=int(np.prod(shape)) * 8)
        self._blocks.append(block)
        array = np.ndarray(shape, dtype=np.float64, buffer=block.buf)
        array.fill(0.0)
        return array

    def close(self) -> None:
        """Unlink and release the segments; idempotent."""
        self.positions = self.forces = self.halo = None
        self._finalizer()


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


class _WorkerDomain:
    """A worker-process mirror of :class:`~repro.parallel.engine.RankDomain`.

    Presents exactly the surface the rank evaluators consume (``n_owned``,
    ``local_gids``, ``neighbors``, ``scratch``, ``workspace``,
    ``local_positions``/``local_atoms``) but backed by the rank's shared-slab
    row: ``local_positions`` is a zero-copy view of the position slab and the
    evaluated forces land in the force slab for the parent to reduce.
    Structural fields are refreshed from the per-rebuild pipe payload.
    """

    def __init__(self, rank: int, init) -> None:
        self.rank = rank
        self._init = init
        self._pos_row = init.shared.positions[rank]
        self._frc_row = init.shared.forces[rank]
        self._halo_row = init.shared.halo[rank]
        self.workspace = Workspace()
        self.scratch: dict = {}
        self.neighbors = None
        self.balance_mask: np.ndarray | None = None
        self.n_owned = 0
        self.n_ghost = 0
        self.n_local = 0

    def configure(self, gids: np.ndarray, ghost_gids: np.ndarray, balance_gids) -> None:
        init = self._init
        self.gids = gids
        self.ghost_gids = ghost_gids
        self.n_owned = len(gids)
        self.n_ghost = len(ghost_gids)
        self.n_local = self.n_owned + self.n_ghost
        self.local_gids = np.concatenate([gids, ghost_gids])
        self._local_types = init.types[self.local_gids]
        self._local_masses = init.masses[self.local_gids]
        if balance_gids is None:
            self.balance_mask = None
        else:
            mask = np.zeros(init.n_global, dtype=bool)
            mask[balance_gids] = True
            self.balance_mask = mask

    def local_positions(self) -> np.ndarray:
        return self._pos_row[: self.n_local]

    def local_atoms(self, type_names: tuple[str, ...]) -> Atoms:
        # the slab view is contiguous float64, so Atoms adopts it zero-copy
        return Atoms(
            positions=self.local_positions(),
            types=self._local_types,
            masses=self._local_masses,
            ids=self.local_gids.copy(),
            type_names=type_names,
        )

    def force_sink(self) -> np.ndarray:
        return self._frc_row[: self.n_local]

    def stage_sink(self) -> np.ndarray:
        return self._halo_row[: self.n_owned]

    def halo_view(self) -> np.ndarray:
        return self._halo_row[self.n_owned : self.n_local]


def _worker_main(conn, ranks, init) -> None:
    """Protocol loop of one forked worker (a contiguous run of ranks).

    Messages: ``("rebuild", payloads, owner_of)`` — refresh structural state
    and build neighbour lists; ``("prepare",)`` — density stage 1 into the
    halo slab; ``("finish",)`` — evaluate forces into the force slab;
    ``("stop",)`` — exit.  Replies carry per-rank wall-clock seconds (and for
    finish the energy/virial scalars) so the parent can keep per-rank
    ``pair_seconds``/``neigh_seconds`` measured, not modelled.
    """
    from .engine import _EVALUATORS  # deferred: engine imports this module

    host = SimpleNamespace(
        force_field=init.force_field,
        box=init.box,
        type_names=init.type_names,
        n_global=init.n_global,
        _owner_of=None,
    )
    evaluator = _EVALUATORS[init.strategy](host)
    domains = [_WorkerDomain(rank, init) for rank in ranks]

    def handle(message):
        kind = message[0]
        if kind == "rebuild":
            payloads, owner_of = message[1], message[2]
            if owner_of is not None:
                host._owner_of = owner_of
            replies = []
            for domain, payload in zip(domains, payloads):
                domain.configure(**payload)
                start = time.perf_counter()
                domain.neighbors = build_neighbor_data(
                    domain.local_positions(), init.box, init.cutoff, init.skin
                )
                elapsed = time.perf_counter() - start
                evaluator.rebuild(domain)
                replies.append(elapsed)
            return replies
        if kind == "prepare":
            replies = []
            for domain in domains:
                start = time.perf_counter()
                stage = evaluator.prepare(domain)
                replies.append(time.perf_counter() - start)
                domain.stage_sink()[:] = stage
            return replies
        if kind == "finish":
            replies = []
            for domain in domains:
                halo = domain.halo_view() if evaluator.needs_halo else None
                start = time.perf_counter()
                energy, local_forces, virial = evaluator.finish(domain, halo)
                elapsed = time.perf_counter() - start
                sink = domain.force_sink()
                if local_forces is not sink:
                    np.copyto(sink, local_forces)
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
        n_workers = self._requested_workers
        if n_workers is None:
            n_workers = min(n_ranks, os.cpu_count() or 1)
        n_workers = int(n_workers)
        if n_workers < 1:
            raise ValueError("number of workers must be >= 1")
        n_workers = min(n_workers, n_ranks)
        self.n_workers = n_workers

        self.shared = SharedRankArrays(n_ranks, engine.n_global)
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
        )
        # fork: workers inherit init (force field, globals, slab mappings)
        # without pickling a byte of it.
        self.pool = PersistentWorkerPool(
            _worker_main, [(ranks, init) for ranks in self._partition]
        )

    def publish_positions(self) -> None:
        for domain in self.engine.domains:
            row = self.shared.positions[domain.rank]
            row[: domain.n_owned] = domain.positions
            row[domain.n_owned : domain.n_local] = domain.ghost_positions

    def rebuild(self) -> None:
        engine = self.engine
        owner_of = engine._owner_of.copy() if engine.strategy == "molecular" else None
        messages = []
        for ranks in self._partition:
            payloads = [
                dict(
                    gids=engine.domains[rank].gids,
                    ghost_gids=engine.domains[rank].ghost_gids,
                    balance_gids=engine.domains[rank].balance_gids,
                )
                for rank in ranks
            ]
            messages.append(("rebuild", payloads, owner_of))
        replies = self.pool.broadcast(messages)
        for ranks, elapsed in zip(self._partition, replies):
            for rank, seconds in zip(ranks, elapsed):
                engine.domains[rank].neigh_seconds += seconds
        if engine.evaluator.needs_halo:
            # re-adopt the halo slab views: the n_owned/n_ghost split moved
            for domain in engine.domains:
                engine.workspace.adopt(
                    f"halo.sink{domain.rank}",
                    self.shared.halo[domain.rank, domain.n_owned : domain.n_local],
                )

    def prepare(self) -> list:
        engine = self.engine
        replies = self.pool.broadcast(("prepare",))
        for ranks, elapsed in zip(self._partition, replies):
            for rank, seconds in zip(ranks, elapsed):
                engine.domains[rank].pair_seconds += seconds
        return [
            self.shared.halo[domain.rank, : domain.n_owned] for domain in engine.domains
        ]

    def halo_sinks(self) -> list:
        # the adopted slab views registered at rebuild time — the parent's
        # forward exchange writes straight into shared memory
        workspace = self.engine.workspace
        return [
            workspace.buffer(f"halo.sink{domain.rank}", domain.n_ghost)
            for domain in self.engine.domains
        ]

    def finish(self, halos) -> list:
        # halos were already delivered through the shared halo slab
        engine = self.engine
        replies = self.pool.broadcast(("finish",))
        results = []
        for ranks, worker_results in zip(self._partition, replies):
            for rank, (energy, virial, seconds) in zip(ranks, worker_results):
                domain = engine.domains[rank]
                domain.pair_seconds += seconds
                results.append((energy, self.shared.forces[rank, : domain.n_local], virial))
        return results

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.shared is not None:
            self.shared.close()
            self.shared = None


def make_executor(spec="sequential", n_workers: int | None = None) -> RankExecutor:
    """Resolve an ``executor=`` engine parameter into a :class:`RankExecutor`.

    ``spec`` may be an executor instance (returned as-is) or one of
    :data:`EXECUTOR_NAMES`; ``n_workers`` only applies to the process
    executor (default: one worker per rank, capped at the CPU count).
    """
    if isinstance(spec, RankExecutor):
        return spec
    name = str(spec).lower()
    if name == "sequential":
        return SequentialRankExecutor()
    if name in ("process", "multiprocess"):
        return MultiprocessRankExecutor(n_workers=n_workers)
    raise KeyError(f"unknown executor {spec!r}; available: {sorted(set(EXECUTOR_NAMES))}")
