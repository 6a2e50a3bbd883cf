"""Serving throughput: fused cross-system batching vs the serial request loop.

The PR 9 gates:

* **parity first** — the batched evaluator agrees with the frozen serial
  reference (:mod:`repro.serving.serial`) at 1e-10 in fp64 on the benchmark
  batch; the timing means nothing if the physics drifted.
* **>= 5x aggregate throughput** for a batch of 32 molecule-sized systems
  over the one-at-a-time loop (~7-8x measured on this container).  Both
  sides evaluate *prebuilt* environments, so the gate isolates what batching
  changes in the evaluation — one fused embedding/fitting GEMM and one
  packed Hermite table pass instead of 32 under-filled ones.  Packing is
  not hidden behind anything: the one serving thread packs, then evaluates
  (see :class:`repro.serving.engine.ServingEngine`), so it has its own gate.
* **pack <= evaluate** at 32 serving-sized clusters (4-12 atoms): the
  single-pass ``pack_systems`` costs no more than the ``evaluate_many`` it
  feeds, and a steady-state pack makes zero allocator calls and zero
  ``Workspace`` misses.
* **zero allocator calls** in the steady-state batched evaluator: with a warm
  workspace, ``evaluate_many`` runs entirely out of the pool (the PR 4
  budget, extended to the serving path).
* **the width-1 floor** — one serve_open-style request batched alone
  (``prepare_system`` -> ``evaluate_batch`` -> ``split`` on one thread) costs
  at most :data:`WIDTH1_RATIO_CEILING` times its share of a width-32 batch:
  at serve_open's rates most batches hold one or two requests, so the fixed
  per-batch cost, not the FLOPs, sets their latency.
* **latency report** — p50/p99 and systems/sec through the threaded engine at
  1/8/64 concurrent closed-loop clients (reported, not gated: this container
  may have a single core, where thread overlap cannot help wall-clock).

Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_serving_throughput.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.md.atoms import Atoms
from repro.md.box import Box
from repro.md.workspace import Workspace
from repro.serving import ServingEngine, evaluate_serial, pack_systems, prepare_system

from allocations import AllocationCounter

#: Minimum accepted aggregate-throughput speedup, batch of 32 vs serial.
TARGET_SPEEDUP = 5.0
#: fp64 agreement between the batched path and the serial golden reference.
PARITY_ATOL = 1.0e-10
#: Systems per batch for the headline gate.
BATCH_SIZE = 32
#: Atoms per system: molecule-sized, the regime serving batching targets.
SYSTEM_ATOMS = 4
#: Ceiling on (median width-1 batch time) / (median width-32 per-system cost)
#: for 4-12-atom clusters.  Measured by this test on a 2-vCPU x86-64 host,
#: one pinned core: 3.6-4.3 once the per-batch floor was cut (so the ceiling
#: sits >= 28 % above it), 4.8-5.3 before.
WIDTH1_RATIO_CEILING = 5.5


def _serving_model(seed: int = 9) -> DeepPotential:
    """A small short-cutoff model matched to molecule-sized requests."""
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=16,
        seed=seed,
    )
    return DeepPotential(config)


def _cluster(n_atoms: int, rng: int):
    r = np.random.default_rng(rng)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1)
    positions = grid.reshape(-1, 3)[:n_atoms] * 2.4 + r.normal(scale=0.15, size=(n_atoms, 3)) + 2.0
    atoms = Atoms(
        positions=positions,
        types=np.zeros(n_atoms, dtype=np.int64),
        masses=np.full(n_atoms, 63.546),
    )
    return atoms, Box.cubic(40.0, periodic=False)


def _request_batch(model, n_systems: int, rng0: int = 400):
    return [prepare_system(model, *_cluster(SYSTEM_ATOMS, rng0 + i)) for i in range(n_systems)]


def _best_seconds(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_serving_batch_throughput_and_parity():
    """Batch of 32: >= 5x the serial loop, pinned to it at 1e-10 first."""
    model = _serving_model()
    systems = _request_batch(model, BATCH_SIZE)
    table = model.compressed_embeddings()

    # --- parity gate before any timing
    reference = evaluate_serial(model, systems, compressed=True, compression_table=table)
    workspace = Workspace()
    batch = pack_systems(model, systems, workspace=workspace)
    out = model.evaluate_many(
        batch.env,
        batch.system_of_atom,
        batch.offsets,
        compressed=True,
        compression_table=table,
        workspace=workspace,
    )
    for s, ref in enumerate(reference):
        rows = batch.system_slice(s)
        assert abs(out.energies[s] - ref.energy) < PARITY_ATOL
        np.testing.assert_allclose(out.forces[rows], ref.forces, rtol=0.0, atol=PARITY_ATOL)
        np.testing.assert_allclose(out.virials[s], ref.virial, rtol=0.0, atol=PARITY_ATOL)

    # --- aggregate throughput: both sides evaluate prebuilt environments
    environments = [model.build_environment(a, b, nd) for a, b, nd in systems]

    def serial_loop():
        for (atoms, box, neighbors), env in zip(systems, environments):
            model.evaluate(
                atoms,
                box,
                neighbors,
                compressed=True,
                compression_table=table,
                environment=env,
            )

    def batched_once():
        model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            compressed=True,
            compression_table=table,
            workspace=workspace,
        )

    serial_loop()
    batched_once()  # warm every pool and cache before timing
    serial_seconds = _best_seconds(serial_loop)
    batched_seconds = _best_seconds(batched_once)
    speedup = serial_seconds / batched_seconds
    per_sec_serial = BATCH_SIZE / serial_seconds
    per_sec_batched = BATCH_SIZE / batched_seconds
    print()
    print(
        f"Serving aggregate throughput, batch of {BATCH_SIZE} x "
        f"{SYSTEM_ATOMS}-atom systems (compressed, fp64)"
    )
    print(f"  serial loop  : {serial_seconds * 1e3:7.2f} ms  ({per_sec_serial:8.0f} systems/s)")
    print(f"  fused batch  : {batched_seconds * 1e3:7.2f} ms  ({per_sec_batched:8.0f} systems/s)")
    print(f"  speedup      : {speedup:7.2f}x (target >= {TARGET_SPEEDUP:.0f}x)")
    assert speedup >= TARGET_SPEEDUP, (
        f"fused batch of {BATCH_SIZE} reached only {speedup:.2f}x over the serial "
        f"loop (>= {TARGET_SPEEDUP:.0f}x required)"
    )


def test_bench_serving_steady_state_evaluator_is_allocation_free():
    """With a warm workspace, the batched evaluator makes zero allocator calls."""
    model = _serving_model(seed=10)
    systems = _request_batch(model, BATCH_SIZE, rng0=500)
    table = model.compressed_embeddings()
    workspace = Workspace()
    batch = pack_systems(model, systems, workspace=workspace)

    def evaluate():
        model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            compressed=True,
            compression_table=table,
            workspace=workspace,
        )

    evaluate()
    evaluate()  # second call guarantees every pool buffer exists
    n_steps = 5
    with AllocationCounter() as counter:
        for _ in range(n_steps):
            evaluate()
    print(f"\nexplicit allocations per steady-state batched evaluation: "
          f"{counter.count / n_steps:.2f} (budget 0)")
    assert counter.count == 0, (
        f"{counter.count} explicit allocator calls in {n_steps} steady-state "
        "batched evaluations (expected 0: the evaluator must run out of the pool)"
    )


def test_bench_serving_pack_costs_no_more_than_the_evaluation():
    """32 clusters of 4-12 atoms: pack <= evaluate_many, out of the pool."""
    model = _serving_model(seed=12)
    sizes = np.random.default_rng(12).integers(4, 13, size=BATCH_SIZE)
    systems = [prepare_system(model, *_cluster(int(n), 800 + i)) for i, n in enumerate(sizes)]
    table = model.compressed_embeddings()
    workspace = Workspace()
    batch = pack_systems(model, systems, workspace=workspace)

    def pack():
        pack_systems(model, systems, workspace=workspace)

    def evaluate():
        model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            compressed=True,
            compression_table=table,
            workspace=workspace,
        )

    pack()
    evaluate()  # every pool buffer and cache exists from here on
    misses = workspace.misses
    n_packs = 5
    with AllocationCounter() as counter:
        for _ in range(n_packs):
            pack()
    pack_seconds = _best_seconds(pack, repeats=21)
    evaluate_seconds = _best_seconds(evaluate, repeats=21)
    print()
    print(f"Serving pack vs fused evaluation, {BATCH_SIZE} clusters of {sizes.min()}-{sizes.max()} atoms")
    print(f"  pack_systems  : {pack_seconds * 1e3:7.3f} ms")
    print(f"  evaluate_many : {evaluate_seconds * 1e3:7.3f} ms")
    print(f"  steady-state pack: {counter.count} allocator calls, {workspace.misses - misses} pool misses (budget 0)")
    assert counter.count == 0, f"{counter.count} explicit allocator calls in {n_packs} steady-state packs"
    assert workspace.misses == misses, "a steady-state pack missed the workspace pool"
    assert pack_seconds <= evaluate_seconds, (
        f"packing {BATCH_SIZE} systems took {pack_seconds * 1e3:.3f} ms, more than the "
        f"{evaluate_seconds * 1e3:.3f} ms fused evaluation it feeds"
    )


def test_bench_serving_width1_floor_against_a_full_batch():
    """A width-1 batch costs at most WIDTH1_RATIO_CEILING x a width-32 batch's per-system cost."""
    model = _serving_model(seed=14)
    sizes = np.random.default_rng(14).integers(4, 13, size=64)
    clusters = [_cluster(int(n), 900 + i) for i, n in enumerate(sizes)]
    engine = ServingEngine(model)  # never started: every batch runs on this thread

    def batch(first: int, width: int):
        systems = [prepare_system(model, *clusters[(first + k) % len(clusters)]) for k in range(width)]
        engine.evaluate_batch(systems).split()

    def seconds(first: int, width: int) -> float:
        start = time.perf_counter()
        batch(first, width)
        return time.perf_counter() - start

    for first in range(len(clusters)):
        batch(first, 1)
    batch(0, BATCH_SIZE)  # every pool buffer, plan and cache exists from here on
    width1, width32 = [], []
    for round_ in range(9):  # interleaved, so a slow spell of the host hits both
        width1.append(float(np.median([seconds(round_ + k, 1) for k in range(64)])))
        width32.append(float(np.median([seconds(round_ + 7 * k, BATCH_SIZE) for k in range(4)])) / BATCH_SIZE)
    one, share = float(np.median(width1)), float(np.median(width32))
    ratio = one / share
    print()
    print("Serving per-batch floor, 4-12-atom clusters (compressed, fp64), one thread")
    print(f"  width-1 batch      : {one * 1e6:8.1f} us")
    print(f"  width-32 per system: {share * 1e6:8.1f} us")
    print(f"  ratio              : {ratio:8.2f}x (ceiling {WIDTH1_RATIO_CEILING:.1f}x)")
    assert ratio <= WIDTH1_RATIO_CEILING, (
        f"a width-1 batch costs {ratio:.2f}x a width-32 batch's per-system cost "
        f"(<= {WIDTH1_RATIO_CEILING:.1f}x required)"
    )


def _closed_loop_clients(model, n_clients: int, requests_per_client: int):
    """Drive the threaded engine with closed-loop clients; returns the stats."""
    engine = ServingEngine(model, max_batch_size=BATCH_SIZE)
    completed = []
    errors = []

    def client(cid: int):
        try:
            for k in range(requests_per_client):
                atoms, box = _cluster(SYSTEM_ATOMS, 700 + 31 * cid + k)
                engine.submit(atoms, box).result(timeout=300)
                completed.append(1)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with engine:
        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    assert errors == []
    assert len(completed) == n_clients * requests_per_client
    return engine.stats, len(completed) / elapsed


def test_bench_serving_client_latency_report():
    """p50/p99 latency and systems/sec at 1/8/64 concurrent clients."""
    model = _serving_model(seed=11)
    # warm the model caches once so the first client doesn't pay table builds
    warm = _request_batch(model, 2, rng0=600)
    evaluate_serial(model, warm, compressed=True, compression_table=model.compressed_embeddings())

    print()
    print("Serving latency under concurrent closed-loop clients "
          f"({SYSTEM_ATOMS}-atom systems, work-conserving admission):")
    print("  clients   p50 ms   p99 ms   mean batch   systems/s")
    throughput = {}
    for n_clients in (1, 8, 64):
        requests = 40 if n_clients == 1 else max(4, 320 // n_clients)
        stats, systems_per_sec = _closed_loop_clients(model, n_clients, requests)
        latency = stats.latency_ms()
        throughput[n_clients] = systems_per_sec
        print(
            f"  {n_clients:7d}  {latency['p50']:7.2f}  {latency['p99']:7.2f}  "
            f"{stats.mean_batch_size():11.2f}  {systems_per_sec:10.0f}"
        )
        assert latency["p99"] >= latency["p50"] > 0.0
        assert systems_per_sec > 0.0
    # concurrency must widen the admitted batches; wall-clock gains are not
    # gated here (a 1-core container cannot overlap threads), but the fused
    # evaluation makes aggregate throughput under load at least hold its own
    assert throughput[64] > throughput[1], (
        "64 concurrent clients produced lower aggregate throughput than a "
        "single closed-loop client despite admission batching"
    )
