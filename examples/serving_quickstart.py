"""Quickstart: serve many small systems through one batched Deep Potential.

Demonstrates the serving subsystem end to end:

1. build a small Deep Potential and a ``ServingEngine`` on top of it
   (compressed tables and standardization stats are cached once per model),
2. submit a burst of energy/force one-shots from concurrent "clients" and
   watch the requests that arrive while a batch computes share the next
   fused batched evaluation (admission takes whatever is pending, no timer),
3. submit short MD bursts that advance in lockstep through the same batched
   kernels, and
4. cross-check a few answers against the frozen serial reference
   (``repro.serving.serial``) at 1e-10.

Run:  PYTHONPATH=src python examples/serving_quickstart.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.md.atoms import Atoms
from repro.md.box import Box
from repro.serving import ServingEngine, evaluate_serial, prepare_system


def make_cluster(n_atoms: int, rng: int):
    """A molecule-sized jittered cluster in a large open box."""
    r = np.random.default_rng(rng)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1)
    positions = grid.reshape(-1, 3)[:n_atoms] * 2.4 + r.normal(scale=0.15, size=(n_atoms, 3)) + 2.0
    atoms = Atoms(
        positions=positions,
        types=np.zeros(n_atoms, dtype=np.int64),
        masses=np.full(n_atoms, 63.546),
    )
    return atoms, Box.cubic(40.0, periodic=False)


def main() -> None:
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=16,
        seed=0,
    )
    model = DeepPotential(config)

    # -- 1. the engine: caches built once, one serving thread on start() ----
    engine = ServingEngine(model, max_batch_size=16)

    with engine:
        # -- 2. concurrent one-shot clients --------------------------------
        results: dict[int, object] = {}

        def client(cid: int) -> None:
            atoms, box = make_cluster(4 + cid % 5, rng=100 + cid)
            results[cid] = engine.submit(atoms, box).result(timeout=120)

        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = engine.stats
        latency = stats.latency_ms()
        print(f"served {stats.n_requests} one-shots in {stats.n_batches} fused batches "
              f"(mean width {stats.mean_batch_size():.1f})")
        print(f"latency p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms "
              f"(queue wait {latency['wait_mean']:.2f} ms of that)")
        print(f"cache probe: {engine.cache_probe()}")

        # -- 3. a lockstep MD burst group ----------------------------------
        burst_futures = [
            engine.submit_md(*make_cluster(6, rng=200 + k), n_steps=5, timestep_fs=0.5)
            for k in range(4)
        ]
        for k, future in enumerate(burst_futures):
            burst = future.result(timeout=300)
            print(f"burst {k}: {burst.n_steps} steps, "
                  f"final E = {burst.energies[-1]:+.6f} eV")

    # -- 4. spot-check against the frozen serial reference ------------------
    atoms, box = make_cluster(7, rng=999)
    system = prepare_system(model, atoms, box)
    (reference,) = evaluate_serial(
        model, [system], compressed=True, compression_table=model.compressed_embeddings()
    )
    with ServingEngine(model, max_batch_size=4) as check_engine:
        served = check_engine.submit(atoms, box).result(timeout=120)
    assert abs(served.energy - reference.energy) < 1e-10
    assert np.abs(served.forces - reference.forces).max() < 1e-10
    print(f"serial parity check OK (|dE| = {abs(served.energy - reference.energy):.2e})")


if __name__ == "__main__":
    main()
