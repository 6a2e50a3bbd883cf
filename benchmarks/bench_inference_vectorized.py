"""Batched vs scalar Deep Potential inference on a ~1k-atom water box.

The vectorized hot path (batched environment matrix + stacked embedding /
fitting evaluation + scatter-based force accumulation) must beat the retained
per-atom scalar reference (:mod:`repro.reference.scalar`) by at least 10x; this
is the speedup that unlocks the larger scenario sweeps of later PRs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_inference_vectorized.py -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.md import water_system
from repro.md.neighbor import build_neighbor_data
from repro.reference.scalar import evaluate_scalar

#: Minimum accepted speedup of the batched path over the scalar reference.
TARGET_SPEEDUP = 10.0


def _water_inference_setup(n_molecules: int = 333, seed: int = 7):
    """A ~1k-atom water box plus a paper-shaped (but small) model."""
    atoms, box, _ = water_system(n_molecules, rng=seed)
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=6.0,
        cutoff_smooth=5.0,
        embedding_sizes=(8, 16),
        axis_neurons=4,
        fitting_sizes=(32, 32),
        max_neighbors=128,
        seed=seed,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(seed)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(2, config.descriptor_dim)),
        0.5 + rng.random((2, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-2.0, -0.5]))
    neighbors = build_neighbor_data(atoms.positions, box, config.cutoff)
    return model, atoms, box, neighbors


def test_bench_inference_vectorized():
    model, atoms, box, neighbors = _water_inference_setup()
    n = len(atoms)

    t0 = time.perf_counter()
    out_scalar = evaluate_scalar(model, atoms, box, neighbors)
    t_scalar = time.perf_counter() - t0

    # Best of a few repetitions for the (fast) vectorized path.
    t_vec = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        out_vec = model.evaluate(atoms, box, neighbors)
        t_vec = min(t_vec, time.perf_counter() - t0)

    speedup = t_scalar / t_vec
    print()
    print(f"Batched vs scalar Deep Potential inference ({n} atoms, water)")
    print(f"  scalar reference : {t_scalar * 1e3:9.1f} ms/eval")
    print(f"  vectorized       : {t_vec * 1e3:9.1f} ms/eval")
    print(f"  speedup          : {speedup:9.1f}x (target >= {TARGET_SPEEDUP:.0f}x)")

    # The two paths must agree before the timing means anything.
    np.testing.assert_allclose(out_vec.forces, out_scalar.forces, atol=1.0e-10)
    np.testing.assert_allclose(
        out_vec.per_atom_energy, out_scalar.per_atom_energy, atol=1.0e-10
    )
    assert abs(out_vec.energy - out_scalar.energy) < 1.0e-8
    assert speedup >= TARGET_SPEEDUP
