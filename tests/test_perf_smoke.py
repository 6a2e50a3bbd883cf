"""Perf smoke tests: the vectorized hot paths must stay fast.

Marked ``slow`` and excluded from the tier-1 run (see ``pytest.ini``); run
explicitly with::

    PYTHONPATH=src python -m pytest -m slow tests/test_perf_smoke.py -s

Three hot paths are guarded: Deep Potential inference (vectorized vs the scalar
reference), the environment-matrix build (production vs its scalar golden) and
the neighbour-list build (vectorized binned build vs the brute-force
reference).  The assertions are deliberately loose against the measured
margins so they only fire when someone genuinely reintroduces Python-level
loops (or a pass over every candidate slot) into a hot path, not on scheduler
noise.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.envmat import build_local_environment
from repro.md import Box, Workspace, water_system
from repro.md.neighbor import _brute_force_pairs, _cell_list_pairs, build_neighbor_data
from repro.reference.scalar import build_local_environment_scalar, evaluate_scalar

#: Minimum speedup of the vectorized path over the scalar reference that this
#: smoke test insists on (the real margin is far larger; see
#: ``benchmarks/bench_inference_vectorized.py`` for the >= 10x benchmark).
SMOKE_SPEEDUP = 2.0


@pytest.mark.slow
def test_vectorized_inference_beats_scalar_on_512_atoms():
    atoms, box, _ = water_system(171, rng=21)  # 513 atoms
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=6.0,
        cutoff_smooth=5.0,
        embedding_sizes=(8, 16),
        axis_neurons=4,
        fitting_sizes=(32, 32),
        max_neighbors=128,
        seed=21,
    )
    model = DeepPotential(config)
    neighbors = build_neighbor_data(atoms.positions, box, config.cutoff)

    t0 = time.perf_counter()
    out_scalar = evaluate_scalar(model, atoms, box, neighbors)
    t_scalar = time.perf_counter() - t0

    t_vec = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        out_vec = model.evaluate(atoms, box, neighbors)
        t_vec = min(t_vec, time.perf_counter() - t0)

    np.testing.assert_allclose(out_vec.forces, out_scalar.forces, atol=1.0e-10)
    speedup = t_scalar / t_vec
    print(f"\n512-atom smoke: scalar {t_scalar*1e3:.0f} ms, vectorized {t_vec*1e3:.0f} ms, {speedup:.1f}x")
    assert speedup >= SMOKE_SPEEDUP, (
        f"vectorized path only {speedup:.2f}x faster than the scalar reference - "
        "a Python-level loop has probably crept back into the hot path"
    )


@pytest.mark.slow
def test_environment_build_keeps_up_with_its_scalar_golden_at_999_atoms():
    """The production env build must not fall behind the per-atom loop again.

    At 999-atom water (the ``dp_serial`` shape: cutoff 6 + skin 1.5, 100
    slots) the scalar golden's 999 small per-row sorts take ~35 ms; the
    production build took 2.3x that while it lexsorted all ~200k candidate
    slots, and ~0.7x since it compacts to the ~85k kept pairs first.
    """
    atoms, box, _ = water_system(333, rng=22)
    cutoff, smooth, max_nei = 6.0, 5.0, 100
    neighbors = build_neighbor_data(atoms.positions, box, cutoff, skin=1.5)
    workspace = Workspace()

    def best_of(build, repeats):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            build()
            best = min(best, time.perf_counter() - t0)
        return best

    t_fast = best_of(
        lambda: build_local_environment(
            atoms, box, neighbors, cutoff, smooth, max_neighbors=max_nei, workspace=workspace
        ),
        6,
    )
    t_scalar = best_of(
        lambda: build_local_environment_scalar(atoms, box, neighbors, cutoff, smooth, max_neighbors=max_nei), 3
    )
    ratio = t_fast / t_scalar
    print(f"\n999-atom env build: production {t_fast*1e3:.0f} ms, scalar golden {t_scalar*1e3:.0f} ms, {ratio:.2f}x")
    assert ratio <= 1.25, (
        f"production environment build takes {ratio:.2f}x the scalar golden's time - "
        "a pass over every candidate slot has probably crept back into the sort"
    )


@pytest.mark.slow
def test_binned_neighbor_build_beats_brute_force_at_1200_atoms():
    """The vectorized binned build must stay far ahead of the O(N^2) search.

    Measured margin is ~15x at 1200 atoms (brute ~110 ms, binned ~8 ms); the
    3x assertion only fires when a Python-level loop over cells (or an O(N^2)
    fallback) creeps back into ``_cell_list_pairs``.
    """
    rng = np.random.default_rng(23)
    n, density, search = 1200, 0.09, 5.0
    length = (n / density) ** (1.0 / 3.0)
    box = Box.cubic(length)
    positions = rng.uniform(0.0, length, size=(n, 3))

    t0 = time.perf_counter()
    _brute_force_pairs(positions, box, search)
    t_brute = time.perf_counter() - t0

    t_binned = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _cell_list_pairs(positions, box, search)
        t_binned = min(t_binned, time.perf_counter() - t0)

    speedup = t_brute / t_binned
    print(
        f"\n1200-atom neighbour build: brute {t_brute*1e3:.0f} ms, "
        f"binned {t_binned*1e3:.0f} ms, {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"binned neighbour build only {speedup:.2f}x faster than brute force - "
        "a Python loop or O(N^2) fallback has probably crept back in"
    )
