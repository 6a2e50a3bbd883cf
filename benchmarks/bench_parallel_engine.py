"""Domain-decomposed engine throughput vs rank count (~1k-atom water box).

Runs the same dynamics on 1, 2, 4 and 8 simulated ranks and reports steps/sec
plus the measured per-rank pair and neighbour-build times.  Because the ranks
execute *sequentially in-process* the wall-clock does not drop with rank
count — what must drop is the *work each rank performs*, which is exactly the
quantity the paper's strong scaling rides on.  The assertions pin that sanity
curve: the mean per-rank pair time shrinks as the domain grid grows, and the
per-rank neighbour build (the vectorized binned build of ``md/neighbor.py``,
timed under the ``neigh`` phase) stays a small fraction of the per-rank pair
work.

``test_bench_executor_strong_scaling`` is where the wall-clock *does* drop:
the multiprocess executor runs the same ranks concurrently on a ~11k-atom LJ
system, bitwise-identical to the sequential golden reference, and must beat
it by >= 2x at 4 workers when the container actually has 4 cores (on fewer
cores the guard degrades to an overhead floor — concurrency cannot help a
machine that has nowhere to run it).

``test_bench_node_box_sdmr`` prints the measured Table III: the node-box
organization's measured atom-count SDMR next to the
:func:`~repro.perfmodel.balance_comparison` prediction it must reproduce.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_engine.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.md import LennardJones, copper_system, water_system
from repro.md.forcefields.water import WaterReference
from repro.parallel import DomainDecomposedSimulation
from repro.parallel.threadpool import usable_cpu_count
from repro.perfmodel import balance_comparison

N_MOLECULES = 333  # 999 atoms
N_STEPS = 10
GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


def _engine(atoms, box, topology, rank_dims):
    return DomainDecomposedSimulation(
        atoms.copy(),
        box,
        WaterReference(topology, cutoff=4.0),
        timestep_fs=0.5,
        rank_dims=rank_dims,
        scheme="p2p",
        neighbor_skin=0.5,
        neighbor_every=5,
    )


def test_bench_parallel_engine():
    atoms, box, topology = water_system(N_MOLECULES, rng=17)
    atoms.initialize_velocities(350.0, rng=18)

    rows = []
    for rank_dims in GRIDS:
        engine = _engine(atoms, box, topology, rank_dims)
        report = engine.run(N_STEPS)
        pair_times = engine.load_balance_stats().pair_times
        mean_pair = float(pair_times.mean()) / N_STEPS
        builds = max(engine.n_builds, 1)
        mean_neigh = float(engine.neighbor_build_times().mean()) / builds
        rows.append(
            {
                "ranks": engine.n_ranks,
                "steps_per_sec": report.steps_per_second,
                "pair_ms_per_rank_step": 1.0e3 * mean_pair,
                "neigh_ms_per_rank_build": 1.0e3 * mean_neigh,
                "mean_ghosts": engine.measured_comm_volume()["mean_ghosts_per_rank"],
                "comm_frac": report.timers.fraction("comm"),
            }
        )

    print("\nDomain-decomposed water box (999 atoms, 10 steps, p2p delivery)")
    print(
        f"{'ranks':>5} {'steps/s':>9} {'pair ms/rank/step':>18} "
        f"{'neigh ms/rank/build':>20} {'ghosts/rank':>12} {'comm %':>7}"
    )
    for row in rows:
        print(
            f"{row['ranks']:>5} {row['steps_per_sec']:>9.2f} "
            f"{row['pair_ms_per_rank_step']:>18.3f} "
            f"{row['neigh_ms_per_rank_build']:>20.3f} {row['mean_ghosts']:>12.1f} "
            f"{100.0 * row['comm_frac']:>6.1f}%"
        )

    # The strong-scaling sanity curve: every decomposition shrinks the pair
    # work of a single rank, and the 8-rank grid at least halves it.
    single = rows[0]["pair_ms_per_rank_step"]
    for row in rows[1:]:
        assert row["pair_ms_per_rank_step"] < single, (
            f"{row['ranks']} ranks did not reduce the per-rank pair time"
        )
    assert rows[-1]["pair_ms_per_rank_step"] < 0.5 * single
    # every decomposition yields a throughput figure
    assert all(row["steps_per_sec"] > 0.0 for row in rows)
    # one vectorized per-rank neighbour build must cost less than the whole
    # run's pair work on that rank (pre-PR, the O(n_local^2) brute-force
    # builds at this size were the same order as the full run)
    for row in rows:
        assert row["neigh_ms_per_rank_build"] < row["pair_ms_per_rank_step"] * N_STEPS, (
            f"{row['ranks']} ranks: one neighbour build "
            f"({row['neigh_ms_per_rank_build']:.3f} ms) outweighs the whole "
            f"{N_STEPS}-step run's pair work"
        )


# ---------------------------------------------------------------------------
# Real concurrency: multiprocess executor strong scaling (~11k atoms)
# ---------------------------------------------------------------------------

SCALING_STEPS = 10
#: pipe/slab dispatch overhead budget when the host cannot run workers in
#: parallel at all: even time-sliced onto a single core (~0.2x measured on a
#: 1-core container), 4 workers must retain this fraction of the sequential
#: throughput — a runaway-overhead backstop, not a performance target.
SINGLE_CORE_FLOOR = 0.15


def _scaling_engine(atoms, box, executor, n_workers=None):
    return DomainDecomposedSimulation(
        atoms.copy(),
        box,
        LennardJones(0.05, 2.3, 5.0),
        timestep_fs=2.0,
        rank_dims=(2, 2, 1),
        scheme="p2p",
        neighbor_skin=0.4,
        neighbor_every=5,
        executor=executor,
        n_workers=n_workers,
    )


def test_bench_executor_strong_scaling():
    atoms, box = copper_system((14, 14, 14), perturbation=0.05, rng=21)  # 10976 atoms
    atoms.initialize_velocities(300.0, rng=22)

    sequential = _scaling_engine(atoms, box, "sequential")
    start = time.perf_counter()
    sequential.run(SCALING_STEPS)
    sequential_seconds = time.perf_counter() - start

    with _scaling_engine(atoms, box, "process", n_workers=4) as concurrent:
        start = time.perf_counter()
        concurrent.run(SCALING_STEPS)
        concurrent_seconds = time.perf_counter() - start
        # the speedup must never come at the price of the physics: the
        # concurrent trajectory is bitwise-identical, not merely close
        reference, gathered = sequential.gather(), concurrent.gather()
        np.testing.assert_array_equal(gathered.positions, reference.positions)
        np.testing.assert_array_equal(gathered.forces, reference.forces)
        n_workers = concurrent._executor.pool.n_workers

    speedup = sequential_seconds / concurrent_seconds
    cores = usable_cpu_count()
    print(
        f"\nStrong scaling, {len(atoms)} atoms, {SCALING_STEPS} steps, 2x2x1 ranks "
        f"({cores} cores visible):"
    )
    print(f"  sequential executor : {SCALING_STEPS / sequential_seconds:>8.2f} steps/s")
    print(
        f"  process executor x{n_workers} : {SCALING_STEPS / concurrent_seconds:>8.2f} "
        f"steps/s  ({speedup:.2f}x)"
    )
    if cores >= 4 and n_workers >= 4:
        # enough real cores for genuine concurrency: the 2x gate is armed
        assert speedup >= 2.0, (
            f"4 workers on {cores} cores reached only {speedup:.2f}x over the "
            "sequential executor (>= 2x required)"
        )
    else:
        print(
            f"  [note] only {cores} core(s) visible (affinity mask min cgroup "
            f"quota): concurrency cannot beat time-slicing here, so asserting "
            f"the {SINGLE_CORE_FLOOR:.2f}x dispatch-overhead floor instead of "
            "the 2x speedup gate"
        )
        assert speedup >= SINGLE_CORE_FLOOR, (
            f"process-executor dispatch overhead ate {1.0 - speedup:.0%} of the "
            f"sequential throughput (floor {SINGLE_CORE_FLOOR:.2f}x)"
        )


# ---------------------------------------------------------------------------
# Node-box load balance: measured SDMR vs the balancer's prediction
# ---------------------------------------------------------------------------


def test_bench_node_box_sdmr():
    atoms, box = copper_system((6, 6, 6), perturbation=0.05, rng=23)  # 864 atoms
    atoms.initialize_velocities(400.0, rng=24)

    def _engine(node_balance):
        return DomainDecomposedSimulation(
            atoms.copy(),
            box,
            LennardJones(0.05, 2.3, 5.0),
            timestep_fs=2.0,
            rank_dims=(2, 2, 1),
            scheme="node-based",
            neighbor_skin=0.4,
            neighbor_every=5,
            node_balance=node_balance,
        )

    plain, balanced = _engine(False), _engine(True)
    plain.run(N_STEPS)
    balanced.run(N_STEPS)

    measured_plain = plain.load_balance_stats()
    measured_balanced = balanced.load_balance_stats()
    positions = balanced.gather().positions
    predicted = balance_comparison(balanced.decomposition, positions, per_atom_time=1e-4, jitter_fraction=0.0)

    rows = [
        ("owner-computes (measured)", measured_plain),
        ("node-box (measured)", measured_balanced),
        ("owner-computes (predicted)", predicted["no"]),
        ("node-box (predicted)", predicted["yes"]),
    ]
    print(f"\nNode-box SDMR, {len(atoms)} atoms, 2x2x1 ranks, node-based delivery:")
    print(f"{'organization':>28} {'min':>5} {'avg':>7} {'max':>5} {'sdmr %':>7}")
    for label, stats in rows:
        natom = stats.atom_stats().summary()
        print(
            f"{label:>28} {natom['min']:>5.0f} {natom['avg']:>7.1f} "
            f"{natom['max']:>5.0f} {natom['sdmr%']:>7.2f}"
        )

    # the measured node-box counts *are* the predicted even split
    np.testing.assert_array_equal(
        measured_balanced.atom_counts, predicted["yes"].atom_counts
    )
    measured_reduction = (
        measured_plain.atom_stats().sdmr_percent
        - measured_balanced.atom_stats().sdmr_percent
    )
    predicted_reduction = (
        predicted["no"].atom_stats().sdmr_percent
        - predicted["yes"].atom_stats().sdmr_percent
    )
    print(
        f"  SDMR reduction: measured {measured_reduction:.2f} pts, "
        f"predicted {predicted_reduction:.2f} pts (paper Table III: 79.7 % relative)"
    )
    assert measured_reduction >= 0.0
    assert measured_reduction == pytest.approx(predicted_reduction)
    # per-rank pair times are real wall-clock measurements on both engines
    assert (measured_plain.pair_times > 0.0).all()
    assert (measured_balanced.pair_times > 0.0).all()
