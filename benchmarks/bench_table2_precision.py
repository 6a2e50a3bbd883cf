"""Table II — accuracy *and* speed of one time-step under mixed precision.

Two guards:

* **accuracy** — the trained-model energy/force errors under MIX-fp32 /
  MIX-fp16 stay at the paper's Table II relations to the double baseline
  (``test_table2_precision``);
* **steps/sec** — MIX-fp32 must be a real fast path, not an accuracy
  simulation: >= 1.5x the double-precision steps/sec on a ~4k-atom
  compressed water Deep Potential MD run (~1.7x measured on this
  container).  Before the mixed-precision fast path landed this ratio was
  ~1.0x — the policy only changed what the FLOPs were *accounted* as.

Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_table2_precision.py
"""

import time

import numpy as np

from repro.core.experiments import table2_precision
from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.pair_style import DeepPotentialForceField
from repro.md import Simulation, water_system

#: Minimum accepted MIX-fp32 over double steps/sec ratio at ~4k atoms.
SPEEDUP_TARGET = 1.5
#: ~4k atoms (1333 water molecules): the scale the acceptance criterion names.
N_MOLECULES = 1333
#: Table resolution of the speed runs (same grid as the compression bench).
N_POINTS = 512
#: Timed repeats per precision, interleaved with the other precision's.
REPEATS = 4


def _benchmark_model(seed: int = 7):
    """The embedding-heavy ~4k-atom water setup of the compression bench."""
    atoms, box, _ = water_system(N_MOLECULES, rng=seed)
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=6.0,
        cutoff_smooth=5.0,
        embedding_sizes=(32, 64, 128),
        axis_neurons=8,
        fitting_sizes=(32, 32),
        max_neighbors=100,
        seed=seed,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(seed)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(2, config.descriptor_dim)),
        0.5 + rng.random((2, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-2.0, -0.5]))
    return model, atoms, box


def _dp_simulation(model, atoms, box, precision: str) -> Simulation:
    force_field = DeepPotentialForceField(
        model, precision=precision, compressed=True, compression_points=N_POINTS
    )
    sim_atoms = atoms.copy()
    sim_atoms.initialize_velocities(120.0, rng=3)
    return Simulation(
        sim_atoms,
        box,
        force_field,
        timestep_fs=0.25,
        neighbor_skin=1.5,
        neighbor_every=50,
    )


def _steps_per_second(sim: Simulation, n_steps: int = 3) -> float:
    start = time.perf_counter()
    sim.run(n_steps, sample_every=1)
    return n_steps / (time.perf_counter() - start)


def test_mix_fp32_speedup_guard():
    """MIX-fp32 >= 1.5x double steps/sec on ~4k-atom compressed water MD."""
    model, atoms, box = _benchmark_model()
    sims = {precision: _dp_simulation(model, atoms, box, precision) for precision in ("double", "mix-fp32")}
    for sim in sims.values():
        sim.run(1, sample_every=0)  # warm up: kernels, tables and pools built
    # interleaved repeats, alternating which precision runs first, so a
    # burst of load from elsewhere on the machine slows both sides instead of
    # one whole back-to-back pass
    best = dict.fromkeys(sims, 0.0)
    for repeat in range(REPEATS):
        for precision in sorted(sims, reverse=bool(repeat % 2)):
            best[precision] = max(best[precision], _steps_per_second(sims[precision]))
    slow, fast = best["double"], best["mix-fp32"]
    speedup = fast / slow
    print()
    print(f"Mixed-precision Deep Potential MD ({len(atoms)} atoms, water, compressed)")
    print(f"  double   : {slow:8.3f} steps/s")
    print(f"  mix-fp32 : {fast:8.3f} steps/s")
    print(f"  speedup  : {speedup:8.2f}x (target >= {SPEEDUP_TARGET}x)")
    assert speedup >= SPEEDUP_TARGET, (
        f"MIX-fp32 only {speedup:.2f}x over double at {len(atoms)} atoms "
        f"(expected >= {SPEEDUP_TARGET}x)"
    )


def test_table2_precision(benchmark, trained_water_model):
    table = benchmark.pedantic(
        table2_precision, kwargs={"trained": trained_water_model}, rounds=1, iterations=1
    )
    print()
    print(table.to_text(floatfmt=".3e"))
    records = {r["Precision"]: r for r in table.to_records()}
    double = records["Double"]
    fp32 = records["MIX-fp32"]
    fp16 = records["MIX-fp16"]
    # Paper: MIX-fp32 matches double precision; MIX-fp16 degrades the energy
    # error only slightly and the force error stays at the double level.
    assert fp32["Error in energy [eV/atom]"] <= 2.0 * double["Error in energy [eV/atom]"] + 1e-6
    assert fp16["Error in energy [eV/atom]"] <= 5.0 * double["Error in energy [eV/atom]"] + 1e-3
    assert abs(fp16["Error in force [eV/A]"] - double["Error in force [eV/A]"]) < 0.1
