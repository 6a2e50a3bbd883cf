"""Quickstart: train a small Deep Potential on pseudo-AIMD copper data and run MD.

This walks the full pipeline the paper's system implements:

1. generate reference (pseudo-AIMD) data with the Gupta many-body potential,
2. train a Deep Potential (embedding + fitting nets) on per-atom energies —
   offline, in ``repro.training``, which hands back a new frozen model,
3. evaluate energies/forces with the optimized framework-free kernels under
   a mixed-precision policy, and
4. run a short MD simulation with the frozen model as the force field.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.deepmd import (
    DeepPotential,
    DeepPotentialConfig,
    DeepPotentialForceField,
    GemmBackend,
)
from repro.md import LangevinThermostat, Simulation, copper_system
from repro.md.neighbor import build_neighbor_data
from repro.training import Trainer, generate_copper_dataset


def main() -> None:
    # 1. reference data -------------------------------------------------------
    print("Generating pseudo-AIMD copper reference data (Gupta potential)...")
    dataset = generate_copper_dataset(n_frames=10, n_cells=(2, 2, 2), cutoff=3.6, rng=0)
    print(f"  {len(dataset)} frames, {dataset.energy_statistics()}")

    # 2. train a small Deep Potential ----------------------------------------
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=3.6,
        cutoff_smooth=3.0,
        embedding_sizes=(8, 16),
        axis_neurons=4,
        fitting_sizes=(32, 32),
        max_neighbors=32,
        seed=1,
    )
    trainer = Trainer(DeepPotential(config), dataset, learning_rate=5e-3, rng=2)
    print("Training the Deep Potential (per-atom energy matching)...")
    result = trainer.train(n_epochs=60)
    model = result.model  # frozen: what inference and MD load
    print(f"  loss {result.loss_history[0]:.3e} -> {result.final_loss:.3e}, "
          f"energy RMSE {result.energy_rmse_per_atom * 1000:.1f} meV/atom")

    # 3. evaluate with the optimized kernels -----------------------------------
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=3)
    neighbors = build_neighbor_data(atoms.positions, box, config.cutoff)
    backend = GemmBackend()
    for precision in ("double", "mix-fp32", "mix-fp16"):
        output = model.evaluate(atoms, box, neighbors, precision=precision, backend=backend)
        print(f"  {precision:9s} E = {output.energy:12.6f} eV   max|F| = {np.abs(output.forces).max():.4f} eV/A")
    print(f"  GEMM calls issued: {backend.stats.calls} ({backend.stats.flops / 1e6:.1f} MFLOP)")

    # 4. short MD with the trained potential -----------------------------------
    print("Running 50 MD steps at 300 K with the Deep Potential force field...")
    atoms.initialize_velocities(300.0, rng=4)
    force_field = DeepPotentialForceField(model, precision="mix-fp32", gemm_backend=backend)
    simulation = Simulation(
        atoms, box, force_field, timestep_fs=1.0, neighbor_skin=0.5,
        thermostat=LangevinThermostat(300.0, damping_fs=100.0, rng=5),
    )
    report = simulation.run(50, sample_every=10)
    print(f"  mean temperature {report.mean_temperature:.0f} K over {report.n_steps} steps")
    print(report.timers.summary())


if __name__ == "__main__":
    main()
