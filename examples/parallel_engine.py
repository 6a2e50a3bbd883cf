"""Domain-decomposed MD: run real dynamics across simulated ranks.

This demonstrates the executable counterpart of the paper's parallel runtime:

1. build a water box and run the serial reference ``Simulation``,
2. run the *same* dynamics with ``DomainDecomposedSimulation`` on a 2x2x2
   rank grid (ghost exchange, reverse force scatter, atom migration),
3. verify the trajectories agree to ~1e-10 (the cross-rank parity contract),
4. read the measured per-rank load balance and ghost-exchange volumes, and
5. price the measured exchange on the Fugaku communication model.

Run:  PYTHONPATH=src python examples/parallel_engine.py
"""

from __future__ import annotations

import numpy as np

from repro.md import Simulation, water_system
from repro.md.forcefields.water import WaterReference
from repro.parallel import DomainDecomposedSimulation
from repro.perfmodel import exchange_time, modelled_plan, plan_with_measured_volume

N_MOLECULES = 96
N_STEPS = 25


def main() -> None:
    atoms, box, topology = water_system(N_MOLECULES, rng=0, jitter=0.3)
    atoms.initialize_velocities(400.0, rng=1)
    make_ff = lambda: WaterReference(topology, cutoff=4.0)  # noqa: E731
    params = dict(timestep_fs=0.5, neighbor_skin=0.5, neighbor_every=5)

    # 1. serial reference -----------------------------------------------------
    print(f"Water box: {len(atoms)} atoms, L = {box.lengths[0]:.2f} A")
    serial = Simulation(atoms.copy(), box, make_ff(), **params)
    serial.run(N_STEPS)

    # 2. the same dynamics over 8 simulated ranks -----------------------------
    engine = DomainDecomposedSimulation(
        atoms.copy(), box, make_ff(), rank_dims=(2, 2, 2), scheme="p2p", **params
    )
    report = engine.run(N_STEPS)

    # 3. cross-rank parity ----------------------------------------------------
    gathered = engine.gather()
    drift = np.abs(gathered.positions - serial.atoms.positions).max()
    print(f"\n2x2x2 engine vs serial after {N_STEPS} steps:")
    print(f"  max position deviation : {drift:.3e} A")
    print(f"  neighbour rebuilds     : {report.neighbor_builds} (serial: {serial.neighbor_list.n_builds})")
    print(f"  atoms migrated         : {engine.n_migrated}")
    print("\nPer-phase timers (note the comm phase):")
    print(engine.timers.summary())

    # 4. measured statistics --------------------------------------------------
    balance = engine.load_balance_stats()
    print("\nMeasured per-rank load balance:")
    print(f"  atoms  : {balance.atom_stats().summary()}")
    print(f"  ghosts : {engine.ghost_stats().summary()}")
    volume = engine.measured_comm_volume()
    print(f"  ghost exchange: {volume['mean_ghosts_per_rank']:.1f} atoms/rank/exchange "
          f"over {volume['exchanges']} exchanges")

    # 5. price the measured exchange on the machine model ---------------------
    plan = modelled_plan(engine, "p2p-utofu")
    scaled = plan_with_measured_volume(plan, volume["forward_bytes_per_rank"])
    print("\nFugaku-model exchange time for this decomposition:")
    print(f"  modelled volume : {exchange_time(plan) * 1e6:8.2f} us/step")
    print(f"  measured volume : {exchange_time(scaled) * 1e6:8.2f} us/step")


if __name__ == "__main__":
    main()
