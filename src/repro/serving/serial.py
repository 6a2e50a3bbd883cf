"""One-system-at-a-time serving references (golden; do not optimize).

This module is the serving counterpart of :mod:`repro.reference.scalar`: the
plainest possible request loop, frozen by its reprolint RL007 fingerprint
(see ``analysis/contracts.py``; it stays in this package only because
``benchmarks/e2e`` imports it through :mod:`repro.serving`).  :func:`evaluate_serial` answers a batch of
energy/force requests by calling :meth:`DeepPotential.evaluate` once per
system; :func:`run_bursts_serial` advances each MD burst independently with
the same first-half / forces / second-half step sequence the batched engine
uses.  The fused :mod:`repro.serving.batch` path is pinned to these loops at
1e-10 (fp64 one-shots) by ``tests/test_serving.py`` and
``benchmarks/bench_serving_throughput.py`` — which is only meaningful while
this side stays genuinely un-batched: no cross-system packing, no pooled
buffers, no segment reductions.
"""

from __future__ import annotations

from ..md.integrators import VelocityVerlet
from ..md.neighbor import build_neighbor_data

__all__ = ["evaluate_serial", "run_bursts_serial"]


def evaluate_serial(
    model,
    systems,
    precision="double",
    compressed=False,
    compression_table=None,
):
    """Evaluate ``systems`` one at a time; returns a list of ModelOutput.

    ``systems`` is a sequence of ``(atoms, box, neighbors)`` triples, exactly
    the shape :func:`repro.serving.batch.pack_systems` accepts, so both paths
    can be fed the same prepared inputs when measuring or parity-pinning.
    """
    outputs = []
    for atoms, box, neighbors in systems:
        outputs.append(
            model.evaluate(
                atoms,
                box,
                neighbors,
                precision=precision,
                compressed=compressed,
                compression_table=compression_table,
            )
        )
    return outputs


def run_bursts_serial(
    model,
    bursts,
    precision="double",
    compressed=False,
    compression_table=None,
):
    """Advance each MD burst to completion, one system at a time.

    ``bursts`` is a sequence of ``(atoms, box, n_steps, timestep_fs)``
    tuples.  Per burst: compute initial forces, then for every step run
    velocity-verlet first half, rebuild the neighbour list, recompute
    forces, run the second half — the identical sequence the batched engine
    applies in lockstep across its burst group.  Returns a list of
    ``(final_atoms, step_energies)`` pairs where ``step_energies`` holds the
    potential energy after each step's force evaluation.
    """
    results = []
    for atoms, box, n_steps, timestep_fs in bursts:
        state = atoms.copy()
        integrator = VelocityVerlet(timestep_fs)
        neighbors = build_neighbor_data(state.positions, box, model.config.cutoff)
        out = model.evaluate(
            state,
            box,
            neighbors,
            precision=precision,
            compressed=compressed,
            compression_table=compression_table,
        )
        state.forces = out.forces.copy()
        energies = []
        for _ in range(int(n_steps)):  # reprolint: allow[backend] the golden one-burst-at-a-time step sequence
            integrator.first_half(state, box)
            neighbors = build_neighbor_data(state.positions, box, model.config.cutoff)
            out = model.evaluate(
                state,
                box,
                neighbors,
                precision=precision,
                compressed=compressed,
                compression_table=compression_table,
            )
            state.forces = out.forces.copy()
            energies.append(out.energy)
            integrator.second_half(state, box)
        results.append((state, energies))
    return results
