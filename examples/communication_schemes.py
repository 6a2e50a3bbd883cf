"""Communication scenario: compare ghost-exchange schemes on the Fugaku model.

Reproduces the structure of Fig. 7 (and the Fig. 8 memory-pool study) for a
96-node copper run, and verifies on real coordinates that the node-based
exchange delivers every ghost atom the p2p pattern would (the correctness
property behind the 81 % communication reduction).

The eight Fig. 7 bars are labels of :data:`repro.perfmodel.exchange.SCHEMES`,
each planned by ``plan_exchange`` and priced by ``exchange_time``; the engine
executes only the two delivery patterns behind them, ``"p2p"`` and
``"node-based"``.

Run:  python examples/communication_schemes.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiments import fig7_comm_schemes, fig8_memory_pool
from repro.md import copper_system
from repro.parallel import GhostExchange, RankTopology, SpatialDecomposition


def main() -> None:
    print("Fig. 7 — ghost-exchange time per communication scheme (modelled):")
    print(fig7_comm_schemes().to_text(floatfmt=".3f"))

    print("\nFig. 8 — RDMA buffer pool vs per-neighbour registration (modelled):")
    print(fig8_memory_pool().to_text(floatfmt=".4f"))

    print("\nCorrectness check of the schemes on real coordinates (8 ranks, 2x2x2 nodes):")
    atoms, box = copper_system((6, 6, 6), perturbation=0.05, rng=0)
    decomposition = SpatialDecomposition(box, RankTopology((2, 2, 2)))
    exchange = GhostExchange(decomposition, cutoff=5.0)
    for rank in range(0, decomposition.topology.n_ranks, 7):
        needed = exchange.reference_ghosts(rank, atoms.positions)
        p2p = exchange.deliver("p2p", rank, atoms.positions)
        node = exchange.deliver("node-based", rank, atoms.positions)
        print(
            f"  rank {rank:2d}: p2p delivers the exact ghost set: {np.array_equal(p2p, needed)}; "
            f"node-based covers it: {np.isin(needed, node).all()} "
            f"({len(needed)} needed, {len(node)} delivered)"
        )


if __name__ == "__main__":
    main()
