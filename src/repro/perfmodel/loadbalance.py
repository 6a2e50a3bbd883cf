"""Intra-node load balance (§III-C, Table III, Fig. 10).

In the strong-scaling limit each rank's sub-box holds only a dozen atoms, so
counting noise alone makes some ranks twice as loaded as others; because the
Deep Potential evaluates atoms one by one, the slowest rank paces the step.
The paper's remedy: treat the four sub-boxes of a node as one *node-box*,
give every rank of the node an identical copy of the node-box atoms (local +
ghost), and split the evaluation evenly.

The functions here count both organizations on real atom coordinates of a
:class:`~repro.parallel.decomposition.SpatialDecomposition` and report the
statistics the paper tabulates (min/avg/max atom counts, SDMR, modelled pair
times, :func:`balance_comparison`); the engine *executes* the balanced one
under ``node_balance=True`` and reports the same
:class:`~repro.parallel.decomposition.LoadBalanceStats` with measured times.
The closed-form ghost counts of eqs. (1) and (2) quantify what the node-box
copy costs in memory.
"""

from __future__ import annotations

import numpy as np

from ..parallel.decomposition import LoadBalanceStats, SpatialDecomposition, even_shares, sdmr_percent
from ..utils.rng import default_rng


#: Lower clamp on the multiplicative pair-time jitter.  The Gaussian noise of
#: :func:`pair_time_model` is unbounded, so a large ``jitter_fraction`` could
#: draw a negative multiplier and emit a *negative* per-rank pair time, which
#: corrupts the SDMR statistics (std/mean with a near-zero mean).  A rank can
#: be arbitrarily lucky but never takes negative wall-clock time.
PAIR_TIME_NOISE_FLOOR = 0.01


def pair_time_model(
    atom_counts: np.ndarray,
    per_atom_time: float,
    jitter_fraction: float = 0.03,
    rng=None,
) -> np.ndarray:
    """Per-rank pair-phase time: atoms x per-atom cost plus small system noise.

    The atom-by-atom evaluation of DeePMD makes the pair time essentially
    linear in the local atom count; ``jitter_fraction`` adds the cache/ghost
    noise the paper mentions as secondary factors.  The noise multiplier is
    clamped at :data:`PAIR_TIME_NOISE_FLOOR` so modelled times stay positive
    for any jitter level.
    """
    if per_atom_time <= 0:
        raise ValueError("per-atom time must be positive")
    rng = default_rng(rng)
    counts = np.asarray(atom_counts, dtype=np.float64)
    if jitter_fraction > 0:
        noise = rng.normal(1.0, jitter_fraction, size=counts.shape)
        np.maximum(noise, PAIR_TIME_NOISE_FLOOR, out=noise)
    else:
        noise = 1.0
    return counts * per_atom_time * noise


def rank_counts_without_balance(decomposition: SpatialDecomposition, positions: np.ndarray) -> np.ndarray:
    """Atoms per rank as assigned by the original sub-box decomposition."""
    ranks = decomposition.assign_to_ranks(positions)
    return np.bincount(ranks, minlength=decomposition.topology.n_ranks).astype(np.int64)


def rank_counts_with_balance(decomposition: SpatialDecomposition, positions: np.ndarray) -> np.ndarray:
    """Atoms per rank after evenly splitting each node-box among its ranks.

    :func:`~repro.parallel.decomposition.even_shares` in
    ``ranks_on_node`` slot order — the very split the engine deals out
    under ``node_balance=True``.
    """
    topology = decomposition.topology
    nodes = decomposition.assign_to_nodes(positions)
    node_counts = np.bincount(nodes, minlength=topology.n_nodes)
    counts = np.zeros(topology.n_ranks, dtype=np.int64)
    for node_index, total in enumerate(node_counts):
        ranks = topology.ranks_on_node(topology.node_coord(node_index))
        counts[ranks] = even_shares(total, len(ranks))
    return counts


def balance_comparison(
    decomposition: SpatialDecomposition,
    positions: np.ndarray,
    per_atom_time: float,
    jitter_fraction: float = 0.03,
    rng=None,
) -> dict[str, LoadBalanceStats]:
    """Both organizations side by side (the Table III layout).

    The pair times of ``"no"`` are drawn from ``rng`` before those of ``"yes"``.
    """
    rng = default_rng(rng)
    no_lb_counts = rank_counts_without_balance(decomposition, positions)
    lb_counts = rank_counts_with_balance(decomposition, positions)
    return {
        "no": LoadBalanceStats(
            label="no",
            atom_counts=no_lb_counts,
            pair_times=pair_time_model(no_lb_counts, per_atom_time, jitter_fraction, rng),
        ),
        "yes": LoadBalanceStats(
            label="yes",
            atom_counts=lb_counts,
            pair_times=pair_time_model(lb_counts, per_atom_time, jitter_fraction, rng),
        ),
    }


def sdmr_reduction(decomposition: SpatialDecomposition, positions: np.ndarray) -> float:
    """Fractional reduction of the atom-count SDMR by the balance (paper: 79.7 %)."""
    before = sdmr_percent(rank_counts_without_balance(decomposition, positions))
    after = sdmr_percent(rank_counts_with_balance(decomposition, positions))
    if before == 0:
        return 0.0
    return (before - after) / before


def ghost_count_original(a: float, r: float, density: float = 1.0) -> float:
    """Equation (1): ghost atoms of one rank with sub-box side ``a`` and cutoff ``r``."""
    if a <= 0 or r <= 0:
        raise ValueError("side and cutoff must be positive")
    return density * ((a + 2.0 * r) ** 3 - a ** 3)


def ghost_count_load_balanced(a: float, r: float, density: float = 1.0) -> float:
    """Equation (2): ghost atoms per rank with the node-box (2a x 2a x a) layout."""
    if a <= 0 or r <= 0:
        raise ValueError("side and cutoff must be positive")
    return density * ((2.0 * a + 2.0 * r) * (2.0 * a + 2.0 * r) * (a + 2.0 * r) - a ** 3)
