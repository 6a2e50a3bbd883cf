"""Strong-scaling helpers (Fig. 11)."""

from __future__ import annotations

from typing import Sequence

from ..utils.tables import Table


def parallel_efficiency(ns_day: Sequence[float], nodes: Sequence[int]) -> list[float]:
    """Efficiency relative to the smallest node count (the paper's convention).

    efficiency(N) = (ns_day(N) / ns_day(N0)) / (N / N0)
    """
    if len(ns_day) != len(nodes):
        raise ValueError("ns/day and node lists must have the same length")
    if not ns_day:
        return []
    pairs = sorted(zip(nodes, ns_day))
    base_nodes, base_perf = pairs[0]
    if base_perf <= 0 or base_nodes <= 0:
        raise ValueError("baseline performance and node count must be positive")
    return [(perf / base_perf) / (n / base_nodes) for n, perf in zip(nodes, ns_day)]


def scaling_table(
    nodes: Sequence[int],
    ns_day: Sequence[float],
    system: str,
    baseline_ns_day: float | None = None,
) -> Table:
    """The Fig. 11 series as a printable table."""
    eff = parallel_efficiency(ns_day, nodes)
    headers = ["system", "nodes", "cores", "ns/day", "parallel efficiency %"]
    if baseline_ns_day is not None:
        headers.append("speedup vs baseline")
    table = Table(headers=headers, title=f"Strong scaling — {system}")
    for i, (n, perf) in enumerate(zip(nodes, ns_day)):
        row = [system, n, n * 48, perf, 100.0 * eff[i]]
        if baseline_ns_day is not None:
            row.append(perf / baseline_ns_day)
        table.add_row(*row)
    return table
