"""Fig. 8 — RDMA memory pool vs per-neighbour registration."""

from repro.core.experiments import fig8_memory_pool


def test_fig8_memory_pool(benchmark):
    table = benchmark.pedantic(
        fig8_memory_pool,
        kwargs={"neighbor_counts": (26, 44, 60, 80, 100, 124), "iterations": 10_000},
        rounds=1,
        iterations=1,
    )
    print()
    print(table.to_text(floatfmt=".4f"))
    records = table.to_records()
    pooled = {r["neighbors"]: r["time [s]"] for r in records if r["buffers"] == "buf_pool"}
    unpooled = {r["neighbors"]: r["time [s]"] for r in records if r["buffers"] == "no_buf_pool"}

    # pooled times rise strictly with the neighbour count, at the same
    # per-message time for every count (one registered region never misses)
    counts = sorted(pooled)
    assert all(pooled[a] < pooled[b] for a, b in zip(counts, counts[1:]))
    per_message = {r["time per message [us]"] for r in records if r["buffers"] == "buf_pool"}
    assert len(per_message) == 1
    # at few neighbours the two variants coincide; beyond the NIC cache
    # capacity (~44 neighbours) the per-neighbour registration degrades
    assert unpooled[26] < 1.1 * pooled[26]
    assert unpooled[124] > 1.3 * pooled[124]
    # degradation grows with the neighbour count
    assert (unpooled[124] / pooled[124]) > (unpooled[60] / pooled[60])
