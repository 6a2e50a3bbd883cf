"""Utilities: RNG helpers, timers, tables."""

import numpy as np
import pytest

from repro.utils.rng import default_rng, glorot_uniform
from repro.utils.tables import Table, format_table
from repro.utils.timer import PhaseTimer


def test_default_rng_passthrough():
    rng = np.random.default_rng(0)
    assert default_rng(rng) is rng


def test_default_rng_seed_reproducible():
    a = default_rng(42).random(5)
    b = default_rng(42).random(5)
    np.testing.assert_allclose(a, b)


def test_glorot_uniform_shape_and_range():
    w = glorot_uniform((10, 20), rng=0)
    assert w.shape == (10, 20)
    assert np.abs(w).max() <= np.sqrt(6.0 / 30.0) + 1e-12


def test_phase_timer_fractions_sum_to_one():
    timers = PhaseTimer()
    timers.add("pair", 3.0)
    timers.add("comm", 1.0)
    assert timers.total() == pytest.approx(4.0)
    assert timers.fraction("pair") == pytest.approx(0.75)
    assert "pair" in timers.summary()


def test_table_roundtrip():
    table = Table(headers=["a", "b"], title="t")
    table.add_row(1, 2.5)
    table.add_row(3, 4.5)
    assert len(table) == 2
    text = table.to_text()
    assert "a" in text and "4.5" in text
    records = table.to_records()
    assert records == [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]


def test_table_row_length_validation():
    table = Table(headers=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_format_table_mismatched_row_raises():
    with pytest.raises(ValueError):
        format_table(["x"], [[1, 2]])


# ---------------------------------------------------------------------------
# PhaseTimer snapshot / totals_since — the SimulationReport contract:
# ``SimulationReport.phase_seconds`` is built from ``PhaseTimer.snapshot()``
# + ``totals_since()``, so snapshots are frozen copies, deltas are per-run
# (not cumulative), and zero-delta phases are dropped.
# ---------------------------------------------------------------------------


def test_snapshot_is_a_frozen_copy():
    timers = PhaseTimer()
    timers.add("pair", 1.0)
    snap = timers.snapshot()
    timers.add("pair", 2.0)
    assert snap == {"pair": 1.0}
    assert timers.totals["pair"] == pytest.approx(3.0)


def test_totals_since_reports_only_the_delta():
    timers = PhaseTimer()
    timers.add("pair", 1.0)
    timers.add("neigh", 0.5)
    snap = timers.snapshot()
    timers.add("pair", 2.0)
    timers.add("comm", 0.25)
    delta = timers.totals_since(snap)
    assert delta == pytest.approx({"pair": 2.0, "comm": 0.25})


def test_totals_since_drops_zero_delta_phases():
    timers = PhaseTimer()
    timers.add("pair", 1.0)
    snap = timers.snapshot()
    # "pair" saw no time since the snapshot: it must not appear at all,
    # so report consumers never print 0.000-second phase rows
    assert timers.totals_since(snap) == {}


def test_totals_since_empty_snapshot_equals_totals():
    timers = PhaseTimer()
    timers.add("pair", 1.5)
    assert timers.totals_since({}) == pytest.approx(timers.totals)


def test_phase_context_manager_records_time_and_count():
    timers = PhaseTimer()
    with timers.phase("integrate"):
        pass
    with timers.phase("integrate"):
        pass
    assert timers.totals["integrate"] > 0.0
    assert timers.counts["integrate"] == 2


def test_phase_records_even_when_the_body_raises():
    timers = PhaseTimer()
    with pytest.raises(ValueError):
        with timers.phase("pair"):
            raise ValueError("boom")
    assert timers.totals["pair"] >= 0.0
    assert timers.counts["pair"] == 1


def test_fraction_and_reset():
    timers = PhaseTimer()
    assert timers.fraction("pair") == 0.0  # no time at all: no division
    timers.add("pair", 3.0)
    timers.add("neigh", 1.0)
    assert timers.fraction("pair") == pytest.approx(0.75)
    assert timers.fraction("absent") == 0.0
    timers.reset()
    assert timers.totals == {} and timers.counts == {}


def test_summary_sorted_by_descending_time_with_total_row():
    timers = PhaseTimer()
    timers.add("neigh", 1.0)
    timers.add("pair", 3.0)
    lines = timers.summary().splitlines()
    assert lines[0].split() == ["phase", "seconds", "%"]
    assert lines[1].startswith("pair")
    assert lines[2].startswith("neigh")
    assert lines[-1].startswith("total")
    assert "100.00%" in lines[-1]


def test_summary_of_empty_timer_shows_zero_total():
    lines = PhaseTimer().summary().splitlines()
    assert lines[-1].split()[0] == "total"
    assert "0.00%" in lines[-1]
