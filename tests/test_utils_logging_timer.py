"""Timer and PhaseTimer snapshot conventions.

``SimulationReport.phase_seconds`` is built from
``PhaseTimer.snapshot()`` + ``totals_since()`` — these tests pin the
conventions that contract depends on: snapshots are frozen copies,
deltas are per-run (not cumulative), and zero-delta phases are dropped.
"""

import pytest

from repro.utils.timer import PhaseTimer, Timer


# ---------------------------------------------------------------------------
# Timer
# ---------------------------------------------------------------------------


def test_timer_context_manager_accumulates_and_clears_start():
    timer = Timer()
    with timer:
        pass
    first = timer.elapsed
    assert first > 0.0
    assert timer._start is None
    with timer:
        pass
    assert timer.elapsed > first  # accumulates across uses


def test_timer_stop_returns_the_delta_not_the_total():
    timer = Timer()
    timer.start()
    first = timer.stop()
    timer.start()
    second = timer.stop()
    assert timer.elapsed == pytest.approx(first + second)


def test_timer_reset_clears_elapsed_and_pending_start():
    timer = Timer()
    timer.start()
    timer.reset()
    assert timer.elapsed == 0.0
    with pytest.raises(RuntimeError):
        timer.stop()


# ---------------------------------------------------------------------------
# PhaseTimer snapshot / totals_since — the SimulationReport contract
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


def test_merge_leaves_operands_untouched():
    a = PhaseTimer()
    a.add("pair", 1.0)
    b = PhaseTimer()
    b.add("pair", 2.0)
    b.add("comm", 0.5)
    merged = a.merge(b)
    assert merged.totals == pytest.approx({"pair": 3.0, "comm": 0.5})
    assert merged.counts == {"pair": 2, "comm": 1}
    assert a.totals == {"pair": 1.0}
    assert b.totals == pytest.approx({"pair": 2.0, "comm": 0.5})

