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


def test_table_roundtrip_and_column():
    table = Table(headers=["a", "b"], title="t")
    table.add_row(1, 2.5)
    table.add_row(3, 4.5)
    assert len(table) == 2
    assert table.column("b") == [2.5, 4.5]
    text = table.to_text()
    assert "a" in text and "4.5" in text
    records = table.to_records()
    assert records[0] == {"a": 1, "b": 2.5}


def test_table_row_length_validation():
    table = Table(headers=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)
    with pytest.raises(KeyError):
        table.column("missing")


def test_format_table_mismatched_row_raises():
    with pytest.raises(ValueError):
        format_table(["x"], [[1, 2]])
