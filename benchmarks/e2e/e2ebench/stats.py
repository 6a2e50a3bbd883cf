"""Medians and quartiles (no numpy: the parent process uses these too)."""

from __future__ import annotations

import statistics
import time


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values, value: float | None = None) -> dict:
    """A metric record: the median (or ``value``) with its quartile spread."""
    q1, median, q3 = quartiles(values)
    return {"value": median if value is None else float(value), "q1": q1, "q3": q3, "n": len(values)}


def median_ms(fn, repeats: int) -> float:
    """Median wall-clock milliseconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3
