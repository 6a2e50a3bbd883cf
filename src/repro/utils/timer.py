"""Wall-clock timers with LAMMPS-style per-phase accounting.

The MD engine reports a timing breakdown similar to LAMMPS' ``Pair``, ``Neigh``,
``Comm``, ``Other`` summary.  ``PhaseTimer`` accumulates seconds per named
phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseTimer:
    """Accumulates elapsed wall-clock time per named phase.

    Example
    -------
    >>> timers = PhaseTimer()
    >>> with timers.phase("pair"):
    ...     pass
    >>> "pair" in timers.totals
    True
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            delta = time.perf_counter() - start
            self.add(name, delta)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against phase ``name`` (also used by cost models)."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self) -> float:
        return sum(self.totals.values())

    def snapshot(self) -> dict[str, float]:
        """A frozen copy of the per-phase totals (for per-run deltas)."""
        return dict(self.totals)

    def totals_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-phase seconds accumulated since ``snapshot`` was taken.

        The run-loop core uses this to report each ``run`` call's own phase
        breakdown while the timer itself keeps accumulating across runs.
        """
        return {
            name: secs - snapshot.get(name, 0.0)
            for name, secs in self.totals.items()
            if secs - snapshot.get(name, 0.0) > 0.0
        }

    def fraction(self, name: str) -> float:
        tot = self.total()
        if tot == 0.0:
            return 0.0
        return self.totals.get(name, 0.0) / tot

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()

    def summary(self) -> str:
        """LAMMPS-style breakdown string sorted by descending time."""
        tot = self.total()
        lines = ["%-12s %12s %8s" % ("phase", "seconds", "%")]
        for name, secs in sorted(self.totals.items(), key=lambda kv: -kv[1]):
            pct = 100.0 * secs / tot if tot else 0.0
            lines.append("%-12s %12.6f %7.2f%%" % (name, secs, pct))
        lines.append("%-12s %12.6f %7.2f%%" % ("total", tot, 100.0 if tot else 0.0))
        return "\n".join(lines)
