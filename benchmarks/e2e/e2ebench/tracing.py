"""In-memory spans recorded from the benchmark's own files.

A span is ``{id, parent, name, workload, t0, t1}``; ``parent`` is the span
that was open when this one started (``None`` at the top).  Spans stay in
memory for the whole traced pass and are written out once, at the end.  A
layer's *self time* is its span's duration minus the part covered by its
direct children.  Only the workload's driving thread records (served
requests are stamped by that thread as it collects them).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans for one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._spans: list[dict] = []
        self._open: list[int] = []

    def _new(self, name: str, t0: float, t1: float | None) -> dict:
        span = {
            "id": len(self._spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "t0": t0,
            "t1": t1,
        }
        self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._new(name, time.perf_counter(), None)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["t1"] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span whose ends were stamped elsewhere (e.g. a served request)."""
        self._new(name, t0, t1)

    # -- views -----------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed seconds of every closed span called ``name``."""
        return sum(s["t1"] - s["t0"] for s in self._spans if s["name"] == name and s["t1"] is not None)

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        wanted = {s["id"] for s in self._spans if s["name"] == name}
        covered = sum(
            s["t1"] - s["t0"]
            for s in self._spans
            if s["parent"] in wanted and s["t1"] is not None
        )
        return self.total(name) - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        closed = [s for s in self._spans if s["t1"] is not None]
        path.write_text(json.dumps({"workload": self.workload, "spans": closed}))
