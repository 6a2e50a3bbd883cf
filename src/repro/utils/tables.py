"""ASCII table formatting used by the benchmark harnesses.

Every benchmark in ``benchmarks/`` regenerates one table or figure from the
paper; the harness prints the rows/series in plain text so the output can be
compared side-by-side with the published numbers.  ``Table`` keeps the data as
rows of Python values and renders them with aligned columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def _fmt(value: Any, floatfmt: str) -> str:
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    floatfmt: str = ".4g",
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table."""
    rendered = [[_fmt(v, floatfmt) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class Table:
    """A named table with typed rows, convertible to text or dict records."""

    headers: list[str]
    title: str | None = None
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def to_text(self, floatfmt: str = ".4g") -> str:
        return format_table(self.headers, self.rows, floatfmt=floatfmt, title=self.title)

    def to_records(self) -> list[dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
