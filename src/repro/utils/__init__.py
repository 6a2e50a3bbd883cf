"""Small shared utilities: RNG helpers, phase timers, ASCII tables."""

from .rng import default_rng
from .timer import PhaseTimer
from .tables import Table, format_table

__all__ = [
    "default_rng",
    "PhaseTimer",
    "Table",
    "format_table",
]
