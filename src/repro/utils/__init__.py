"""Small shared utilities: RNG helpers, phase timers, ASCII tables."""

from .rng import default_rng
from .timer import PhaseTimer, Timer
from .tables import Table, format_table

__all__ = [
    "default_rng",
    "PhaseTimer",
    "Timer",
    "Table",
    "format_table",
]
