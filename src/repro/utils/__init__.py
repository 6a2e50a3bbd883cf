"""Small shared utilities: RNG helpers, phase timers, ASCII tables, logging."""

from .rng import default_rng
from .timer import PhaseTimer, Timer
from .tables import Table, format_table
from .logging import get_logger

__all__ = [
    "default_rng",
    "PhaseTimer",
    "Timer",
    "Table",
    "format_table",
    "get_logger",
]
