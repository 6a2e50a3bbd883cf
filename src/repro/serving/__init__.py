"""Throughput serving for many small independent systems (PR 9).

The paper's headline is time-to-solution for one huge system; this package
covers the complementary regime — screening/active-learning style workloads
made of thousands of *small* systems — by batching independent requests
through the same stacked kernels.  See :mod:`repro.serving.batch` for the
cross-system packing, :mod:`repro.serving.engine` for work-conserving admission and the serving thread,
and :mod:`repro.serving.serial` for the frozen one-at-a-time references.
"""

from .batch import pack_systems, prepare_system
from .engine import ServingEngine
from .queue import ServingStats
from .serial import evaluate_serial

__all__ = [
    "pack_systems",
    "prepare_system",
    "ServingEngine",
    "ServingStats",
    "evaluate_serial",
]
