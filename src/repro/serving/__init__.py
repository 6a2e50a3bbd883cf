"""Throughput serving for many small independent systems (PR 9).

The paper's headline is time-to-solution for one huge system; this package
covers the complementary regime — screening/active-learning style workloads
made of thousands of *small* systems — by batching independent requests
through the same stacked kernels.  See :mod:`repro.serving.batch` for the
cross-system packing, :mod:`repro.serving.engine` for work-conserving admission and the serving thread,
and :mod:`repro.serving.serial` for the frozen one-at-a-time references.
"""

from .batch import SystemBatch, pack_systems, prepare_system
from .engine import ServingEngine
from .queue import AdmissionQueue, BurstResult, ServingRequest, ServingStats
from .serial import evaluate_serial, run_bursts_serial

__all__ = [
    "SystemBatch",
    "pack_systems",
    "prepare_system",
    "ServingEngine",
    "AdmissionQueue",
    "BurstResult",
    "ServingRequest",
    "ServingStats",
    "evaluate_serial",
    "run_bursts_serial",
]
