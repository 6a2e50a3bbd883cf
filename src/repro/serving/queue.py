"""Request admission for the serving engine.

The queue side of :mod:`repro.serving.engine`: clients submit
:class:`ServingRequest` objects and block on standard-library
:class:`concurrent.futures.Future` handles.  The engine's serving thread
pulls *batches* out via :meth:`AdmissionQueue.admit`.  A request cancelled
while queued is dropped at admission; an admitted one can no longer be
cancelled.

Admission is work-conserving (the continuous-batching rule of Orca, Yu et
al., OSDI'22): ``admit`` blocks only while nothing is pending, and then
returns at once with the longest prefix of pending requests that share a
kind, up to ``max_batch_size`` (``"energy"`` one-shots and ``"md"`` bursts
batch separately because they run different compute stages).  No request
is held back to wait for company: batches form from the requests that
arrive while the previous batch computes, so a lone request is served as
soon as the serving thread is free, and under load the batch width grows
with the backlog, which is where the fused kernels earn their throughput.

:class:`ServingStats` accounts per-request latency splits (queue wait vs.
service) and per-batch widths in fixed memory: the means are running sums,
and the percentiles come out of ``np.percentile`` over the last
:data:`LATENCY_WINDOW` requests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

#: Requests whose total latency :class:`ServingStats` keeps for its p50/p99.
LATENCY_WINDOW = 4096

__all__ = [
    "ServingRequest",
    "AdmissionQueue",
    "ServingStats",
    "BurstResult",
]


@dataclass
class ServingRequest:
    """One client request: an energy/force one-shot or a short MD burst."""

    kind: str  # "energy" | "md"
    atoms: object
    box: object
    n_steps: int = 0
    timestep_fs: float = 0.0
    future: Future = field(default_factory=Future, init=False)
    t_submit: float = field(default=0.0, init=False)
    t_admit: float = field(default=0.0, init=False)


@dataclass
class BurstResult:
    """Final state of one MD burst request.

    ``energies`` holds the potential energy after each step's force
    evaluation, matching the serial reference trace of
    :func:`repro.serving.serial.run_bursts_serial`.
    """

    atoms: object
    energies: np.ndarray
    n_steps: int


class AdmissionQueue:
    """Pending-request buffer that admits whatever is pending, up to a batch size."""

    def __init__(self, max_batch_size: int = 32) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self._pending: deque[ServingRequest] = deque()
        self._cond = threading.Condition(threading.Lock())
        self._closed = False

    def submit(self, request: ServingRequest) -> Future:
        request.t_submit = time.perf_counter()
        with self._cond:
            if self._closed:
                raise RuntimeError("admission queue is closed")
            self._pending.append(request)
            self._cond.notify_all()
        return request.future

    def close(self) -> None:
        """Stop accepting submissions; pending requests stay admittable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def admit(self) -> list[ServingRequest] | None:
        """The pending same-kind prefix, up to ``max_batch_size`` requests.

        Blocks until a request is pending, then returns at once; returns
        ``None`` once the queue is closed *and* drained (the consumer should
        exit) — :meth:`close` wakes a blocked call.
        """
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            kind = self._pending[0].kind
            batch: list[ServingRequest] = []
            while (
                self._pending
                and len(batch) < self.max_batch_size
                and self._pending[0].kind == kind
            ):
                batch.append(self._pending.popleft())
            now = time.perf_counter()
            for request in batch:
                request.t_admit = now
            return batch


class ServingStats:
    """Latency and batch-width accounting across a serving run, in fixed memory.

    The mean latencies and the mean batch width are exact over the whole
    run (running sums); p50/p99 cover the last :data:`LATENCY_WINDOW`
    requests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recent_total_s: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._wait_sum_s = 0.0
        self._service_sum_s = 0.0
        self._total_sum_s = 0.0
        self.n_requests = 0
        self.n_batches = 0

    def record_batch(self, requests, t_done: float) -> None:
        with self._lock:
            self.n_batches += 1
            for request in requests:
                self.n_requests += 1
                total = t_done - request.t_submit
                self._wait_sum_s += request.t_admit - request.t_submit
                self._service_sum_s += t_done - request.t_admit
                self._total_sum_s += total
                self._recent_total_s.append(total)

    def latency_ms(self) -> dict:
        """p50/p99 over the recent window, run-long mean total latency and wait/service split means."""
        with self._lock:
            if not self.n_requests:
                return {"p50": 0.0, "p99": 0.0, "mean": 0.0, "wait_mean": 0.0, "service_mean": 0.0}
            recent = np.asarray(self._recent_total_s)
            n = self.n_requests
            return {
                "p50": float(np.percentile(recent, 50)) * 1e3,
                "p99": float(np.percentile(recent, 99)) * 1e3,
                "mean": self._total_sum_s / n * 1e3,
                "wait_mean": self._wait_sum_s / n * 1e3,
                "service_mean": self._service_sum_s / n * 1e3,
            }

    def mean_batch_size(self) -> float:
        """Mean requests per batch: every recorded request belongs to one batch."""
        with self._lock:
            if not self.n_batches:
                return 0.0
            return self.n_requests / self.n_batches
