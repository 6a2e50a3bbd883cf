"""Persistent worker dispatch.

The original DeePMD-kit parallelizes with OpenMP; every parallel region pays a
fork/join cost that becomes visible when the per-region work shrinks to a few
microseconds (one or two atoms per thread).  The optimized code keeps a
persistent thread pool whose workers spin, reducing the dispatch overhead by
roughly an order of magnitude
(:func:`repro.perfmodel.machine.threading_overhead` prices that difference).

:class:`PersistentWorkerPool` is the executable counterpart the concurrent
engine dispatches through: a fixed set of long-lived worker *processes*
(Python threads cannot run NumPy force loops concurrently under the GIL),
created once with the ``fork`` start method so workers inherit the engine
state and shared-memory mappings instead of pickling them, and driven over
duplex pipes.  Replies are always collected in worker-index order — the
fixed-order gather that keeps every cross-rank reduction bit-identical to
the sequential executor regardless of which worker finishes first.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from pathlib import Path

#: Workers *inherit* the engine state and the shared-memory mappings.
START_METHOD = "fork"


#: The cgroup v2 CPU quota file (``"<quota> <period>"`` or ``"max <period>"``).
CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
#: The cgroup v1 CFS quota and period files (a quota of -1 means none).
CGROUP_V1_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
CGROUP_V1_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def usable_cpu_count() -> int:
    """CPUs this process can actually run on, cgroup quotas included.

    The affinity mask alone over-reports inside quota-limited containers (CI
    runners typically cap CPU with the cgroup CFS quota and leave the mask at
    the host width), so take the minimum of the mask and the cgroup v2
    (``cpu.max``) or v1 (``cpu.cfs_quota_us`` / ``cpu.cfs_period_us``) quota,
    when one is set, never below one CPU.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    try:  # cgroup v2
        quota, period = Path(CGROUP_V2_CPU_MAX).read_text().split()[:2]
        if quota != "max":
            cores = min(cores, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        try:  # cgroup v1
            quota = int(Path(CGROUP_V1_CFS_QUOTA).read_text())
            if quota > 0:
                cores = min(cores, max(1, quota // int(Path(CGROUP_V1_CFS_PERIOD).read_text())))
        except (OSError, ValueError):
            pass
    return cores


class WorkerError(RuntimeError):
    """A worker process raised; carries the remote traceback text."""


class PersistentWorkerPool:
    """A fixed set of daemon worker processes driven over duplex pipes.

    ``target(conn, *args)`` is spawned once per entry of ``per_worker_args``
    and must loop on ``conn.recv()``, replying ``("ok", payload)`` per
    request, ``("error", traceback_text)`` on failure, and exiting when it
    receives ``("stop",)``.  The pool never re-spawns: like the paper's
    spinning thread pool, dispatch cost is one pipe round-trip, not a
    process/region start.
    """

    def __init__(self, target, per_worker_args) -> None:
        if START_METHOD not in mp.get_all_start_methods():
            raise RuntimeError(
                f"start method {START_METHOD!r} unavailable; the persistent pool "
                "relies on fork inheritance (no pickling of engine state)"
            )
        ctx = mp.get_context(START_METHOD)
        self._conns = []
        self._procs = []
        self._closed = False
        for args in per_worker_args:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=target, args=(child_conn, *args), daemon=True)
            proc.start()
            child_conn.close()  # the worker holds the only surviving end
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def broadcast(self, messages) -> list:
        """Send one request per worker, then gather replies in worker order.

        ``messages`` is either a single message sent to every worker or a
        list with one message per worker.  All sends complete before any
        receive, so workers run concurrently; the receive order (and hence
        any reduction the caller performs over the replies) is fixed.
        """
        if not isinstance(messages, list):
            messages = [messages] * self.n_workers
        if len(messages) != self.n_workers:
            raise ValueError(f"expected {self.n_workers} messages, got {len(messages)}")
        for index, (conn, message) in enumerate(zip(self._conns, messages)):
            try:
                conn.send(message)
            except OSError as exc:  # BrokenPipeError: the worker's end is gone
                raise WorkerError(f"worker {index} died between requests: {exc!r}") from None
        return [self._receive(index) for index in range(self.n_workers)]

    def _receive(self, index: int):
        try:
            status, payload = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(f"worker {index} died mid-request: {exc!r}") from None
        if status == "error":
            raise WorkerError(f"worker {index} raised:\n{payload}")
        return payload

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; joins politely, terminates stragglers."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def worker_reply(conn, handler, message) -> bool:
    """One step of the worker-side protocol loop; returns False on stop.

    Runs ``handler(message)`` and ships ``("ok", result)`` back, or the
    formatted traceback as ``("error", text)`` so the parent's
    :class:`WorkerError` shows where the remote code failed.
    """
    if message[0] == "stop":
        return False
    try:
        conn.send(("ok", handler(message)))
    except Exception:  # noqa: BLE001 - the traceback crosses the pipe
        conn.send(("error", traceback.format_exc()))
    return True
