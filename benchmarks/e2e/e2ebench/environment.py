"""The fixed measurement environment: core budget, BLAS pinning, provenance."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: Every BLAS/OpenMP pool is pinned to one thread in the workload subprocess,
#: so the only parallelism measured is the program's own (rank workers,
#: serving threads) — never the linear-algebra library's.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The harness never uses more workers/threads of its own than this.
MAX_WORKERS = 2

REPO_ROOT = Path(__file__).resolve().parents[3]
#: Result and trace files land here (ignored by git).
OUT_DIR = Path(__file__).resolve().parents[1] / "out"


def pinned_env(base: dict | None = None) -> dict:
    """A copy of ``base`` (default: this process's environment) with BLAS pinned."""
    env = dict(os.environ if base is None else base)
    for name in PIN_VARS:
        env[name] = "1"
    return env


def visible_cores() -> int:
    """CPU cores this process can actually run on: affinity ∩ cgroup quota.

    ``sched_getaffinity`` alone over-reports inside quota-limited containers
    (the CFS quota caps CPU time while the affinity mask stays at host
    width), so the minimum of the mask and the cgroup v2 (``cpu.max``) or v1
    (``cpu.cfs_quota_us`` / ``cpu.cfs_period_us``) quota is taken.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    try:  # cgroup v2
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
        if quota != "max":
            cores = min(cores, max(1, int(int(quota) / int(period))))
    except (OSError, ValueError):
        try:  # cgroup v1
            quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if quota > 0:
                cores = min(cores, max(1, quota // period))
        except (OSError, ValueError):
            pass
    return cores


def pin_to_one_cpu() -> None:
    """Pin this process, and all it forks or starts, to one CPU.

    Every hand-off inside a workload — parent <-> rank worker over a pipe,
    client -> prep -> compute thread in the serving engine — is then a context
    switch on a busy CPU.  Spread over the vCPUs of a shared host it is a
    wake-up of a halted vCPU, whose latency is the host's: ``lj_ranks``, same
    code, ran at 52 steps/s for four minutes between sets at 83.  The highest
    CPU is taken because interrupts and the caller tend to sit on CPU 0.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except AttributeError:  # not Linux: nothing to pin with
        pass


def worker_budget() -> int:
    """Workers the ranked workloads may fork: ``min(2, visible cores)`` —
    one, wherever :func:`pin_to_one_cpu` could pin."""
    return min(MAX_WORKERS, visible_cores())


def require_pinned_blas() -> None:
    """Refuse to measure unless the BLAS pools really are single-threaded.

    Must run in the workload subprocess *before* the first ``import numpy``:
    the variables are only read when the library loads.  After the import a
    matrix product is issued and the process's thread count is checked — an
    unpinned OpenBLAS spawns its pool at load time, which shows up here.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS pinning check must run before numpy is imported")
    unpinned = [name for name in PIN_VARS if os.environ.get(name) != "1"]
    if unpinned:
        raise RuntimeError(f"BLAS threads not pinned: {', '.join(unpinned)} must be '1'")
    import numpy as np

    a = np.ones((64, 64))
    (a @ a).sum()
    try:
        n_threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the environment variables are all we can check
        return
    if n_threads != 1:
        raise RuntimeError(
            f"BLAS threads could not be pinned: {n_threads} threads alive after a "
            "matrix product with every *_NUM_THREADS=1"
        )


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def describe() -> dict:
    """Provenance recorded next to every result (call after numpy is loaded)."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in PIN_VARS},
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "visible_cores": visible_cores(),
        "worker_budget": worker_budget(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }
