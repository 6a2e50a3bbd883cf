"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file here gates one measured speed or memory budget
(steps/sec, throughput, allocation counts, tracemalloc peaks) or, for
Table II and Fig. 6, regenerates one of the paper's physics results on a
small trained water model; ``allocations.py`` holds the allocation counter
the budgets share.  The paper's modelled figures and tables (Figs. 7-11,
Tables I and III, the abstract's claims) are checked and printed by
``tests/test_paper_figures.py`` in tier-1, not here.  Run a file with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_run_loop.py

The ``-s`` flag shows the measured numbers next to their gates.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import train_water_model


@pytest.fixture(scope="session")
def trained_water_model():
    """A small trained water Deep Potential shared by Table II and Fig. 6."""
    return train_water_model(n_molecules=32, n_frames=8, n_epochs=30)
