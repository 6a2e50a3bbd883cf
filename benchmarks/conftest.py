"""Shared fixtures for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper
(see the README's "Running the tests" section).  Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the regenerated rows/series next to the timing data.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import train_water_model


@pytest.fixture(scope="session")
def trained_water_model():
    """A small trained water Deep Potential shared by Table II and Fig. 6."""
    return train_water_model(n_molecules=32, n_frames=8, n_epochs=30)
