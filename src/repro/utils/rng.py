"""Seeded random number generator helpers.

All stochastic components of the package (velocity initialization, thermostat
noise, network initialization, workload jitter) accept either an integer seed
or a ``numpy.random.Generator``.  These helpers normalize that choice so that
experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def default_rng(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    ``seed`` may be ``None`` (non-deterministic), an integer, or an existing
    generator (returned unchanged so RNG state can be threaded through call
    chains without re-seeding).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def glorot_uniform(shape: tuple[int, ...], rng=None) -> np.ndarray:
    """Glorot/Xavier uniform initialization (tanh-friendly, used by DeePMD) —
    the one definition, for the framework layers and the frozen kernels alike."""
    rng = default_rng(rng)
    fan_in, fan_out = shape[0], shape[1] if len(shape) > 1 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
