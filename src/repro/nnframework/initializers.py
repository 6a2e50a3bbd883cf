"""Weight initializers for the mini framework layers."""

from __future__ import annotations

import numpy as np

from ..utils.rng import default_rng, glorot_uniform  # noqa: F401 - the Glorot draw is defined once, in utils.rng


def he_normal(shape: tuple[int, ...], rng=None) -> np.ndarray:
    """He normal initialization (ReLU-friendly)."""
    rng = default_rng(rng)
    fan_in = shape[0]
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: tuple[int, ...], rng=None) -> np.ndarray:
    return np.zeros(shape)


def constant(value: float):
    """Return an initializer producing a constant-filled array."""

    def _init(shape: tuple[int, ...], rng=None) -> np.ndarray:
        return np.full(shape, float(value))

    return _init
