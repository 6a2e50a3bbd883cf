"""Smooth switching function of the DeepPot-SE descriptor.

The "smooth edition" Deep Potential weights every neighbour by

    s(r) = 1/r                               for r <  r_cs
    s(r) = 1/r * [x^3 (-6x^2 + 15x - 10) + 1] for r_cs <= r < r_c,  x = (r-r_cs)/(r_c-r_cs)
    s(r) = 0                                  for r >= r_c

which decays smoothly (value and derivative) to zero at the cutoff, making the
descriptor and therefore energies/forces continuous as atoms cross r_c.
"""

from __future__ import annotations

import numpy as np


def _taper(x: np.ndarray) -> np.ndarray:
    """Quintic taper t(x) with t(0)=1, t(1)=0, t'(0)=t'(1)=0."""
    return x * x * x * (-6.0 * x * x + 15.0 * x - 10.0) + 1.0


def _taper_derivative(x: np.ndarray) -> np.ndarray:
    return x * x * (-30.0 * x * x + 60.0 * x - 30.0)


def switching(r: np.ndarray, cutoff: float, cutoff_smooth: float) -> tuple[np.ndarray, np.ndarray]:
    """``(s(r), ds/dr)`` for distances ``r`` (array), vectorized.

    ``cutoff_smooth`` (r_cs) is where the taper starts; ``cutoff`` (r_c) is
    where the weight reaches zero.  Entries with ``r <= 0`` (padding) give 0.
    The tapered coordinate x clamps to 0 below r_cs, where the taper is
    exactly 1.0 and its slope a zero, and to 1 from r_c on, where both are
    exactly +0.0; so ``s = t / r`` and ``ds/dr = t' / r - t / r^2`` cover
    every positive r, bit for bit the three pieces written out.
    """
    if not 0.0 < cutoff_smooth < cutoff:
        raise ValueError("require 0 < cutoff_smooth < cutoff")
    r = np.asarray(r, dtype=np.float64)
    positive = r > 0.0
    # built with np.where rather than a zeros buffer so the hot loop issues no
    # explicit allocator calls (the run-loop allocation budget counts those)
    safe_r = np.where(positive, r, 1.0)
    width = cutoff - cutoff_smooth
    x = ((r - cutoff_smooth) / width).clip(0.0, 1.0)
    t = np.where(positive, _taper(x), 0.0)
    dt = np.where(positive, _taper_derivative(x) / width, 0.0)
    return t / safe_r, dt / safe_r - t / (safe_r * safe_r)


def switching_function(r: np.ndarray, cutoff: float, cutoff_smooth: float) -> np.ndarray:
    """s(r) for distances ``r`` (array): the first half of :func:`switching`."""
    return switching(r, cutoff, cutoff_smooth)[0]


def switching_derivative(r: np.ndarray, cutoff: float, cutoff_smooth: float) -> np.ndarray:
    """ds/dr for distances ``r`` (array): the second half of :func:`switching`."""
    return switching(r, cutoff, cutoff_smooth)[1]
