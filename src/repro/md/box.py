"""Orthorhombic periodic simulation cell."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """An orthorhombic box with optional periodicity per axis.

    Lengths are in angstrom.  The box origin is at zero: fractional
    coordinates are ``positions / lengths``.
    """

    lengths: np.ndarray
    periodic: tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=np.float64).reshape(3)
        periodic = tuple(bool(p) for p in self.periodic)
        for axis in range(3):
            # an open axis may be infinite; a periodic one wraps by its length
            if np.isnan(lengths[axis]) or (periodic[axis] and np.isinf(lengths[axis])):
                kind = "periodic" if periodic[axis] else "open"
                raise ValueError(
                    f"box length along {'xyz'[axis]} ({kind}) must be finite: {float(lengths[axis])!r}"
                )
        if np.any(lengths <= 0.0):
            raise ValueError("box lengths must be positive")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "periodic", periodic)

    @staticmethod
    def cubic(length: float, periodic: bool = True) -> "Box":
        return Box(np.full(3, float(length)), (periodic,) * 3)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def wrap(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Wrap positions back into the primary cell (periodic axes only).

        With ``out`` (which may alias ``positions``) the result is written in
        place instead of into a fresh copy; the arithmetic is identical.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if out is None:
            wrapped = positions.copy()
        else:
            wrapped = out
            if wrapped is not positions:
                np.copyto(wrapped, positions)
        for axis in range(3):
            if self.periodic[axis]:
                length = self.lengths[axis]
                values = np.mod(wrapped[..., axis], length)
                # np.mod can return exactly `length` for tiny negative inputs;
                # fold that edge case back to 0 so results stay in [0, length).
                values = np.where(values >= length, values - length, values)
                wrapped[..., axis] = values
        return wrapped

    def minimum_image(self, displacements: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors."""
        displacements = np.asarray(displacements, dtype=np.float64)
        result = displacements.copy()
        for axis in range(3):
            if self.periodic[axis]:
                length = self.lengths[axis]
                result[..., axis] -= length * np.round(result[..., axis] / length)
        return result

    def max_cutoff(self) -> float:
        """Largest cutoff compatible with the minimum-image convention."""
        periodic_lengths = [
            self.lengths[i] for i in range(3) if self.periodic[i]
        ]
        if not periodic_lengths:
            return np.inf
        return 0.5 * float(min(periodic_lengths))
