"""Counting NumPy calls in a steady-state step: the benchmarks' allocation budgets.

:class:`AllocationCounter` monkeypatches the named ``np.*`` functions while
active and counts their calls; by default it counts the explicit array
allocators (``np.zeros``/``np.empty``/``np.ones``/``np.full`` and their
``_like`` variants).
"""

from __future__ import annotations

import numpy as np

#: The explicit NumPy array allocators a steady-state step should not call.
COUNTED_ALLOCATORS = (
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
)


class AllocationCounter:
    """Counts calls of the named ``np.*`` functions while active (default:
    the explicit array allocators)."""

    def __init__(self, names=COUNTED_ALLOCATORS) -> None:
        self.count = 0
        self._names = names
        self._originals: dict[str, object] = {}

    def __enter__(self) -> "AllocationCounter":
        for name in self._names:
            original = getattr(np, name)
            self._originals[name] = original

            def counted(*args, _original=original, **kwargs):
                self.count += 1
                return _original(*args, **kwargs)

            setattr(np, name, counted)
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._originals.items():
            setattr(np, name, original)
