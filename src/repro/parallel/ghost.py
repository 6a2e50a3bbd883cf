"""Ghost-region geometry.

Ghost atoms are copies of atoms owned by other ranks that lie within the
cutoff of a rank's sub-box.  When the sub-box side shrinks below the cutoff
(the strong-scaling limit), the ghost shell spans *multiple layers* of
neighbouring ranks — up to 124 neighbours two hops away for a
0.5 r_cut sub-box — which is the communication problem the node-based scheme
attacks.

This module provides

* :func:`layers_for_cutoff` — how many rank/node layers the ghost shell spans,
* :func:`ghost_shell_ranks` — the exact set of neighbouring domains.

The uniform-density message sizing and the closed-form ghost counts of §III-C
are model-side: :mod:`repro.perfmodel.exchange` and
:mod:`repro.perfmodel.loadbalance`.
"""

from __future__ import annotations

import numpy as np


def layers_for_cutoff(sub_box_lengths, cutoff: float) -> tuple[int, int, int]:
    """Number of neighbouring domain layers the ghost shell spans per axis."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    lengths = np.asarray(sub_box_lengths, dtype=np.float64)
    if np.any(lengths <= 0):
        raise ValueError("sub-box lengths must be positive")
    # A tolerance avoids an extra layer when cutoff is an exact multiple.
    return tuple(int(np.ceil(cutoff / l - 1.0e-9)) for l in lengths)


def ghost_shell_ranks(coord, dims, layers) -> list[tuple[int, int, int]]:
    """Distinct neighbouring domains within ``layers`` shells (torus wrap).

    The centre domain itself is excluded; wrapping can alias small grids, in
    which case the aliased neighbour is counted once (matching what an actual
    periodic decomposition communicates).
    """
    dims = tuple(int(d) for d in dims)
    lx, ly, lz = (int(l) for l in layers)
    seen = set()
    out: list[tuple[int, int, int]] = []
    centre = tuple(int(c) % d for c, d in zip(coord, dims))
    for dx in range(-lx, lx + 1):
        for dy in range(-ly, ly + 1):
            for dz in range(-lz, lz + 1):
                if dx == 0 and dy == 0 and dz == 0:
                    continue
                wrapped = tuple((c + o) % d for c, o, d in zip(centre, (dx, dy, dz), dims))
                if wrapped == centre:
                    continue
                if wrapped not in seen:
                    seen.add(wrapped)
                    out.append(wrapped)
    return out
