"""Cross-system batching: pack many small systems into one fused evaluation.

Throughput serving traffic is dominated by *small* independent systems — a
few dozen atoms each — where one-at-a-time evaluation pays full per-call
Python dispatch, its own neighbour build and a tiny under-filled GEMM per
request.  :func:`pack_systems` removes the per-system axis instead of looping
over it: the per-system environment matrices are concatenated along the atom
axis (the same indexed-compaction idiom ``DeepPotential._per_type_fast`` uses
for the per-type axis), neighbour indices are rebased to the concatenated
numbering, and a ``system_of_atom`` / ``offsets`` pair keeps the provenance
of every row.  :meth:`DeepPotential.evaluate_many
<repro.deepmd.model.DeepPotential.evaluate_many>` then runs the existing
stacked kernels once over the whole batch — one embedding/fitting GEMM and
one packed Hermite table evaluation per centre type, whatever mixture of
systems the rows came from — and segment-reduces per-system energies and
virials in fixed ``bincount`` order (always float64).

The un-batched loop lives in :mod:`repro.serving.serial` as the golden
reference this path is pinned to at 1e-10 (fp64) by ``tests/test_serving.py``
and ``benchmarks/bench_serving_throughput.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..deepmd.envmat import LocalEnvironment
from ..md.neighbor import build_neighbor_data
from ..md.workspace import UNPOOLED

__all__ = ["SystemBatch", "pack_systems", "prepare_system"]


@dataclass
class SystemBatch:
    """Many independent systems packed for one fused model evaluation.

    ``env`` is a concatenated :class:`LocalEnvironment` whose neighbour
    indices are rebased to the concatenated atom numbering (padding stays
    ``-1``); ``system_of_atom`` maps each packed atom row to its system and
    ``offsets`` is the ``(S + 1,)`` cumulative atom-count array.  When packed
    with a workspace the arrays alias pool buffers and are valid only until
    the next pack from the same scope.
    """

    env: LocalEnvironment
    system_of_atom: np.ndarray  # (n_total,) int64
    offsets: np.ndarray  # (S + 1,) int64
    n_systems: int

    @property
    def n_atoms(self) -> int:
        return self.env.n_atoms

    def system_slice(self, s: int) -> slice:
        """The packed-row slice of system ``s``."""
        return slice(int(self.offsets[s]), int(self.offsets[s + 1]))


def check_type_space(types: np.ndarray, n_types: int, label: str) -> None:
    """Refuse atom types outside the model's ``n_types``-type space.

    The per-type compaction would silently skip unknown types, serving back
    zero energies for garbage input.
    """
    if len(types) and (types.min() < 0 or types.max() >= n_types):
        raise ValueError(f"{label} has atom types outside the model's {n_types}-type space")


def prepare_system(model, atoms, box):
    """``(atoms, box, neighbors)`` with the neighbour list built at the model cutoff.

    The serving loop runs this per request (and per MD-burst step) before
    packing the batch.
    """
    neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
    return atoms, box, neighbors


# reprolint: hot-path
def pack_systems(model, systems, workspace=None) -> SystemBatch:
    """Concatenate the environments of ``systems`` into one :class:`SystemBatch`.

    ``systems`` is a sequence of ``(atoms, box, neighbors)`` triples sharing
    the model's type space.  Every system is padded to the model's
    ``max_neighbors``, so the per-system environments concatenate along the
    atom axis without reshaping; neighbour indices are rebased by each
    system's atom offset (padding entries stay ``-1``) so the global force
    scatter of the fused evaluation lands each contribution in its own
    system's rows.

    With a ``workspace`` the concatenated arrays live in grow-only
    :meth:`~repro.md.workspace.Workspace.capacity` buffers: batch sizes
    jitter between admissions, and the backing stores absorb the jitter so a
    steady-state serving pack performs no allocator calls after warm-up.
    Without one the batch owns freshly allocated arrays.
    """
    workspace = UNPOOLED if workspace is None else workspace
    systems = list(systems)
    n_systems = len(systems)
    envs = [model.build_environment(atoms, box, neighbors) for atoms, box, neighbors in systems]
    n_pad = max(int(model.config.max_neighbors), 1)

    offsets = workspace.capacity("pack.offsets", n_systems + 1, dtype=np.int64)
    offsets[0] = 0
    if n_systems:
        np.cumsum([env.n_atoms for env in envs], out=offsets[1:])
    n_total = int(offsets[-1])

    R = workspace.capacity("pack.R", n_total, trailing=(n_pad, 4))
    displacements = workspace.capacity("pack.displacements", n_total, trailing=(n_pad, 3))
    distances = workspace.capacity("pack.distances", n_total, trailing=(n_pad,))
    s_values = workspace.capacity("pack.s", n_total, trailing=(n_pad,))
    ds_values = workspace.capacity("pack.ds_dr", n_total, trailing=(n_pad,))
    mask = workspace.capacity("pack.mask", n_total, trailing=(n_pad,))
    neighbor_indices = workspace.capacity("pack.neighbor_indices", n_total, trailing=(n_pad,), dtype=np.int64)
    neighbor_types = workspace.capacity("pack.neighbor_types", n_total, trailing=(n_pad,), dtype=np.int64)
    types = workspace.capacity("pack.types", n_total, dtype=np.int64)
    system_of_atom = workspace.capacity("pack.system_of_atom", n_total, dtype=np.int64)

    n_types = model.n_types
    for s, env in enumerate(envs):
        check_type_space(env.types, n_types, f"system {s}")
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        R[lo:hi] = env.R
        displacements[lo:hi] = env.displacements
        distances[lo:hi] = env.distances
        s_values[lo:hi] = env.s
        ds_values[lo:hi] = env.ds_dr
        mask[lo:hi] = env.mask
        # rebase real neighbour slots into the concatenated numbering; the
        # -1 padding must stay -1 (a blanket += would alias it into the
        # previous system's last atom)
        np.add(env.neighbor_indices, lo, out=neighbor_indices[lo:hi])
        np.copyto(neighbor_indices[lo:hi], -1, where=env.neighbor_indices < 0)
        neighbor_types[lo:hi] = env.neighbor_types
        types[lo:hi] = env.types
        system_of_atom[lo:hi] = s

    packed_env = LocalEnvironment(
        R=R,
        displacements=displacements,
        distances=distances,
        s=s_values,
        ds_dr=ds_values,
        mask=mask,
        neighbor_indices=neighbor_indices,
        neighbor_types=neighbor_types,
        types=types,
        cutoff=model.config.cutoff,
        cutoff_smooth=model.config.cutoff_smooth,
    )
    return SystemBatch(
        env=packed_env,
        system_of_atom=system_of_atom,
        offsets=offsets,
        n_systems=n_systems,
    )
