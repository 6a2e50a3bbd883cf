"""Cross-system batching: pack many small systems into one fused evaluation.

Throughput serving traffic is dominated by *small* independent systems — a
few dozen atoms each — where fixed per-call cost, not FLOPs, decides speed.
:func:`pack_systems` removes the per-system axis instead of looping over it:
the systems' positions, types and rebased half pair lists are concatenated,
one padded candidate table is derived from them, and the environment build of
:mod:`repro.deepmd.envmat` (the core a one-system build runs) runs once over
every row, each row imaged in its own system's box.  No step of that build
mixes rows, so each system's rows are bit for bit its own environment; a
``system_of_atom`` / ``offsets`` pair keeps the provenance of every row.
:meth:`DeepPotential.evaluate_many <repro.deepmd.model.DeepPotential.evaluate_many>`
then runs the stacked kernels once over the whole batch — one
embedding/fitting GEMM and one packed Hermite table evaluation per centre
type — and segment-reduces per-system energies and virials in fixed
``bincount`` order (always float64).

The un-batched loop lives in :mod:`repro.serving.serial` as the golden
reference this path is pinned to at 1e-10 (fp64) by ``tests/test_serving.py``
and ``benchmarks/bench_serving_throughput.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..deepmd.envmat import LocalEnvironment, build_environment_rows
from ..md.neighbor import build_neighbor_data, pairs_to_padded
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
    """Build the environments of ``systems`` in one pass, as one :class:`SystemBatch`.

    ``systems`` is a sequence of ``(atoms, box, neighbors)`` triples sharing
    the model's type space.  Every row is padded to the model's
    ``max_neighbors``, and a real neighbour index points into its own
    system's rows (padding stays ``-1``), so the global force scatter of the
    fused evaluation lands each contribution in its own system.

    With a ``workspace`` the concatenated arrays live in grow-only
    :meth:`~repro.md.workspace.Workspace.capacity` buffers: batch sizes
    jitter between admissions, and the backing stores absorb the jitter so a
    steady-state serving pack performs no allocator calls after warm-up.
    Without one the batch owns freshly allocated arrays.
    """
    workspace = UNPOOLED if workspace is None else workspace
    systems = list(systems)
    n_systems = len(systems)
    sizes = [len(atoms) for atoms, _, _ in systems]
    pair_counts = [len(neighbors.pairs) for _, _, neighbors in systems]
    n_total = sum(sizes)
    offsets = workspace.capacity("pack.offsets", n_systems + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])

    def concatenated(name, arrays, length, trailing=(), dtype=np.float64):
        out = workspace.capacity(f"pack.{name}", length, trailing=trailing, dtype=dtype)
        if arrays:
            np.concatenate(arrays, out=out)  # reprolint: allow[alloc] writes into the pooled buffer
        return out

    positions = concatenated("positions", [atoms.positions for atoms, _, _ in systems], n_total, (3,))
    types = concatenated("types", [atoms.types for atoms, _, _ in systems], n_total, dtype=np.int64)
    check_type_space(types, model.n_types, "batch")
    pairs = concatenated("pairs", [nd.pairs for _, _, nd in systems], sum(pair_counts), (2,), np.int64)
    pairs += offsets[:-1].repeat(pair_counts)[:, None]
    # both directions of every pair, centres first: per system, the slot
    # order of its own NeighborData.neighbors table
    nei, _ = pairs_to_padded(n_total, pairs.T.ravel(), pairs[:, ::-1].T.ravel(), workspace.scoped("pack"))
    system_of_atom = np.arange(n_systems).repeat(sizes)

    def rows(name, trailing=(), dtype=np.float64):
        return workspace.capacity(f"pack.{name}", n_total, trailing=trailing, dtype=dtype)

    config, image = model.config, _row_minimum_image(systems, system_of_atom)
    env = build_environment_rows(
        positions, types, nei, image, config.cutoff, config.cutoff_smooth, int(config.max_neighbors), rows
    )
    return SystemBatch(env=env, system_of_atom=system_of_atom, offsets=offsets, n_systems=n_systems)


def _row_minimum_image(systems, system_of_atom):
    """The minimum image of each packed row in its own system's box.

    ``d - L * round(d / L)`` per row and axis: on a periodic axis the scalar
    arithmetic of :meth:`Box.minimum_image <repro.md.box.Box.minimum_image>`.
    An open axis divides by 1.0, never by its length (which may be infinite),
    and has its image count zeroed, so its ``d - 0.0 == d``: each row is bit
    for bit its own system's image.
    """
    periodic = np.array([box.periodic for _, box, _ in systems], dtype=bool).reshape(-1, 3)
    lengths = np.array([box.lengths for _, box, _ in systems]).reshape(-1, 3)
    lengths = np.where(periodic, lengths, 1.0)[system_of_atom, None, :]
    open_axes = ~periodic[system_of_atom, None, :]

    def minimum_image(displacements):
        images = np.round(displacements / lengths)
        np.copyto(images, 0.0, where=open_axes)
        displacements -= lengths * images
        return displacements

    return minimum_image
