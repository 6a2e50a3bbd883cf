"""The Deep Potential model exposed as an MD force field ("pair style").

``pair_style deepmd`` is how LAMMPS users consume DeePMD-kit; this adapter
plays the same role for :class:`repro.md.Simulation`, selecting the precision
policy, the FLOP-accounting GEMM backend and optionally the compressed
embedding tables.
"""

from __future__ import annotations

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.forcefields.base import ForceField, ForceResult
from ..md.neighbor import NeighborData
from .envmat import warn_clamped, warn_truncated
from .gemm import GemmBackend, _dtype_name
from .model import DeepPotential
from .precision import DOUBLE, get_policy


class DeepPotentialForceField(ForceField):
    """Adapter from :class:`DeepPotential` to the MD engine force-field API."""

    #: The energy is a sum of per-atom terms over full neighbour lists: each
    #: rank evaluates its primary rows only (its padded table has no row for
    #: a ghost) and reverse-scatters the neighbour forces.
    parallel_strategy = "peratom"

    #: The compressed table covers s(r) down to this pair distance (A); a
    #: closer pair gets the clamped end-node value, and ``compute`` warns.
    compression_min_distance = 0.5

    def __init__(
        self,
        model: DeepPotential,
        precision=DOUBLE,
        gemm_backend: GemmBackend | None = None,
        compressed: bool = False,
        compression_points: int = 2048,
    ) -> None:
        self.model = model
        self.precision = get_policy(precision)
        self.backend = gemm_backend or GemmBackend()
        self.compressed = bool(compressed)
        self.compression_points = int(compression_points)
        self.cutoff = model.config.cutoff
        self.n_evaluations = 0
        self._overflow_warned = False
        self._clamp_warned = False
        # this pair style's own table (and its reduced-precision packed nodes),
        # built eagerly so the first MD step pays no tabulation or cast; held
        # by reference: the model is frozen, so it cannot go stale, and another
        # consumer's grid cannot swap it underneath a run
        self._table = None
        if self.compressed:
            self._table = model.compressed_embeddings(self.compression_points, self.compression_min_distance)
            if not self.precision.is_double:
                self._table.ensure_packed(self.precision.compute_dtype)

    def compute(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> ForceResult:
        self.n_evaluations += 1
        env = self.model.build_environment(atoms, box, neighbors, workspace=workspace)
        if not self._overflow_warned:
            self._overflow_warned = warn_truncated(env, stacklevel=2)
        if self.compressed and not self._clamp_warned:
            self._clamp_warned = warn_clamped(env, self._table, stacklevel=2)
        output = self.model.evaluate(
            atoms,
            box,
            neighbors,
            precision=self.precision,
            backend=self.backend,
            compressed=self.compressed,
            compression_table=self._table,
            environment=env,
            workspace=workspace,
        )
        return ForceResult(
            energy=output.energy,
            forces=output.forces,
            per_atom_energy=output.per_atom_energy,
            virial=output.virial,
        )

    def describe(self) -> dict[str, object]:
        """A summary of the effective configuration (useful in reports)."""
        compressed = self.compressed
        return {
            "precision": self.precision.name,
            "compressed": compressed,
            "compression_points": self.compression_points if compressed else None,
            "compression_min_distance": self.compression_min_distance if compressed else None,
            # the dtype the batched table kernel actually gathers/computes in
            # (regression: must match what the precision field promises)
            "table_dtype": _dtype_name(self.precision.compute_dtype) if compressed else None,
            "cutoff": self.cutoff,
            "n_parameters": self.model.n_parameters(),
        }
