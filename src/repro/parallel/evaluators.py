"""Per-strategy rank evaluators: one rank's energy/force contribution.

Owner-computes force decomposition per ``ForceField.parallel_strategy``, on a
:class:`~repro.parallel.domain.RankDomain`'s owned+ghost system.  The same
classes run in the parent (sequential executor) and in the forked workers;
``engine`` is whatever carries ``force_field``, ``box``, ``type_names``,
``n_global`` and ``_owner_of`` — the engine, or a worker's init namespace.
"""

from __future__ import annotations

import numpy as np

from ..md.neighbor import NeighborData
from .domain import RankDomain


def _computed_here(domain: RankDomain, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Mask of local pairs this rank computes (lowest-id-member rule).

    A rank's pair list (:meth:`RankDomain.build_neighbors`) holds the pairs
    with at least one *primary* member — an owned row, or under intra-node
    load balancing a row of the rank's node-box share.  A pair is computed
    here exactly when its lowest-global-id member is primary: the rank that
    owns (or was assigned) that atom necessarily holds both members, because
    its ghost shell covers the cutoff+skin environment of every primary row.
    Every pair of the global system is therefore computed by exactly one
    rank; pairs between two non-primary rows are never even searched for.
    """
    lowest = np.where(domain.local_gids[i] < domain.local_gids[j], i, j)
    return domain.neighbors.primary[lowest]


class _RankEvaluator:
    """Computes one rank's energy/force contribution from its local system."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def rebuild(self, domain: RankDomain) -> None:
        """Refresh rank-local structures after a neighbour/ghost rebuild."""

    def finish(self, domain: RankDomain):
        """Returns ``(energy, local_forces, virial_or_None)``."""
        raise NotImplementedError


class _PairEvaluator(_RankEvaluator):
    """Pair-decomposable force fields (LJ, Morse): filtered half pair list."""

    def rebuild(self, domain: RankDomain) -> None:
        # a pair style reads ``pairs`` only: the padded table is never built
        built = domain.neighbors
        domain.scratch["computed"] = NeighborData(
            pairs=built.pairs[_computed_here(domain, *built.pairs.T)],
            cutoff=built.cutoff,
            skin=built.skin,
            n_atoms=built.n_atoms,
        )

    def _force_field_for(self, domain: RankDomain):
        return self.engine.force_field

    def finish(self, domain: RankDomain):
        engine = self.engine
        result = self._force_field_for(domain).compute(
            domain.local_atoms(engine.type_names),
            engine.box,
            domain.scratch["computed"],
            workspace=domain.workspace,
        )
        return result.energy, result.forces, result.virial


class _MolecularEvaluator(_PairEvaluator):
    """Pair + bonded terms (flexible water): the pair evaluation through a
    force field carrying the rank-local remapped topology."""

    def rebuild(self, domain: RankDomain) -> None:
        engine = self.engine
        force_field = engine.force_field
        topology = force_field.topology

        lookup = np.full(engine.n_global, -1, dtype=np.int64)
        lookup[domain.local_gids] = np.arange(domain.n_local)

        def remap(terms: np.ndarray) -> np.ndarray:
            if len(terms) == 0:
                return terms.copy()
            computed_here = engine._owner_of[terms.min(axis=1)] == domain.rank
            selected = terms[computed_here]
            local = lookup[selected]
            if np.any(local < 0):
                raise RuntimeError(
                    f"rank {domain.rank}: a bonded partner left the ghost shell; "
                    "increase the neighbour skin or shrink the timestep"
                )
            return local

        local_topology = type(topology)(
            bonds=remap(topology.bonds),
            angles=remap(topology.angles),
            molecules=topology.molecules[domain.local_gids],
        )
        domain.scratch["local_ff"] = force_field.with_topology(local_topology)
        super().rebuild(domain)

    def _force_field_for(self, domain: RankDomain):
        return domain.scratch["local_ff"]


class _PerAtomEvaluator(_RankEvaluator):
    """Per-atom energies over full neighbour lists (Deep Potential, Gupta).

    The force field evaluates the environments of the rank's primary centres
    only (``neighbors.primary``: the padded table has rows for them alone, and
    Gupta weights its pair terms by them) and scatters forces onto owned atoms
    and ghost copies alike.  Classic owner-computes evaluates the owned rows
    (whose neighbour lists are complete by construction of the ghost shell);
    under intra-node load balancing the rank instead evaluates its node-box
    *share* — the rows whose gid it was assigned, owned or node-peer ghost
    alike, every one of them inside the node box whose cutoff+skin
    environment the node's ghost shell covers.
    """

    def finish(self, domain: RankDomain):
        engine = self.engine
        result = engine.force_field.compute(
            domain.local_atoms(engine.type_names),
            engine.box,
            domain.neighbors,
            workspace=domain.workspace,
        )
        if result.per_atom_energy is None:
            raise RuntimeError(
                "the 'peratom' parallel strategy requires a per-atom energy decomposition"
            )
        energy = float(result.per_atom_energy[domain.neighbors.primary].sum())
        return energy, result.forces, result.virial


_EVALUATORS = {
    "pair": _PairEvaluator,
    "molecular": _MolecularEvaluator,
    "peratom": _PerAtomEvaluator,
}
