"""Per-strategy rank evaluators: one rank's energy/force contribution.

Owner-computes force decomposition per ``ForceField.parallel_strategy``, on a
:class:`~repro.parallel.domain.RankDomain`'s owned+ghost system.  The same
classes run in the parent (sequential executor) and in the forked workers;
``engine`` is whatever carries ``force_field``, ``box``, ``type_names``,
``n_global`` and ``_owner_of`` — the engine, or a worker's init namespace.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..md.workspace import scatter_add_scalars, scatter_add_vectors
from .domain import RankDomain


def _owner_computed_mask(pairs: np.ndarray, local_gids: np.ndarray, n_owned: int) -> np.ndarray:
    """Mask of local pairs this rank computes (owner-of-lowest-id rule).

    Owned atoms occupy local slots ``[0, n_owned)``, so a pair is computed
    here exactly when its lowest-global-id member is an owned slot.  Every
    pair of the global system is therefore computed by exactly one rank, and
    pairs between two ghosts are never computed locally.
    """
    ga, gb = local_gids[pairs[:, 0]], local_gids[pairs[:, 1]]
    lowest = np.where(ga < gb, pairs[:, 0], pairs[:, 1])
    return lowest < n_owned


def _computed_pairs(domain) -> np.ndarray:
    """The subset of the local pair list this rank computes.

    Classic owner-computes (``balance_mask is None``): the rank owning the
    pair's lowest-gid member computes it.  Under intra-node load balancing
    the same rule runs on the *assignment*: the rank whose node-box share
    contains the lowest-gid member computes the pair — it necessarily holds
    both members, because the node-box copy plus its ghost shell covers the
    cutoff+skin environment of every assigned atom.  Either way each global
    pair is computed by exactly one rank.
    """
    pairs = domain.neighbors.pairs
    if len(pairs) == 0:
        return pairs
    if domain.balance_mask is None:
        return pairs[_owner_computed_mask(pairs, domain.local_gids, domain.n_owned)]
    ga, gb = domain.local_gids[pairs[:, 0]], domain.local_gids[pairs[:, 1]]
    return pairs[domain.balance_mask[np.minimum(ga, gb)]]


class _RankEvaluator:
    """Computes one rank's energy/force contribution from its local system."""

    #: whether :meth:`prepare` produces a per-owned-atom quantity that must be
    #: forward-exchanged to ghost copies before :meth:`finish` (EAM density).
    needs_halo = False

    def __init__(self, engine) -> None:
        self.engine = engine

    def rebuild(self, domain: RankDomain) -> None:
        """Refresh rank-local structures after a neighbour/ghost rebuild."""

    def prepare(self, domain: RankDomain) -> np.ndarray | None:
        """Stage 1: per-owned-atom intermediates to forward, or ``None``."""
        return None

    def finish(self, domain: RankDomain, halo: np.ndarray | None):
        """Stage 2: returns ``(energy, local_forces, virial_or_None)``."""
        raise NotImplementedError


class _PairEvaluator(_RankEvaluator):
    """Pair-decomposable force fields (LJ, Morse): filtered half pair list."""

    def rebuild(self, domain: RankDomain) -> None:
        domain.scratch["computed"] = replace(domain.neighbors, pairs=_computed_pairs(domain))

    def _force_field_for(self, domain: RankDomain):
        return self.engine.force_field

    def finish(self, domain: RankDomain, halo):
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
    """Per-atom energies over full neighbour lists (Deep Potential).

    Rows this rank does not evaluate are masked out of the padded table, so
    the force field only evaluates the environments of this rank's atoms and
    scatters forces onto owned atoms and ghost copies alike.  Classic
    owner-computes evaluates the owned rows (whose neighbour lists are
    complete by construction of the ghost shell); under intra-node load
    balancing the rank instead evaluates its node-box *share* — the rows
    whose gid it was assigned, owned or node-peer ghost alike, every one of
    them inside the node box whose cutoff+skin environment the node's ghost
    shell covers.
    """

    def rebuild(self, domain: RankDomain) -> None:
        base = domain.neighbors
        neighbors = base.neighbors.copy()
        counts = base.counts.copy()
        if domain.balance_mask is None:
            neighbors[domain.n_owned:, :] = -1
            counts[domain.n_owned:] = 0
            domain.scratch["eval_rows"] = None
        else:
            keep = domain.balance_mask[domain.local_gids]
            neighbors[~keep, :] = -1
            counts[~keep] = 0
            domain.scratch["eval_rows"] = np.nonzero(keep)[0]
        domain.scratch["masked"] = replace(
            base, neighbors=neighbors, counts=counts, pairs=np.empty((0, 2), dtype=np.int64)
        )

    def finish(self, domain: RankDomain, halo):
        engine = self.engine
        result = engine.force_field.compute(
            domain.local_atoms(engine.type_names),
            engine.box,
            domain.scratch["masked"],
            workspace=domain.workspace,
        )
        if result.per_atom_energy is None:
            raise RuntimeError(
                "the 'peratom' parallel strategy requires a per-atom energy decomposition"
            )
        rows = domain.scratch["eval_rows"]
        if rows is None:
            energy = float(result.per_atom_energy[: domain.n_owned].sum())
        else:
            energy = float(result.per_atom_energy[rows].sum())
        return energy, result.forces, result.virial


class _DensityEvaluator(_RankEvaluator):
    """EAM-like force fields (Gupta): two-stage with a density halo exchange.

    Stage 1 accumulates each owned atom's embedding density from the full
    local pair list (complete by construction) and returns the embedding
    derivative ``1/sqrt(rho)``; the engine forward-exchanges it to ghost
    copies — the in-process analogue of LAMMPS' mid-force EAM communication.
    Stage 2 evaluates each owner-filtered pair once using the owner-computed
    derivatives of both members.
    """

    needs_halo = True

    def rebuild(self, domain: RankDomain) -> None:
        # Ghost-ghost pairs contribute only to ghost densities, which the halo
        # exchange overwrites with owner-computed values — drop them up front.
        pairs = domain.neighbors.pairs
        if len(pairs):
            touches_owned = (pairs[:, 0] < domain.n_owned) | (pairs[:, 1] < domain.n_owned)
            pairs = pairs[touches_owned]
        domain.scratch["density_pairs"] = pairs

    def prepare(self, domain: RankDomain) -> np.ndarray:  # reprolint: hot-path
        engine = self.engine
        force_field = engine.force_field
        pairs = domain.scratch["density_pairs"]
        n_local = domain.n_local
        positions = domain.local_positions()

        if len(pairs):
            delta = positions[pairs[:, 0]] - positions[pairs[:, 1]]
            delta = engine.box.minimum_image(delta)
            r = np.linalg.norm(delta, axis=1)
            mask = r <= force_field.cutoff
            pairs, delta, r = pairs[mask], delta[mask], r[mask]
        else:
            delta = np.empty((0, 3))  # reprolint: allow[alloc] empty-pair-list early-out, not the steady-state path
            r = np.empty(0)  # reprolint: allow[alloc] empty-pair-list early-out, not the steady-state path

        if len(pairs):
            repulsion, density_pair, drep_dr, drho_dr = force_field.pair_terms(r)
        else:
            repulsion = density_pair = drep_dr = drho_dr = np.empty(0)  # reprolint: allow[alloc] empty-pair-list early-out, not the steady-state path

        rep_atom = domain.workspace.zeros("density.rep_atom", n_local)
        rho = domain.workspace.zeros("density.rho", n_local)
        if len(pairs):
            scatter_add_scalars(rep_atom, pairs[:, 0], repulsion)
            scatter_add_scalars(rep_atom, pairs[:, 1], repulsion)
            scatter_add_scalars(rho, pairs[:, 0], density_pair)
            scatter_add_scalars(rho, pairs[:, 1], density_pair)

        sqrt_rho, inv_sqrt = force_field.embedding_terms(rho)
        per_atom = rep_atom - sqrt_rho
        per_atom[rho == 0.0] = rep_atom[rho == 0.0]

        domain.scratch.update(
            pairs=pairs, delta=delta, r=r, drep_dr=drep_dr, drho_dr=drho_dr,
            inv_sqrt=inv_sqrt, energy=float(per_atom[: domain.n_owned].sum()),
        )
        # rho/inv_sqrt are only complete for owned atoms; ghost entries are
        # replaced by the owner-computed values the halo exchange delivers.
        return inv_sqrt[: domain.n_owned]

    def finish(self, domain: RankDomain, halo: np.ndarray | None):  # reprolint: hot-path
        scratch = domain.scratch
        inv_sqrt = scratch["inv_sqrt"]
        if domain.n_ghost:
            inv_sqrt[domain.n_owned:] = halo

        pairs = scratch["pairs"]
        forces = domain.workspace.zeros("density.forces", (domain.n_local, 3))
        if len(pairs):
            keep = _owner_computed_mask(pairs, domain.local_gids, domain.n_owned)
            pairs = pairs[keep]
            delta, r = scratch["delta"][keep], scratch["r"][keep]
            drep_dr, drho_dr = scratch["drep_dr"][keep], scratch["drho_dr"][keep]
            dE_dr = self.engine.force_field.pair_dE_dr(
                drep_dr, drho_dr, inv_sqrt[pairs[:, 0]], inv_sqrt[pairs[:, 1]]
            )
            pair_forces = (-dE_dr / r)[:, None] * delta
            scatter_add_vectors(forces, pairs[:, 0], pairs[:, 1], pair_forces)
        return scratch["energy"], forces, None


_EVALUATORS = {
    "pair": _PairEvaluator,
    "molecular": _MolecularEvaluator,
    "peratom": _PerAtomEvaluator,
    "density": _DensityEvaluator,
}
