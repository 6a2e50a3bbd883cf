"""The modelled MD step: system, configuration and node count in, ns/day out.

:func:`step_report` answers the question the paper's evaluation asks over
and over: *given this system, this many nodes, and this set of
optimizations, how long is one MD step and how many nanoseconds per day does
that buy?*  :func:`optimization_ladder` asks it down the Fig. 9 ladder and
:func:`strong_scaling` over the Fig. 11 node counts.

The inputs that matter are computed, not assumed:

* per-rank atom counts come from binning real coordinates into the real
  rank/node grid (so load imbalance is the measured imbalance),
* communication plans come from the real ghost-shell geometry on the real
  torus,
* kernel times come from the Deep Potential hyper-parameters.

Only the conversion of those counts into seconds uses the Fugaku machine
model (the README's "Parallel engine" section relates it to the executed engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..parallel.decomposition import DecompositionStats, SpatialDecomposition
from ..parallel.topology import RankTopology
from ..perfmodel.exchange import exchange_time, plan_exchange
from ..perfmodel.kernels import rank_compute_time
from ..perfmodel.loadbalance import rank_counts_with_balance, rank_counts_without_balance
from ..perfmodel.machine import FUGAKU, FugakuSpec
from ..units import ns_per_day
from .config import OptimizationConfig
from .systems import SystemSpec


@dataclass
class StepReport:
    """The modelled time of one MD step of one configuration at one scale.

    ``phases`` holds the step's phase times in seconds (``"pair"``, ``"comm"``).
    """

    config_name: str
    system: str
    n_nodes: int
    n_atoms: int
    atoms_per_core: float
    timestep_fs: float
    phases: dict[str, float]
    rank_count_stats: dict[str, float]

    @property
    def step_time(self) -> float:
        return float(sum(self.phases.values()))

    @property
    def ns_day(self) -> float:
        return ns_per_day(self.step_time, self.timestep_fs)

    @property
    def step_time_ms(self) -> float:
        return self.step_time * 1.0e3


def topology_for(n_nodes: int, config: OptimizationConfig) -> RankTopology:
    """The node grid of ``n_nodes``: the paper's shape, else an exact cube-root grid.

    Raises ``ValueError`` when neither holds exactly ``n_nodes`` nodes
    (50 would otherwise be modelled as 4 x 3 x 4 = 48).
    """
    shapes = RankTopology.paper_topologies()
    if n_nodes in shapes:
        node_dims = shapes[n_nodes]
    else:
        edge = max(round(n_nodes ** (1.0 / 3.0)), 1)
        node_dims = (edge, max(n_nodes // (edge * edge), 1), edge)
        if edge * node_dims[1] * edge != n_nodes:
            raise ValueError(
                f"cannot model {n_nodes} nodes: its cube-root grid {node_dims} "
                f"holds {edge * node_dims[1] * edge}"
            )
    return RankTopology(node_dims=node_dims, threads_per_rank=config.threads_per_rank)


@lru_cache(maxsize=4)
def _seeded_positions(system: SystemSpec, n_atoms: int):
    """``system``'s seed-2024 coordinates at ``n_atoms``, built once per pair (read-only)."""
    positions, box = system.build_positions(n_atoms, rng=2024)
    positions.flags.writeable = False
    return positions, box


def step_report(
    system: SystemSpec,
    config: OptimizationConfig,
    n_nodes: int,
    n_atoms: int | None = None,
    atoms_per_core: float | None = None,
    machine: FugakuSpec = FUGAKU,
) -> StepReport:
    """Model one MD step of ``system`` for ``config`` on ``n_nodes`` nodes of ``machine``."""
    topology = topology_for(n_nodes, config)
    if n_atoms is None:
        if atoms_per_core is None:
            raise ValueError("give either n_atoms or atoms_per_core")
        n_atoms = system.atoms_for_cores(topology.n_cores, atoms_per_core)
    positions, box = _seeded_positions(system, n_atoms)
    n_atoms = len(positions)

    decomposition = SpatialDecomposition(box, topology)
    if config.load_balance:
        counts = rank_counts_with_balance(decomposition, positions)
    else:
        counts = rank_counts_without_balance(decomposition, positions)
    stats = DecompositionStats(counts)

    # -- compute (pair) phase of the most loaded rank
    compute_time = rank_compute_time(system, config, stats.maximum, machine)

    # -- communication phase
    plan = plan_exchange(config.comm_scheme, decomposition, system.cutoff, system.atom_density)
    if not config.memory_pool and plan.registered_regions is None:
        plan.registered_regions = 2 * plan.n_messages
    comm_time = exchange_time(plan, machine)

    return StepReport(
        config_name=config.name,
        system=system.name,
        n_nodes=n_nodes,
        n_atoms=n_atoms,
        atoms_per_core=n_atoms / topology.n_cores,
        timestep_fs=system.timestep_fs,
        phases={"pair": compute_time, "comm": comm_time},
        rank_count_stats=stats.summary(),
    )


def optimization_ladder(
    system: SystemSpec,
    configs: list[OptimizationConfig],
    n_nodes: int,
    atoms_per_core: float,
    machine: FugakuSpec = FUGAKU,
) -> list[StepReport]:
    """Fig. 9: the same workload under a ladder of configurations."""
    # every bar asks for the first bar's count, so all of them read one cached
    # build: the same workload (a lattice may build more atoms than asked)
    n_atoms = system.atoms_for_cores(topology_for(n_nodes, configs[0]).n_cores, atoms_per_core)
    return [step_report(system, config, n_nodes, n_atoms, machine=machine) for config in configs]


def strong_scaling(
    system: SystemSpec,
    config: OptimizationConfig,
    node_counts: list[int],
    n_atoms: int,
    machine: FugakuSpec = FUGAKU,
) -> list[StepReport]:
    """Fig. 11: a fixed system over increasing node counts."""
    return [step_report(system, config, n, n_atoms, machine=machine) for n in node_counts]
