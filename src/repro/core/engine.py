"""The engine combining system, decomposition, schemes and the cost model.

:class:`DeepMDEngine` answers the question the paper's evaluation asks over
and over: *given this system, this many nodes, and this set of optimizations,
how long is one MD step and how many nanoseconds per day does that buy?*

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

import numpy as np

from ..parallel.decomposition import DecompositionStats, SpatialDecomposition
from ..parallel.topology import RankTopology
from ..perfmodel.exchange import exchange_time, plan_exchange
from ..perfmodel.kernels import KernelCostModel
from ..perfmodel.loadbalance import IntraNodeLoadBalancer
from ..perfmodel.machine import FUGAKU, FugakuSpec, threading_overhead
from ..perfmodel.timeline import StepTimeline
from .config import OptimizationConfig
from .systems import SystemSpec


@dataclass
class StepReport:
    """The outcome of modelling one configuration at one scale."""

    config_name: str
    system: str
    n_nodes: int
    n_atoms: int
    atoms_per_core: float
    timeline: StepTimeline
    rank_count_stats: dict[str, float]

    @property
    def ns_day(self) -> float:
        return self.timeline.ns_day

    @property
    def step_time_ms(self) -> float:
        return self.timeline.step_time * 1.0e3


@dataclass
class DeepMDEngine:
    """Performance engine for one benchmark system."""

    system: SystemSpec
    machine: FugakuSpec = FUGAKU

    def __post_init__(self) -> None:
        self.kernel_model = KernelCostModel(
            embedding_sizes=self.system.embedding_sizes,
            axis_neurons=self.system.axis_neurons,
            fitting_sizes=self.system.fitting_sizes,
            neighbors_per_atom=self.system.neighbors_per_atom,
            machine=self.machine,
        )
        self._position_cache: dict[int, tuple[np.ndarray, object]] = {}

    # -- helpers --------------------------------------------------------------
    def topology_for(self, n_nodes: int, config: OptimizationConfig) -> RankTopology:
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

    def _positions(self, n_atoms: int):
        if n_atoms not in self._position_cache:
            positions, box = self.system.build_positions(n_atoms, rng=2024)
            self._position_cache[n_atoms] = (positions, box)
        return self._position_cache[n_atoms]

    # -- the central question ---------------------------------------------------
    def step_report(
        self,
        config: OptimizationConfig,
        n_nodes: int,
        n_atoms: int | None = None,
        atoms_per_core: float | None = None,
    ) -> StepReport:
        """Model one MD step for ``config`` on ``n_nodes`` nodes."""
        topology = self.topology_for(n_nodes, config)
        if n_atoms is None:
            if atoms_per_core is None:
                raise ValueError("give either n_atoms or atoms_per_core")
            n_atoms = self.system.atoms_for_cores(topology.n_cores, atoms_per_core)
        positions, box = self._positions(n_atoms)
        n_atoms = len(positions)

        decomposition = SpatialDecomposition(box, topology)
        balancer = IntraNodeLoadBalancer(decomposition)
        if config.load_balance:
            counts = balancer.rank_counts_with_balance(positions)
        else:
            counts = balancer.rank_counts_without_balance(positions)
        stats = DecompositionStats(counts)
        max_atoms_on_rank = stats.maximum

        # -- compute (pair) phase of the most loaded rank
        compute_time = self.kernel_model.rank_compute_time(
            atoms_on_rank=max_atoms_on_rank,
            threads_per_rank=config.threads_per_rank,
            backend=config.gemm_backend,
            precision=config.precision,
            compressed=config.compressed_embedding,
            pretranspose=config.pretranspose,
            framework=config.use_framework,
            batched=config.batched_inference,
            threading_overhead=threading_overhead(self.machine, config.threading),
        )

        # -- communication phase
        plan = plan_exchange(config.comm_scheme, decomposition, self.system.cutoff, self.system.atom_density)
        if not config.memory_pool and plan.registered_regions is None:
            plan.registered_regions = 2 * plan.n_messages
        comm_time = exchange_time(plan, self.machine)

        timeline = StepTimeline(timestep_fs=self.system.timestep_fs)
        timeline.add("pair", compute_time)
        timeline.add("comm", comm_time)

        return StepReport(
            config_name=config.name,
            system=self.system.name,
            n_nodes=n_nodes,
            n_atoms=n_atoms,
            atoms_per_core=n_atoms / topology.n_cores,
            timeline=timeline,
            rank_count_stats=stats.summary(),
        )

    # -- sweeps -----------------------------------------------------------------
    def optimization_ladder(
        self,
        configs: list[OptimizationConfig],
        n_nodes: int,
        atoms_per_core: float,
    ) -> list[StepReport]:
        """Fig. 9: the same workload under a ladder of configurations."""
        reports = []
        n_atoms = None
        for config in configs:
            report = self.step_report(config, n_nodes, n_atoms=n_atoms, atoms_per_core=atoms_per_core)
            n_atoms = report.n_atoms  # keep the workload identical across bars
            reports.append(report)
        return reports

    def strong_scaling(
        self,
        config: OptimizationConfig,
        node_counts: list[int],
        n_atoms: int,
    ) -> list[StepReport]:
        """Fig. 11: a fixed system over increasing node counts."""
        return [self.step_report(config, n, n_atoms=n_atoms) for n in node_counts]
