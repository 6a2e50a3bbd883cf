"""One entry point per table/figure of the paper's evaluation.

Every function returns plain data (:class:`~repro.utils.tables.Table` or
dictionaries) so it can be driven both by the ``benchmarks/`` harness (which
prints the rows the paper reports) and by the test-suite (which asserts the
qualitative claims: orderings, reductions, overlaps).

Physics experiments (Table II, Fig. 6) train a small Deep Potential on the
pseudo-AIMD water reference; performance experiments (Figs. 7-11, Tables I
and III) run the decomposition + machine model through
:class:`~repro.core.engine.DeepMDEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..deepmd import DeepPotential, DeepPotentialConfig, DeepPotentialForceField, GemmBackend
from ..md import LangevinThermostat, Simulation, radial_distribution_function, water_system
from ..md.neighbor import build_neighbor_data
from ..md.rdf import RDFResult, rdf_overlap_error
from ..parallel.decomposition import SpatialDecomposition
from ..parallel.topology import RankTopology
from ..perfmodel.exchange import SCHEMES, exchange_time, plan_exchange, subbox_decomposition
from ..perfmodel.loadbalance import IntraNodeLoadBalancer
from ..perfmodel.machine import FUGAKU, message_occupancy, nic_cache_penalty, tni_makespan, wire_latency
from ..perfmodel.strongscaling import parallel_efficiency
from ..training import Trainer, generate_water_dataset
from ..utils.tables import Table
from .config import baseline_config, fig9_stage_configs, optimized_config
from .engine import DeepMDEngine
from .errors import energy_error_per_atom, force_rmse, precision_error_table
from .systems import copper_spec, get_system, water_spec

# ---------------------------------------------------------------------------
# Table I — survey of NNMD package performance
# ---------------------------------------------------------------------------

#: Literature rows of Table I (work, year, potential, system, atoms, resources, ns/day).
TABLE1_LITERATURE = [
    ("Simple-NN", 2019, "BP", "SiO2", 14_000, "80 CPU cores", None),
    ("Singraber et al.", 2019, "BP", "H2O", 8_400, "512 CPU cores (VSC)", 1.25),
    ("SNAP ML-IAP", 2021, "SNAP", "C", 1_000_000_000, "204.6K cores + 27.3K GPUs (Summit)", 1.03),
    ("Allegro", 2023, "Allegro", "Li3PO4", 420_000, "64 A100", 15.5),
    ("Allegro", 2023, "Allegro", "Ag", 1_000_000, "128 A100", 49.4),
    ("DeePMD-kit (baseline)", 2022, "DP", "Cu", 13_500_000, "204.6K cores + 27.3K GPUs (Summit)", 11.2),
    ("DeePMD-kit (baseline)", 2022, "DP", "Cu", 2_100_000, "218.8K cores (Fugaku)", 4.7),
]


def table1_packages(n_nodes: int = 12_000) -> Table:
    """Table I: literature values plus this work's modelled rows."""
    table = Table(
        headers=["Work", "Year", "Pot", "System", "#atoms", "Resources", "ns/day"],
        title="Table I — performance of typical NNMD packages",
    )
    for row in TABLE1_LITERATURE:
        work, year, pot, system, atoms, resources, nsday = row
        table.add_row(work, year, pot, system, atoms, resources, nsday if nsday is not None else "unknown")

    config = optimized_config()
    for system_name, n_atoms in (("copper", 540_000), ("water", 558_000)):
        spec = get_system(system_name)
        engine = DeepMDEngine(spec)
        report = engine.step_report(config, n_nodes=n_nodes, n_atoms=n_atoms)
        table.add_row(
            "This work (model)",
            2024,
            "DP",
            "Cu" if system_name == "copper" else "H2O",
            report.n_atoms,
            f"{n_nodes * 48 / 1000:.0f}K cores (Fugaku, modelled)",
            round(report.ns_day, 1),
        )
    return table


# ---------------------------------------------------------------------------
# Table II + Fig. 6 — accuracy under mixed precision
# ---------------------------------------------------------------------------

@dataclass
class TrainedWaterModel:
    """A small Deep Potential trained on the pseudo-AIMD water reference."""

    model: DeepPotential
    dataset: object
    training_result: object


def train_water_model(
    n_molecules: int = 32,
    n_frames: int = 12,
    n_epochs: int = 60,
    embedding_sizes: tuple[int, ...] = (8, 16),
    axis_neurons: int = 4,
    fitting_sizes: tuple[int, ...] = (32, 32),
    cutoff: float = 4.5,
    seed: int = 7,
) -> TrainedWaterModel:
    """Train a small water Deep Potential (shared by Table II and Fig. 6).

    The network is far smaller than the paper's (240-wide fitting net) so the
    pure-Python training finishes in seconds; the precision comparison only
    needs *a* trained model, not a converged production model.
    """
    dataset = generate_water_dataset(n_frames=n_frames, n_molecules=n_molecules, cutoff=cutoff, rng=seed)
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=cutoff,
        cutoff_smooth=cutoff - 1.0,
        embedding_sizes=embedding_sizes,
        axis_neurons=axis_neurons,
        fitting_sizes=fitting_sizes,
        max_neighbors=64,
        seed=seed,
    )
    trainer = Trainer(DeepPotential(config), dataset, learning_rate=4.0e-3, rng=seed)
    result = trainer.train(n_epochs=n_epochs)
    return TrainedWaterModel(model=result.model, dataset=dataset, training_result=result)


def table2_precision(trained: TrainedWaterModel | None = None) -> Table:
    """Table II: single-step energy/force error vs the reference per precision."""
    trained = trained or train_water_model()
    model = trained.model
    frame = trained.dataset.frames[0]
    neighbors = build_neighbor_data(frame.atoms.positions, frame.box, model.config.cutoff)

    results: dict[str, dict[str, float]] = {}
    for label, precision in (("Double", "double"), ("MIX-fp32", "mix-fp32"), ("MIX-fp16", "mix-fp16")):
        output = model.evaluate(frame.atoms, frame.box, neighbors, precision=precision, backend=GemmBackend())
        results[label] = {
            "energy": energy_error_per_atom(output.energy, frame.energy, len(frame.atoms)),
            "force": force_rmse(output.forces, frame.forces),
        }
    return precision_error_table(results)


def fig6_rdf(
    trained: TrainedWaterModel | None = None,
    n_molecules: int = 32,
    n_steps: int = 120,
    temperature: float = 330.0,
    seed: int = 11,
) -> dict[str, dict[str, RDFResult]]:
    """Fig. 6: water RDFs under double / MIX-fp32 / MIX-fp16.

    Returns ``{precision: {"OO"/"OH"/"HH": RDFResult}}``.  The claim being
    reproduced is that the three precision curves overlap; see
    :func:`fig6_overlap_errors`.
    """
    trained = trained or train_water_model(n_molecules=n_molecules)
    model = trained.model
    curves: dict[str, dict[str, RDFResult]] = {}
    for precision in ("double", "mix-fp32", "mix-fp16"):
        atoms, box, _topology = water_system(n_molecules, rng=seed)
        atoms.initialize_velocities(temperature, rng=seed)
        force_field = DeepPotentialForceField(model, precision=precision)
        # The skin must keep cutoff+skin below the minimum-image limit of the
        # (small) example box.
        skin = max(0.1, min(1.0, box.max_cutoff() - model.config.cutoff - 0.05))
        simulation = Simulation(
            atoms,
            box,
            force_field,
            timestep_fs=0.5,
            neighbor_skin=skin,
            thermostat=LangevinThermostat(temperature, damping_fs=25.0, rng=seed),
        )
        simulation.run(n_steps, trajectory_every=max(n_steps // 20, 1))
        frames = simulation.trajectory
        pairs = {"OO": (0, 0), "OH": (0, 1), "HH": (1, 1)}
        r_max = min(6.0, box.max_cutoff())
        curves[precision] = {
            label: radial_distribution_function(frames, box, atoms.types, a, b, r_max=r_max, n_bins=60)
            for label, (a, b) in pairs.items()
        }
    return curves


def fig6_overlap_errors(curves: dict[str, dict[str, RDFResult]]) -> dict[str, float]:
    """Mean |g_double - g_reduced| for each reduced precision and pair."""
    errors: dict[str, float] = {}
    for precision in ("mix-fp32", "mix-fp16"):
        for pair in ("OO", "OH", "HH"):
            errors[f"{precision}:{pair}"] = rdf_overlap_error(
                curves["double"][pair], curves[precision][pair]
            )
    return errors


# ---------------------------------------------------------------------------
# Fig. 7 — step-by-step communication optimization
# ---------------------------------------------------------------------------

def fig7_comm_schemes(
    node_dims: tuple[int, int, int] = (4, 6, 4),
    cutoffs: tuple[float, ...] = (8.0, 10.0),
    subbox_factors: tuple[tuple[float, float, float], ...] = ((1, 1, 1), (0.5, 0.5, 1), (0.5, 0.5, 0.5)),
    atom_density: float | None = None,
) -> Table:
    """Fig. 7: modelled ghost-exchange time per scheme and configuration."""
    density = atom_density if atom_density is not None else copper_spec().atom_density
    topology = RankTopology(node_dims)
    table = Table(
        headers=["cutoff", "sub-box (r_cut units)", "scheme", "time [us]", "relative to baseline"],
        title="Fig. 7 — step-by-step communication optimization (96 nodes)",
    )
    for cutoff in cutoffs:
        for factors in subbox_factors:
            decomposition = subbox_decomposition(topology, cutoff, factors)
            times = {label: exchange_time(plan_exchange(label, decomposition, cutoff, density)) for label in SCHEMES}
            base = times["baseline"]
            for label, seconds in times.items():
                table.add_row(cutoff, str(tuple(factors)), label, seconds * 1.0e6, seconds / base)
    return table


def communication_reduction(node_dims=(4, 6, 4), cutoff: float = 8.0, factors=(0.5, 0.5, 0.5)) -> float:
    """The headline claim: fraction of communication time removed by lb-4l."""
    decomposition = subbox_decomposition(RankTopology(node_dims), cutoff, factors)
    density = copper_spec().atom_density
    base = exchange_time(plan_exchange("baseline", decomposition, cutoff, density))
    optimized = exchange_time(plan_exchange("lb-4l", decomposition, cutoff, density))
    return 1.0 - optimized / base


# ---------------------------------------------------------------------------
# Fig. 8 — RDMA memory pool vs per-neighbour registration
# ---------------------------------------------------------------------------

def fig8_memory_pool(
    neighbor_counts: tuple[int, ...] = (26, 44, 60, 80, 100, 124),
    iterations: int = 10_000,
    payload_bytes: int = 8,
) -> Table:
    """Fig. 8: communication time over ``iterations`` tiny messages per neighbour.

    Pooled, one registered region serves every neighbour; otherwise each
    neighbour registers a send and a receive buffer of its own.
    """
    network = FUGAKU.network
    table = Table(
        headers=["neighbors", "buffers", "registered regions", "time [s]", "time per message [us]"],
        title="Fig. 8 — RDMA memory pool vs per-neighbour registration",
    )
    for pooled in (True, False):
        label = "buf_pool" if pooled else "no_buf_pool"
        for n_neighbors in neighbor_counts:
            regions = 1 if pooled else 2 * n_neighbors
            penalty = nic_cache_penalty(FUGAKU.nic_cache, regions)
            per_message = message_occupancy(network, payload_bytes, registration_penalty=penalty)
            # Messages to the neighbours are issued in turn on the 6 TNIs.
            per_iteration = tni_makespan(network, [per_message] * n_neighbors) + wire_latency(network)
            total = per_iteration * iterations
            table.add_row(n_neighbors, label, regions, total, per_message * 1.0e6)
    return table


# ---------------------------------------------------------------------------
# Fig. 9 — step-by-step computation optimization
# ---------------------------------------------------------------------------

def fig9_computation(
    systems: tuple[str, ...] = ("copper", "water"),
    atoms_per_core: tuple[int, ...] = (1, 2, 8),
    n_nodes: int = 96,
) -> Table:
    """Fig. 9: ns/day per optimization stage, system and atoms-per-core."""
    table = Table(
        headers=["system", "atoms/core", "stage", "ns/day", "speedup vs baseline", "step time [ms]"],
        title="Fig. 9 — step-by-step computation optimization (96 nodes)",
    )
    configs = fig9_stage_configs()
    for system_name in systems:
        engine = DeepMDEngine(get_system(system_name))
        for apc in atoms_per_core:
            reports = engine.optimization_ladder(configs, n_nodes=n_nodes, atoms_per_core=apc)
            base = reports[0].ns_day
            for report in reports:
                table.add_row(
                    system_name,
                    apc,
                    report.config_name,
                    report.ns_day,
                    report.ns_day / base,
                    report.step_time_ms,
                )
    return table


def computation_speedup(system_name: str = "copper", atoms_per_core: int = 1, n_nodes: int = 96) -> float:
    """The 14.11x-style compute claim: sve-fp16 stage over baseline (same comm)."""
    engine = DeepMDEngine(get_system(system_name))
    configs = fig9_stage_configs()
    reports = engine.optimization_ladder(configs, n_nodes=n_nodes, atoms_per_core=atoms_per_core)
    by_name = {r.config_name: r for r in reports}
    return by_name["sve-fp16"].ns_day / by_name["baseline"].ns_day


# ---------------------------------------------------------------------------
# Fig. 10 + Table III — intra-node load balance
# ---------------------------------------------------------------------------

def _balance_case(engine: DeepMDEngine, atoms_per_core: int, n_nodes: int, seed: int):
    """``(positions, balancer)`` of one Table III / Fig. 10 case of ``engine``'s system.

    ``atoms_per_core`` atoms per core on the optimized configuration's
    ``n_nodes``-node grid, placed with ``seed``.
    """
    topology = engine.topology_for(n_nodes, optimized_config())
    n_atoms = engine.system.atoms_for_cores(topology.n_cores, atoms_per_core)
    positions, box = engine.system.build_positions(n_atoms, rng=seed)
    return positions, IntraNodeLoadBalancer(SpatialDecomposition(box, topology))


def table3_loadbalance(
    system_name: str = "water",
    atoms_per_core: tuple[int, ...] = (1, 2, 8),
    n_nodes: int = 96,
    seed: int = 5,
) -> Table:
    """Table III: pair time and atom numbers across MPI ranks, lb vs nolb."""
    engine = DeepMDEngine(get_system(system_name))
    per_atom_time = engine.kernel_model.per_atom_time(atoms_per_thread=1, backend="sve", precision="mix-fp16")
    table = Table(
        headers=["case", "lb", "metric", "min", "avg", "max", "SDMR%"],
        title=f"Table III — pair time and atom numbers across MPI ranks ({system_name})",
    )
    for apc in atoms_per_core:
        positions, balancer = _balance_case(engine, apc, n_nodes, seed)
        comparison = balancer.compare(positions, per_atom_time, rng=seed)
        for lb_label in ("no", "yes"):
            stats = comparison[lb_label]
            atom_stats = stats.atom_stats().summary()
            pair_stats = stats.pair_time_stats()
            # Pair times reported in the paper's unit of 0.01 s.
            scale = 100.0
            table.add_row(
                f"{apc} atom/core",
                lb_label,
                "pair",
                pair_stats["min"] * scale,
                pair_stats["avg"] * scale,
                pair_stats["max"] * scale,
                pair_stats["sdmr%"],
            )
            table.add_row(
                f"{apc} atom/core",
                lb_label,
                "natom",
                atom_stats["min"],
                atom_stats["avg"],
                atom_stats["max"],
                atom_stats["sdmr%"],
            )
    return table


def fig10_pair_time_distribution(
    system_name: str = "copper",
    atoms_per_core: tuple[int, ...] = (1, 2, 8),
    n_nodes: int = 96,
    seed: int = 5,
) -> dict[str, np.ndarray]:
    """Fig. 10: the per-rank pair-time distributions with and without balance."""
    engine = DeepMDEngine(get_system(system_name))
    per_atom_time = engine.kernel_model.per_atom_time(atoms_per_thread=1, backend="sve", precision="mix-fp16")
    distributions: dict[str, np.ndarray] = {}
    for apc in atoms_per_core:
        positions, balancer = _balance_case(engine, apc, n_nodes, seed)
        comparison = balancer.compare(positions, per_atom_time, rng=seed)
        distributions[f"{apc}-nolb"] = comparison["no"].pair_times
        distributions[f"{apc}-lb"] = comparison["yes"].pair_times
    return distributions


def dispersion_reduction(system_name: str = "copper", atoms_per_core: int = 1, n_nodes: int = 96, seed: int = 5) -> float:
    """The 79.7 % claim: reduction of the atom-count SDMR by the load balance."""
    positions, balancer = _balance_case(DeepMDEngine(get_system(system_name)), atoms_per_core, n_nodes, seed)
    return balancer.dispersion_reduction(positions)


# ---------------------------------------------------------------------------
# Fig. 11 — strong scaling
# ---------------------------------------------------------------------------

#: Node counts of the paper's strong-scaling study.
FIG11_NODE_COUNTS = [768, 2160, 4608, 6144, 12000]


def fig11_strong_scaling(
    systems: tuple[str, ...] = ("copper", "water"),
    node_counts: list[int] | None = None,
) -> Table:
    """Fig. 11: ns/day and parallel efficiency from 768 to 12,000 nodes."""
    node_counts = node_counts or FIG11_NODE_COUNTS
    config = optimized_config()
    table = Table(
        headers=["system", "nodes", "n_atoms", "atoms/core", "ns/day", "parallel efficiency %"],
        title="Fig. 11 — strong scaling of the optimized code",
    )
    for system_name in systems:
        spec = get_system(system_name)
        engine = DeepMDEngine(spec)
        n_atoms = 540_000 if system_name == "copper" else 558_000
        reports = engine.strong_scaling(config, node_counts, n_atoms=n_atoms)
        efficiencies = parallel_efficiency([r.ns_day for r in reports], node_counts)
        for report, eff in zip(reports, efficiencies):
            table.add_row(
                system_name,
                report.n_nodes,
                report.n_atoms,
                round(report.atoms_per_core, 3),
                report.ns_day,
                100.0 * eff,
            )
    return table


def end_to_end_speedup(system_name: str = "copper", n_nodes: int = 12_000, n_atoms: int = 540_000) -> float:
    """The 31.7x claim: optimized vs baseline configuration at full scale."""
    engine = DeepMDEngine(get_system(system_name))
    optimized = engine.step_report(optimized_config(), n_nodes, n_atoms=n_atoms)
    baseline = engine.step_report(baseline_config(), n_nodes, n_atoms=n_atoms)
    return optimized.ns_day / baseline.ns_day


# ---------------------------------------------------------------------------
# Claims summary (abstract-level numbers)
# ---------------------------------------------------------------------------

def claims_summary() -> dict[str, float]:
    """The abstract's headline claims, re-derived from the model."""
    copper_engine = DeepMDEngine(copper_spec())
    water_engine = DeepMDEngine(water_spec())
    optimized = optimized_config()
    copper_12k = copper_engine.step_report(optimized, 12_000, n_atoms=540_000)
    water_12k = water_engine.step_report(optimized, 12_000, n_atoms=558_000)
    return {
        "communication_reduction_fraction": communication_reduction(),
        "computation_speedup": computation_speedup(),
        "load_balance_dispersion_reduction": dispersion_reduction(),
        "end_to_end_speedup": end_to_end_speedup(),
        "copper_ns_day_12000_nodes": copper_12k.ns_day,
        "water_ns_day_12000_nodes": water_12k.ns_day,
    }
