"""One entry point per table/figure of the paper's evaluation.

Every function returns plain data (:class:`~repro.utils.tables.Table` or
dictionaries).  Physics experiments (Table II, Fig. 6) train a small Deep
Potential on the pseudo-AIMD water reference; performance experiments
(Figs. 7-11, Tables I and III, :func:`claims_summary`) run the decomposition
+ machine model through the functions of :mod:`repro.core.engine` and
:mod:`repro.perfmodel` on the paper's one grid (the module constants below),
so they take no arguments.  ``tests/test_paper_figures.py`` asserts the
paper's qualitative claims on each and prints it under ``pytest -s``.
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
from ..perfmodel.kernels import per_atom_time
from ..perfmodel.loadbalance import balance_comparison, sdmr_reduction
from ..perfmodel.machine import FUGAKU, message_occupancy, nic_cache_penalty, tni_makespan, wire_latency
from ..perfmodel.strongscaling import parallel_efficiency
from ..training import Trainer, generate_water_dataset
from ..utils.tables import Table
from .config import baseline_config, fig9_stage_configs, optimized_config
from .engine import optimization_ladder, step_report, strong_scaling, topology_for
from .errors import energy_error_per_atom, force_rmse, precision_error_table
from .systems import copper_spec, get_system, water_spec

# ---------------------------------------------------------------------------
# The paper's grids, shared by several figures
# ---------------------------------------------------------------------------

#: Node count of the Fig. 7, Fig. 9, Fig. 10 and Table III runs.
SMALL_SCALE_NODES = 96
#: Atoms per core of the Fig. 9, Fig. 10 and Table III cases.
ATOMS_PER_CORE = (1, 2, 8)
#: Node count of the full-scale runs (Table I, the end of Fig. 11).
FULL_SCALE_NODES = 12_000
#: Atoms of the full-scale copper and water systems.
FULL_SCALE_ATOMS = {"copper": 540_000, "water": 558_000}

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


def table1_packages() -> Table:
    """Table I: literature values plus this work's modelled rows."""
    table = Table(
        headers=["Work", "Year", "Pot", "System", "#atoms", "Resources", "ns/day"],
        title="Table I — performance of typical NNMD packages",
    )
    for row in TABLE1_LITERATURE:
        work, year, pot, system, atoms, resources, nsday = row
        table.add_row(work, year, pot, system, atoms, resources, nsday if nsday is not None else "unknown")

    config = optimized_config()
    for system_name, n_atoms in FULL_SCALE_ATOMS.items():
        report = step_report(get_system(system_name), config, FULL_SCALE_NODES, n_atoms=n_atoms)
        table.add_row(
            "This work (model)",
            2024,
            "DP",
            "Cu" if system_name == "copper" else "H2O",
            report.n_atoms,
            f"{FULL_SCALE_NODES * 48 / 1000:.0f}K cores (Fugaku, modelled)",
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

#: Cutoffs [A] of the Fig. 7 configurations.
FIG7_CUTOFFS = (8.0, 10.0)
#: Sub-box sides of the Fig. 7 configurations, in units of the cutoff.
FIG7_SUBBOX_FACTORS = ((1, 1, 1), (0.5, 0.5, 1), (0.5, 0.5, 0.5))


def _fig7_decomposition(cutoff: float, factors) -> SpatialDecomposition:
    """The paper's small-scale node grid with sub-box sides ``factors * cutoff``."""
    return subbox_decomposition(RankTopology(RankTopology.paper_topologies()[SMALL_SCALE_NODES]), cutoff, factors)


def fig7_comm_schemes() -> Table:
    """Fig. 7: modelled ghost-exchange time per scheme and configuration (copper density)."""
    density = copper_spec().atom_density
    table = Table(
        headers=["cutoff", "sub-box (r_cut units)", "scheme", "time [us]", "relative to baseline"],
        title=f"Fig. 7 — step-by-step communication optimization ({SMALL_SCALE_NODES} nodes)",
    )
    for cutoff in FIG7_CUTOFFS:
        for factors in FIG7_SUBBOX_FACTORS:
            decomposition = _fig7_decomposition(cutoff, factors)
            times = {label: exchange_time(plan_exchange(label, decomposition, cutoff, density)) for label in SCHEMES}
            base = times["baseline"]
            for label, seconds in times.items():
                table.add_row(cutoff, str(tuple(factors)), label, seconds * 1.0e6, seconds / base)
    return table


# ---------------------------------------------------------------------------
# Fig. 8 — RDMA memory pool vs per-neighbour registration
# ---------------------------------------------------------------------------

#: Neighbour counts of the Fig. 8 sweep.
FIG8_NEIGHBOR_COUNTS = (26, 44, 60, 80, 100, 124)
#: Exchange iterations each Fig. 8 time covers.
FIG8_ITERATIONS = 10_000
#: Payload of each Fig. 8 message.
FIG8_PAYLOAD_BYTES = 8


def fig8_memory_pool() -> Table:
    """Fig. 8: communication time over ``FIG8_ITERATIONS`` tiny messages per neighbour.

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
        for n_neighbors in FIG8_NEIGHBOR_COUNTS:
            regions = 1 if pooled else 2 * n_neighbors
            penalty = nic_cache_penalty(FUGAKU.nic_cache, regions)
            per_message = message_occupancy(network, FIG8_PAYLOAD_BYTES, registration_penalty=penalty)
            # Messages to the neighbours are issued in turn on the 6 TNIs.
            per_iteration = tni_makespan(network, [per_message] * n_neighbors) + wire_latency(network)
            total = per_iteration * FIG8_ITERATIONS
            table.add_row(n_neighbors, label, regions, total, per_message * 1.0e6)
    return table


# ---------------------------------------------------------------------------
# Fig. 9 — step-by-step computation optimization
# ---------------------------------------------------------------------------

def fig9_computation() -> Table:
    """Fig. 9: ns/day per optimization stage, system and atoms-per-core."""
    table = Table(
        headers=["system", "atoms/core", "stage", "ns/day", "speedup vs baseline", "step time [ms]"],
        title=f"Fig. 9 — step-by-step computation optimization ({SMALL_SCALE_NODES} nodes)",
    )
    configs = fig9_stage_configs()
    for system_name in ("copper", "water"):
        system = get_system(system_name)
        for apc in ATOMS_PER_CORE:
            reports = optimization_ladder(system, configs, SMALL_SCALE_NODES, apc)
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


# ---------------------------------------------------------------------------
# Fig. 10 + Table III — intra-node load balance
# ---------------------------------------------------------------------------

#: Seed of the Table III / Fig. 10 coordinates and pair-time jitter.
BALANCE_SEED = 5


def _balance_case(system, atoms_per_core: int):
    """``(positions, decomposition)`` of one Table III / Fig. 10 case of ``system``.

    ``atoms_per_core`` atoms per core on the optimized configuration's
    ``SMALL_SCALE_NODES``-node grid, placed with ``BALANCE_SEED``.
    """
    topology = topology_for(SMALL_SCALE_NODES, optimized_config())
    n_atoms = system.atoms_for_cores(topology.n_cores, atoms_per_core)
    positions, box = system.build_positions(n_atoms, rng=BALANCE_SEED)
    return positions, SpatialDecomposition(box, topology)


def _balance_comparisons(system):
    """``{atoms per core: balance_comparison}`` over ``ATOMS_PER_CORE`` for ``system``."""
    per_atom = per_atom_time(system, optimized_config(), 1)
    comparisons = {}
    for apc in ATOMS_PER_CORE:
        positions, decomposition = _balance_case(system, apc)
        comparisons[apc] = balance_comparison(decomposition, positions, per_atom, rng=BALANCE_SEED)
    return comparisons


def table3_loadbalance() -> Table:
    """Table III: pair time and atom numbers across MPI ranks, lb vs nolb (water)."""
    table = Table(
        headers=["case", "lb", "metric", "min", "avg", "max", "SDMR%"],
        title="Table III — pair time and atom numbers across MPI ranks (water)",
    )
    for apc, comparison in _balance_comparisons(water_spec()).items():
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


def fig10_pair_time_distribution() -> dict[str, np.ndarray]:
    """Fig. 10: the per-rank pair-time distributions with and without balance (copper)."""
    distributions: dict[str, np.ndarray] = {}
    for apc, comparison in _balance_comparisons(copper_spec()).items():
        distributions[f"{apc}-nolb"] = comparison["no"].pair_times
        distributions[f"{apc}-lb"] = comparison["yes"].pair_times
    return distributions


# ---------------------------------------------------------------------------
# Fig. 11 — strong scaling
# ---------------------------------------------------------------------------

#: Node counts of the paper's strong-scaling study.
FIG11_NODE_COUNTS = [768, 2160, 4608, 6144, FULL_SCALE_NODES]


def fig11_strong_scaling() -> Table:
    """Fig. 11: ns/day and parallel efficiency from 768 to 12,000 nodes."""
    config = optimized_config()
    table = Table(
        headers=["system", "nodes", "n_atoms", "atoms/core", "ns/day", "parallel efficiency %"],
        title="Fig. 11 — strong scaling of the optimized code",
    )
    for system_name, n_atoms in FULL_SCALE_ATOMS.items():
        reports = strong_scaling(get_system(system_name), config, FIG11_NODE_COUNTS, n_atoms)
        efficiencies = parallel_efficiency([r.ns_day for r in reports], FIG11_NODE_COUNTS)
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


# ---------------------------------------------------------------------------
# Claims summary (abstract-level numbers)
# ---------------------------------------------------------------------------

def claims_summary() -> dict[str, float]:
    """The abstract's headline claims, re-derived from the model (copper unless named).

    The communication time lb-4l removes at cutoff 8 and 0.5 r_cut sub-boxes
    (paper: 81 %), the sve-fp16 over baseline speed-up and the load balance's
    atom-count SDMR reduction at 1 atom/core (14.11x, 79.7 %), the optimized
    over baseline speed-up at full scale (31.7x over the prior state of the
    art) and the full-scale ns/day of copper and water (149, 68.5).
    """
    copper, optimized = copper_spec(), optimized_config()

    cutoff, factors = FIG7_CUTOFFS[0], FIG7_SUBBOX_FACTORS[-1]
    decomposition = _fig7_decomposition(cutoff, factors)
    comm = {
        label: exchange_time(plan_exchange(label, decomposition, cutoff, copper.atom_density))
        for label in ("baseline", "lb-4l")
    }

    ladder = optimization_ladder(copper, fig9_stage_configs(), SMALL_SCALE_NODES, 1)
    by_stage = {report.config_name: report.ns_day for report in ladder}

    positions, decomposition = _balance_case(copper, 1)

    copper_full = step_report(copper, optimized, FULL_SCALE_NODES, n_atoms=FULL_SCALE_ATOMS["copper"])
    copper_baseline = step_report(copper, baseline_config(), FULL_SCALE_NODES, n_atoms=FULL_SCALE_ATOMS["copper"])
    water_full = step_report(water_spec(), optimized, FULL_SCALE_NODES, n_atoms=FULL_SCALE_ATOMS["water"])
    return {
        "communication_reduction_fraction": 1.0 - comm["lb-4l"] / comm["baseline"],
        "computation_speedup": by_stage["sve-fp16"] / by_stage["baseline"],
        "load_balance_dispersion_reduction": sdmr_reduction(decomposition, positions),
        "end_to_end_speedup": copper_full.ns_day / copper_baseline.ns_day,
        "copper_ns_day_12000_nodes": copper_full.ns_day,
        "water_ns_day_12000_nodes": water_full.ns_day,
    }
