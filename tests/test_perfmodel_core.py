"""Performance model and engine; the six headline claims pinned bit for bit.

The figures and tables built on them are checked in ``tests/test_paper_figures.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    baseline_config,
    copper_spec,
    optimization_ladder,
    optimized_config,
    step_report,
    water_spec,
)
from repro.core.config import FIG9_STAGES, OptimizationConfig, fig9_stage_configs
from repro.core.engine import StepReport, topology_for
from repro.core.errors import energy_error_per_atom, force_rmse, precision_error_table
from repro.core.experiments import claims_summary
from repro.core.systems import get_system
from repro.parallel.decomposition import sdmr_percent
from repro.parallel.topology import RankTopology
from repro.perfmodel import exchange_time, scaling_table
from repro.perfmodel.exchange import SCHEMES, exchange_breakdown, plan_exchange, subbox_decomposition
from repro.perfmodel.kernels import per_atom_flops, per_atom_time, rank_compute_time
from repro.perfmodel.machine import FUGAKU
from repro.perfmodel.strongscaling import parallel_efficiency

#: ``repr`` of each ``claims_summary()`` value, recorded before the step was
#: priced by plain functions: a refactor of the pricing layer keeps every bit.
CLAIMS_AT_RECORDING = {
    "communication_reduction_fraction": 0.7405920832124593,
    "computation_speedup": 9.871936031313211,
    "load_balance_dispersion_reduction": 0.5138982657609152,
    "end_to_end_speedup": 11.832007551071788,
    "copper_ns_day_12000_nodes": 124.43854215611832,
    "water_ns_day_12000_nodes": 91.05232312665221,
}


class TestKernelCosts:
    def test_flop_counts_scale_with_network_size(self):
        config = optimized_config()
        small = replace(copper_spec(), fitting_sizes=(120, 120, 120), neighbors_per_atom=64)
        large = replace(copper_spec(), fitting_sizes=(240, 240, 240), neighbors_per_atom=64)
        assert per_atom_flops(large, config).fitting_forward > per_atom_flops(small, config).fitting_forward
        assert per_atom_flops(small, config).total > 0

    def test_compression_removes_embedding_work(self):
        config = optimized_config()
        compressed = per_atom_flops(copper_spec(), config)
        full = per_atom_flops(copper_spec(), config.derive("full", compressed_embedding=False))
        assert compressed.embedding_forward < full.embedding_forward

    def test_compressed_flops_reconciled_with_real_kernel(self):
        """The priced Hermite op counts are the real batched kernel's
        constants (repro.deepmd.compression), not an independent guess."""
        from repro.deepmd.compression import (
            EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT,
            HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT,
            HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR,
            HERMITE_VALUE_FLOPS_PER_COMPONENT,
            HERMITE_VALUE_FLOPS_PER_NEIGHBOR,
        )

        system = copper_spec()
        flops = per_atom_flops(system, optimized_config())
        n, m = system.neighbors_per_atom, system.embedding_sizes[-1]
        assert flops.embedding_forward == pytest.approx(
            (HERMITE_VALUE_FLOPS_PER_COMPONENT * m + HERMITE_VALUE_FLOPS_PER_NEIGHBOR) * n
        )
        assert flops.embedding_backward == pytest.approx(
            (
                (HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT + EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT) * m
                + HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR
            )
            * n
        )
        # the 4-term cubic Hermite combination: 4 multiplies + 3 adds
        assert HERMITE_VALUE_FLOPS_PER_COMPONENT == 7.0
        assert HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT == 7.0

    def test_optimization_ladder_monotonic_per_atom_time(self):
        # the five compute stages of Fig. 9: baseline, rmtf-fp64, blas-fp32, sve-fp32, sve-fp16
        times = [per_atom_time(copper_spec(), config, 1) for config in fig9_stage_configs()[:5]]
        assert times[0] > times[1] > times[2] > times[3] > times[4] > 0

    def test_framework_adds_fixed_overhead(self):
        system = replace(copper_spec(), neighbors_per_atom=128)
        without = baseline_config().derive("rmtf", use_framework=False)
        framework_cost = rank_compute_time(system, baseline_config(), 12) - rank_compute_time(system, without, 12)
        assert framework_cost > 3.5e-3  # the ~4 ms session cost

    def test_rank_compute_time_increases_with_atoms(self):
        system = replace(copper_spec(), neighbors_per_atom=128)
        config = baseline_config()
        assert rank_compute_time(system, config, 24) > rank_compute_time(system, config, 12)
        with pytest.raises(ValueError):
            rank_compute_time(system, config, -1)
        with pytest.raises(ValueError):
            per_atom_time(system, config, 0)

    def test_unbatched_inference_never_beats_batched(self):
        # atom-at-a-time inference degrades every fitting GEMM to M=1; with a
        # whole rank of atoms per thread the batched path must win, and with a
        # single atom per thread the two layouts coincide.
        system = replace(copper_spec(), neighbors_per_atom=128)
        batched = baseline_config().derive("batched", use_framework=False)
        unbatched = batched.derive("unbatched", batched_inference=False)
        assert rank_compute_time(system, unbatched, 240) > rank_compute_time(system, batched, 240)
        assert rank_compute_time(system, unbatched, 1) == pytest.approx(rank_compute_time(system, batched, 1))


class TestExchangeTime:
    def _plan(self, label, factors):
        decomposition = subbox_decomposition(RankTopology((4, 6, 4)), 8.0, factors)
        return plan_exchange(label, decomposition, 8.0, copper_spec().atom_density)

    def test_fig7_qualitative_orderings(self):
        labels = ("baseline", "3stage-utofu", "p2p-utofu", "lb-1l", "lb-4l", "sg-lb-4l", "ref-4l")
        times = {n: exchange_time(self._plan(n, (0.5, 0.5, 0.5))) for n in labels}
        # baseline (MPI 3-stage) is the slowest in the strong-scaling regime
        assert all(times["baseline"] > t for name, t in times.items() if name != "baseline")
        # the node-based scheme with 4 leaders beats both rank-level patterns
        assert times["lb-4l"] < times["3stage-utofu"]
        assert times["lb-4l"] < times["p2p-utofu"]
        # fewer leaders / single-thread communication are slower
        assert times["lb-1l"] > times["lb-4l"]
        assert times["sg-lb-4l"] > times["lb-4l"]
        # the original atomic organization performs about the same (+-15 %)
        assert times["ref-4l"] == pytest.approx(times["lb-4l"], rel=0.15)

    def test_node_scheme_loses_at_large_subboxes(self):
        node = exchange_time(self._plan("lb-4l", (1, 1, 1)))
        p2p = exchange_time(self._plan("p2p-utofu", (1, 1, 1)))
        assert node > p2p  # the paper's [1,1,1] r_cut observation

    def test_breakdown_components_nonnegative(self):
        plan = self._plan("lb-4l", (0.5, 0.5, 1))
        breakdown = exchange_breakdown(plan, FUGAKU)
        assert list(breakdown) == ["gather", "network", "scatter", "sync", "reverse"]
        assert all(value >= 0.0 for value in breakdown.values())
        assert exchange_time(plan) == pytest.approx(sum(breakdown.values()))


class TestStepReportAndScaling:
    def _report(self, phases, timestep_fs=1.0):
        return StepReport("x", "copper", 1, 1, 1.0, timestep_fs, phases, {})

    def test_step_report_sums_phases_into_ns_day(self):
        one = self._report({"pair": 1e-3})
        two = self._report({"pair": 1e-3, "comm": 1e-3})
        assert one.ns_day == pytest.approx(86.4)
        assert two.ns_day == pytest.approx(43.2)
        assert two.step_time_ms == pytest.approx(2.0)
        assert self._report({"pair": 1e-3}, timestep_fs=0.5).ns_day == pytest.approx(43.2)

    def test_parallel_efficiency_definition(self):
        eff = parallel_efficiency([10.0, 40.0], [100, 800])
        assert eff[0] == pytest.approx(1.0)
        assert eff[1] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            parallel_efficiency([1.0], [1, 2])
        # a repeated node count keeps its own entry, in input order
        assert parallel_efficiency([10.0, 18.0, 18.0], [100, 200, 200]) == pytest.approx([1.0, 0.9, 0.9])
        assert parallel_efficiency([18.0, 10.0], [200, 100]) == pytest.approx([0.9, 1.0])
        table = scaling_table([100, 800], [10.0, 40.0], "copper", baseline_ns_day=5.0)
        assert len(table) == 2
        assert table.to_records()[1]["speedup vs baseline"] == pytest.approx(8.0)


class TestConfigs:
    def test_stage_ladder_names(self):
        assert FIG9_STAGES == ["baseline", "rmtf-fp64", "blas-fp32", "sve-fp32", "sve-fp16", "comm_nolb", "comm_lb"]
        stages = fig9_stage_configs()
        assert stages[0].use_framework and not stages[1].use_framework
        assert stages[-1].load_balance and not stages[-2].load_balance

    def test_config_validation_and_derive(self):
        with pytest.raises(ValueError):
            OptimizationConfig(name="x", precision="fp8")
        with pytest.raises(ValueError):
            OptimizationConfig(name="x", gemm_backend="tpu")
        with pytest.raises(KeyError, match=r"unknown communication scheme 'lb-4x'.*'lb-4l'"):
            OptimizationConfig(name="x", comm_scheme="lb-4x")
        for label in SCHEMES:
            assert OptimizationConfig(name="x", comm_scheme=label).comm_scheme == label
        derived = optimized_config().derive("alt", precision="double")
        assert derived.precision == "double"
        assert optimized_config().comm_scheme == "lb-4l"
        assert baseline_config().comm_scheme == "baseline"


class TestSystems:
    def test_copper_and_water_specs(self):
        copper = copper_spec()
        water = water_spec()
        assert copper.cutoff == 8.0 and water.cutoff == 6.0
        assert copper.timestep_fs == 1.0 and water.timestep_fs == 0.5
        assert copper.neighbors_per_atom == 512
        # densities: copper ~0.0847 atoms/A^3, water ~0.1 atoms/A^3
        assert copper.atom_density == pytest.approx(0.0847, abs=0.001)
        assert water.atom_density == pytest.approx(0.10, abs=0.01)
        with pytest.raises(KeyError):
            get_system("helium")

    def test_build_positions_counts_and_density(self):
        spec = copper_spec()
        positions, box = spec.build_positions(5000, rng=0)
        assert abs(len(positions) - 5000) / 5000 < 0.1
        assert len(positions) / box.volume == pytest.approx(spec.atom_density, rel=0.05)
        wspec = water_spec()
        wpos, wbox = wspec.build_positions(3000, rng=1)
        assert len(wpos) % 3 == 0
        assert len(wpos) / wbox.volume == pytest.approx(wspec.atom_density, rel=0.05)


class TestEngineAndExperiments:
    def test_step_report_structure(self):
        report = step_report(copper_spec(), optimized_config(), n_nodes=96, atoms_per_core=1)
        assert report.n_nodes == 96
        assert report.ns_day > 0
        assert {"pair", "comm"} <= set(report.phases)
        assert report.rank_count_stats["max"] >= report.rank_count_stats["avg"]

    def test_topology_models_exactly_the_requested_nodes(self):
        config = optimized_config()
        for n_nodes in (8, 64, 96, 100, 1000, 12_000):
            assert topology_for(n_nodes, config).n_nodes == n_nodes
        for n_nodes, product in ((50, 48), (200, 180), (500, 448)):
            with pytest.raises(ValueError, match=rf"cannot model {n_nodes} nodes.*holds {product}"):
                topology_for(n_nodes, config)
        with pytest.raises(ValueError, match="cannot model 50 nodes"):
            step_report(copper_spec(), config, n_nodes=50, n_atoms=1000)

    def test_optimization_ladder_is_monotonic(self):
        reports = optimization_ladder(copper_spec(), fig9_stage_configs(), n_nodes=96, atoms_per_core=1)
        ns_day = [r.ns_day for r in reports]
        assert all(b >= a * 0.999 for a, b in zip(ns_day, ns_day[1:]))
        # overall speedup of the full ladder is large (paper: >10x at 1-2 atoms/core)
        assert ns_day[-1] / ns_day[0] > 8.0

    def test_optimization_ladder_builds_its_positions_once(self):
        """Every bar asks for the first bar's atom count, so the seeded
        positions are built once even when the lattice rounds the count."""
        from repro.core.engine import _seeded_positions

        _seeded_positions.cache_clear()
        reports = optimization_ladder(copper_spec(), fig9_stage_configs(), n_nodes=96, atoms_per_core=8)
        assert _seeded_positions.cache_info().misses == 1
        assert len(reports) == len(fig9_stage_configs())
        asked = copper_spec().atoms_for_cores(topology_for(96, fig9_stage_configs()[0]).n_cores, 8)
        assert len(_seeded_positions(copper_spec(), asked)[0]) != asked  # the lattice did round

    def test_claims_summary_is_bit_for_bit_the_recorded_model(self):
        claims = claims_summary()
        assert list(claims) == list(CLAIMS_AT_RECORDING)
        for name, value in CLAIMS_AT_RECORDING.items():
            assert claims[name] == value, name

    def test_a_second_machine_spec_prices_differently(self):
        slow_network = replace(FUGAKU, network=replace(FUGAKU.network, hop_latency=2 * FUGAKU.network.hop_latency))
        slow_node = replace(FUGAKU, node=replace(FUGAKU.node, clock_hz=FUGAKU.node.clock_hz / 2))
        config = optimized_config()
        fugaku = step_report(copper_spec(), config, 96, atoms_per_core=1).phases
        network = step_report(copper_spec(), config, 96, atoms_per_core=1, machine=slow_network).phases
        node = step_report(copper_spec(), config, 96, atoms_per_core=1, machine=slow_node).phases
        assert network["pair"] == fugaku["pair"] and network["comm"] > fugaku["comm"]
        assert node["pair"] > fugaku["pair"] and node["comm"] == fugaku["comm"]

class TestAnalysis:
    def test_error_metrics(self):
        assert energy_error_per_atom(-10.0, -10.5, 10) == pytest.approx(0.05)
        forces_a = np.zeros((4, 3))
        forces_b = np.full((4, 3), 0.1)
        assert force_rmse(forces_a, forces_b) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            force_rmse(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            energy_error_per_atom(1.0, 1.0, 0)

    def test_sdmr_and_table(self):
        assert sdmr_percent([5, 5, 5]) == 0.0
        assert sdmr_percent([]) == 0.0
        assert sdmr_percent([1, 3]) > 0.0
        table = precision_error_table({"Double": {"energy": 1e-3, "force": 4e-2}})
        assert "Double" in table.to_text()
