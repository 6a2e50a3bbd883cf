"""Mixed precision as a *production fast path*, pinned the house way.

The regression story of this suite:

* **effective compute dtype** — ``evaluate(compressed=True,
  precision="mix-fp32")`` used to run pure fp64 while ``describe()`` reported
  ``"mix-fp32"``.  The GEMM dtype accounting
  (:attr:`GemmStats.flops_by_dtype`), the table's per-dtype evaluation
  counters and the ``table_dtype`` field of ``describe()`` must all agree on
  what actually executes;
* **once-per-policy operand caches** — the low-precision weight/bias/table
  copies are built exactly once per policy and live as long as the frozen
  weights they were cast from; steady-state mixed GEMMs see zero in-call operand
  casts (``GemmStats.cast_bytes``) — the per-call ``astype`` churn is gone;
* **Table II tolerances** — MIX-fp32 / MIX-fp16 energy/force RMSE vs the
  fp64 golden output, on both the uncompressed and the compressed path,
  inside documented bounds;
* **RDF-level physics** — short water MD under double and MIX-fp32 yields
  overlapping radial distribution functions (the paper's Fig. 6 claim, at
  test scale, a la ``examples/water_precision_rdf.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.deepmd import (
    DeepPotential,
    DeepPotentialConfig,
    DeepPotentialForceField,
)
from repro.deepmd.gemm import GemmBackend
from repro.md import LangevinThermostat, Simulation, water_system
from repro.md.neighbor import build_neighbor_data
from repro.md.rdf import radial_distribution_function, rdf_overlap_error
from repro.md.workspace import Workspace

#: Documented MIX-fp32 RMSE bounds vs the fp64 golden evaluate (measured
#: ~2e-9 force / ~1e-8 energy uncompressed, ~4e-7 / ~1e-8 compressed —
#: the compressed path adds the fp32 rounding of the packed table nodes).
FP32_FORCE_RMSE = 1.0e-6
FP32_ENERGY_RMSE = 1.0e-6
#: Documented MIX-fp16 RMSE bounds (measured ~7e-6 force / ~6e-4 energy).
FP16_FORCE_RMSE = 1.0e-3
FP16_ENERGY_RMSE = 1.0e-2
#: Max mean |g_double(r) - g_mix(r)| over the O-O / O-H / H-H RDF curves of
#: a short MD run (the curves must overlap; measured well below this).
RDF_OVERLAP_TOL = 0.15


def _water_model(seed: int = 3):
    atoms, box, _ = water_system(32, rng=seed)
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=4.2,
        cutoff_smooth=3.4,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=64,
        seed=seed,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(1000 + seed)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(2, config.descriptor_dim)),
        0.5 + rng.random((2, config.descriptor_dim)),
    )
    model.set_energy_bias(rng.normal(size=2))
    neighbors = build_neighbor_data(atoms.positions, box, config.cutoff)
    return model, atoms, box, neighbors


class TestEffectiveComputeDtype:
    """describe() must report the dtype that actually executes."""

    def test_compressed_mix_fp32_actually_runs_fp32(self):
        """Regression: the compressed table path honours the policy."""
        model, atoms, box, neighbors = _water_model()
        backend = GemmBackend()
        ff = DeepPotentialForceField(
            model, precision="mix-fp32", gemm_backend=backend, compressed=True
        )
        info = ff.describe()
        assert info["precision"] == "mix-fp32"
        assert info["table_dtype"] == "fp32"

        ff.compute(atoms, box, neighbors)
        flops = backend.stats.flops_by_dtype
        # every GEMM of the step ran at the advertised precision
        assert flops.get("fp32", 0.0) > 0.0
        assert flops.get("fp64", 0.0) == 0.0
        # and so did every batched table interpolation
        table = ff._table
        assert table.eval_dtype_counts.get("fp32", 0) > 0
        assert table.eval_dtype_counts.get("fp64", 0) == 0
        assert "fp32" in table.packed_dtypes()

    def test_double_reports_and_runs_fp64(self):
        model, atoms, box, neighbors = _water_model()
        backend = GemmBackend()
        ff = DeepPotentialForceField(model, gemm_backend=backend, compressed=True)
        assert ff.describe()["table_dtype"] == "fp64"
        ff.compute(atoms, box, neighbors)
        assert backend.stats.flops_by_dtype.get("fp64", 0.0) > 0.0
        assert backend.stats.flops_by_dtype.get("fp32", 0.0) == 0.0
        table = ff._table
        assert table.eval_dtype_counts.get("fp64", 0) > 0
        assert table.eval_dtype_counts.get("fp32", 0) == 0
        assert ff.describe()["table_dtype"] == "fp64"

    def test_mix_fp16_first_fitting_gemm_is_fp16(self):
        model, atoms, box, neighbors = _water_model()
        backend = GemmBackend()
        model.evaluate(atoms, box, neighbors, precision="mix-fp16", backend=backend)
        flops = backend.stats.flops_by_dtype
        assert flops.get("fp16", 0.0) > 0.0  # the first fitting GEMM (fwd+bwd)
        assert flops.get("fp32", 0.0) > 0.0  # everything else
        assert flops.get("fp64", 0.0) == 0.0

    def test_uncompressed_table_dtype_not_reported(self):
        model, _, _, _ = _water_model()
        ff = DeepPotentialForceField(model, precision="mix-fp32", compressed=False)
        assert ff.describe()["table_dtype"] is None


class TestOperandCaches:
    """Low-precision operands are cast once per policy, not per call."""

    def test_weight_caches_built_once_and_no_gemm_casts(self):
        model, atoms, box, neighbors = _water_model()
        backend = GemmBackend()
        for _ in range(3):
            model.evaluate(atoms, box, neighbors, precision="mix-fp32", backend=backend)
        for net in list(model.fast_embeddings().values()) + list(model.fast_fittings().values()):
            assert net.lp_cache_builds <= 1
        # under MIX-fp32 every operand reaches the GEMM already in fp32:
        # the in-call astype fallback (the pre-fix churn) never fires
        assert backend.stats.cast_bytes == 0.0

    def test_table_cast_once_across_evaluations(self):
        model, atoms, box, neighbors = _water_model()
        for _ in range(3):
            model.evaluate(atoms, box, neighbors, precision="mix-fp32", compressed=True)
        table = model.active_compressed_embeddings()
        assert table.eval_dtype_counts.get("fp32", 0) >= 3
        # exactly one reduced copy exists, shared by all evaluations
        assert table.packed_dtypes() == ("fp64", "fp32")
        packed_before = table.ensure_packed(np.float32)
        model.evaluate(atoms, box, neighbors, precision="mix-fp32", compressed=True)
        assert table.ensure_packed(np.float32) is packed_before

    def test_mixed_workspace_steady_state_reuses_buffers(self):
        model, atoms, box, neighbors = _water_model()
        workspace = Workspace()
        model.evaluate(
            atoms, box, neighbors, precision="mix-fp32", compressed=True, workspace=workspace
        )
        misses = workspace.misses
        for _ in range(2):
            model.evaluate(
                atoms, box, neighbors, precision="mix-fp32", compressed=True, workspace=workspace
            )
        assert workspace.misses == misses, "mixed-precision buffers reallocated in steady state"
        assert workspace.hits > 0


class TestTableIITolerances:
    """Energy/force RMSE vs the fp64 golden output, both inference paths."""

    @pytest.mark.parametrize("compressed", [False, True], ids=["uncompressed", "compressed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rmse_within_documented_bounds(self, compressed, seed):
        model, atoms, box, neighbors = _water_model(seed)
        golden = model.evaluate(atoms, box, neighbors, compressed=compressed)
        for precision, force_rmse_tol, energy_rmse_tol in (
            ("mix-fp32", FP32_FORCE_RMSE, FP32_ENERGY_RMSE),
            ("mix-fp16", FP16_FORCE_RMSE, FP16_ENERGY_RMSE),
        ):
            out = model.evaluate(
                atoms, box, neighbors, precision=precision, compressed=compressed
            )
            force_rmse = float(np.sqrt(np.mean((out.forces - golden.forces) ** 2)))
            energy_rmse = float(
                np.sqrt(np.mean((out.per_atom_energy - golden.per_atom_energy) ** 2))
            )
            assert force_rmse < force_rmse_tol, (precision, compressed, force_rmse)
            assert energy_rmse < energy_rmse_tol, (precision, compressed, energy_rmse)
            # the reductions are fp64 regardless of the compute dtype
            assert out.forces.dtype == np.dtype(np.float64)
            assert out.per_atom_energy.dtype == np.dtype(np.float64)
            assert out.virial.dtype == np.dtype(np.float64)


class TestRDFPhysics:
    """Fig. 6 at test scale: double and MIX-fp32 RDF curves overlap."""

    def _rdf_curves(self, model, precision: str):
        atoms, box, _ = water_system(32, rng=21)
        atoms.initialize_velocities(300.0, rng=21)
        skin = max(0.1, min(1.0, box.max_cutoff() - model.config.cutoff - 0.05))
        sim = Simulation(
            atoms,
            box,
            DeepPotentialForceField(model, precision=precision, compressed=True),
            timestep_fs=0.5,
            neighbor_skin=skin,
            thermostat=LangevinThermostat(300.0, damping_fs=25.0, rng=5),
        )
        sim.run(40, trajectory_every=4)
        r_max = min(6.0, box.max_cutoff())
        return {
            pair: radial_distribution_function(
                sim.trajectory, box, atoms.types, a, b, r_max=r_max, n_bins=40
            )
            for pair, (a, b) in {"OO": (0, 0), "OH": (0, 1), "HH": (1, 1)}.items()
        }

    def test_mix_fp32_rdf_overlaps_double(self):
        model, _, _, _ = _water_model(seed=21)
        double = self._rdf_curves(model, "double")
        mixed = self._rdf_curves(model, "mix-fp32")
        for pair in ("OO", "OH", "HH"):
            error = rdf_overlap_error(double[pair], mixed[pair])
            assert error < RDF_OVERLAP_TOL, (pair, error)
