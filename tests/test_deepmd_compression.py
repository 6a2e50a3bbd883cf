"""Tabulated-compression fast path: batched vs golden tables, analytic
derivatives, the stale-cache and clamped-derivative regressions, convergence
with n_points, and the workspace out-buffer path."""

import hashlib

import numpy as np
import pytest
from blas_kernel import kernel_note

from repro.deepmd import compression
from repro.deepmd.compression import (
    HERMITE_CHUNK_ROWS,
    TabulatedEmbeddingSet,
    analytic_input_jacobian,
)
from repro.deepmd.networks import FastMLP, init_nets
from repro.md import Box, copper_system
from repro.md.atoms import Atoms
from repro.md.neighbor import build_neighbor_data
from repro.md.workspace import Workspace
from repro.reference.deepmd import tabulated_evaluate

GOLDEN_TOLERANCE = 1.0e-12


def _embedding_nets(n_types, sizes, rng):
    """Seeded embedding kernels, one per (centre, neighbour) type pair."""
    return init_nets(np.ndindex(n_types, n_types), 1, sizes, rng=rng)


@pytest.fixture(scope="module")
def two_type_tables():
    """All four (centre, neighbour) tables of a two-species embedding set."""
    nets = _embedding_nets(2, (6, 12), rng=3)
    return TabulatedEmbeddingSet(nets, s_max=2.0, n_points=256), nets


def _copper_case(model, rng=12):
    atoms, box = copper_system((3, 3, 3), perturbation=0.08, rng=rng)
    neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
    return atoms, box, neighbors


class TestBatchedVsGolden:
    @pytest.mark.parametrize("n_rows", [4096, 2500, 0], ids=["whole-blocks", "ragged-last-block", "empty"])
    def test_batched_matches_golden_per_key_path(self, two_type_tables, n_rows):
        """The production stacked evaluator (placement + a loop over the block
        kernel) is pinned to the per-key golden reference at 1e-12, including
        clamped out-of-range inputs, whatever the row count leaves for the
        last block."""
        table, _ = two_type_tables
        rng = np.random.default_rng(0)
        s = rng.uniform(-0.3, 2.5, size=n_rows)  # includes both out-of-range ends
        assert n_rows == 0 or (np.any(s < 0.0) and np.any(s > table.s_max) and n_rows > HERMITE_CHUNK_ROWS)
        for key, slot in table._slot_of.items():
            slots = np.full(s.shape, slot)
            batched_v, batched_d = table.evaluate_batched(slots, s)
            golden_v, golden_d = tabulated_evaluate(table, key, s)
            assert batched_v.shape == batched_d.shape == (n_rows, table.width)
            np.testing.assert_allclose(batched_v, golden_v, rtol=0.0, atol=GOLDEN_TOLERANCE)
            np.testing.assert_allclose(batched_d, golden_d, rtol=0.0, atol=GOLDEN_TOLERANCE)

    def test_mixed_slots_in_one_call(self, two_type_tables):
        """One batched call over a random mixture of all four tables."""
        table, _ = two_type_tables
        rng = np.random.default_rng(1)
        s = rng.uniform(0.0, 2.0, size=(7, 33))
        keys = list(table._slot_of)
        choice = rng.integers(0, len(keys), size=s.shape)
        slots = np.array([table._slot_of[k] for k in keys])[choice]
        values, derivs = table.evaluate_batched(slots, s)
        assert values.shape == (*s.shape, table.width)
        for key, slot in table._slot_of.items():
            sel = slots == slot
            golden_v, golden_d = tabulated_evaluate(table, key, s[sel])
            np.testing.assert_allclose(values[sel], golden_v, rtol=0.0, atol=GOLDEN_TOLERANCE)
            np.testing.assert_allclose(derivs[sel], golden_d, rtol=0.0, atol=GOLDEN_TOLERANCE)

    def test_out_buffers_match_returned_arrays(self, two_type_tables):
        table, _ = two_type_tables
        rng = np.random.default_rng(2)
        s = rng.uniform(0.0, 2.0, size=200)
        slots = np.zeros(200, dtype=np.int64)
        ref_v, ref_d = table.evaluate_batched(slots, s)
        out_v = np.empty((200, table.width))
        out_d = np.empty((200, table.width))
        ret_v, ret_d = table.evaluate_batched(slots, s, out_values=out_v, out_derivatives=out_d)
        assert ret_v is out_v and ret_d is out_d
        np.testing.assert_array_equal(out_v, ref_v)
        np.testing.assert_array_equal(out_d, ref_d)
        with pytest.raises(ValueError):
            table.evaluate_batched(slots, s, out_values=out_v)  # buffers come in pairs

    def test_slot_index_padding_and_unknown_types(self, two_type_tables):
        table, _ = two_type_tables
        types = np.array([[0, 1, -1], [1, -1, -1]])
        slots = table.slot_index(0, types)
        assert slots.shape == types.shape
        assert slots[0, 0] == table._slot_of[(0, 0)]
        assert slots[0, 1] == table._slot_of[(0, 1)]
        np.testing.assert_array_equal(slots[types < 0], 0)  # padding maps to slot 0
        with pytest.raises(KeyError):
            table.slot_index(0, np.array([5]))

    def test_model_compressed_evaluation_unchanged_by_batching(self, tiny_water_model):
        """The model-level compressed path (batched) agrees with evaluating
        the golden per-key tables through the same descriptor chain, i.e.
        with the uncompressed path at table accuracy."""
        from repro.md import water_system

        model = tiny_water_model
        atoms, box, _ = water_system(27, rng=5)
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        exact = model.evaluate(atoms, box, neighbors)
        model.compressed_embeddings(n_points=4096)
        compressed = model.evaluate(atoms, box, neighbors, compressed=True)
        np.testing.assert_allclose(compressed.forces, exact.forces, rtol=0.0, atol=1e-8)
        assert compressed.energy == pytest.approx(exact.energy, abs=1e-8)


class TestAnalyticDerivatives:
    def test_jacobian_matches_finite_differences(self):
        nets = _embedding_nets(1, (4, 8), rng=7)
        net = nets[(0, 0)]
        s = np.linspace(0.1, 1.9, 23)
        net.forward(np.array([[0.5]]), cache=True)
        parked = net._cache
        _, jacobian = analytic_input_jacobian(net, s)
        # the build's tape is its own: a tape another caller parked on the
        # shared net is neither replaced nor cleared
        assert net._cache is parked
        step = 1.0e-6
        plus = net.forward((s + step)[:, None], cache=False)
        minus = net.forward((s - step)[:, None], cache=False)
        np.testing.assert_allclose(jacobian, (plus - minus) / (2 * step), atol=1e-7)

    def test_first_node_derivative_is_one_sided_exact(self):
        """The node-0 derivative is the analytic dG/ds at s=0 — the builder
        never evaluates the net at s < 0 (the old centered difference did)."""
        nets = _embedding_nets(1, (4, 8), rng=8)
        net = nets[(0, 0)]
        table = TabulatedEmbeddingSet(nets, s_max=1.0, n_points=64)
        step = 1.0e-6  # one-sided second-order difference, s >= 0 only
        f0 = net.forward(np.array([[0.0]]), cache=False)[0]
        f1 = net.forward(np.array([[step]]), cache=False)[0]
        f2 = net.forward(np.array([[2 * step]]), cache=False)[0]
        one_sided = (-3.0 * f0 + 4.0 * f1 - f2) / (2 * step)
        np.testing.assert_allclose(table.tables[(0, 0)].derivatives[0], one_sided, atol=1e-6)

    def test_table_nodes_are_exact(self):
        """Analytic build makes the table exact at every grid node."""
        nets = _embedding_nets(1, (4, 8), rng=9)
        table = TabulatedEmbeddingSet(nets, s_max=1.5, n_points=32)
        grid = table.tables[(0, 0)].grid
        values, _ = tabulated_evaluate(table, (0, 0), grid)
        exact = nets[(0, 0)].forward(grid[:, None], cache=False)
        np.testing.assert_allclose(values, exact, rtol=0.0, atol=1e-13)


def per_component_jacobian(net, s):
    """The oracle of :func:`analytic_input_jacobian`: one full
    :meth:`FastMLP.backward_input` per output component over one shared
    forward tape (the table build before the layer-wise reverse pass)."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    tape: list = []
    values = net.forward(s[:, None], cache=tape)
    jacobian = np.empty_like(values)
    seed = np.zeros_like(values)
    for component in range(values.shape[1]):
        seed[:, component] = 1.0
        jacobian[:, component] = net.backward_input(seed, cache=tape)[:, 0]
        seed[:, component] = 0.0
    return values, jacobian


def _mlp(layers, rng, scale=1.0):
    """A FastMLP from ``(n_in, n_out, activation, resnet)`` rows, Glorot-ish weights."""
    rng = np.random.default_rng(rng)
    return FastMLP(
        [
            {
                "weight": scale * rng.normal(scale=np.sqrt(2.0 / (n_in + n_out)), size=(n_in, n_out)),
                "bias": rng.normal(scale=0.1, size=n_out),
                "activation": act,
                "resnet": resnet,
            }
            for n_in, n_out, act, resnet in layers
        ]
    )


#: nets covering every residual rule and activation of the reverse pass
JACOBIAN_NETS = {
    "no-resnet": lambda: _mlp([(1, 8, "tanh", False), (8, 16, "tanh", False), (16, 16, "tanh", False)], 1),
    "same-width-resnet": lambda: _mlp([(1, 8, "tanh", False), (8, 8, "tanh", True), (8, 8, "tanh", True)], 2),
    "doubling-resnet": lambda: init_nets([0], 1, (4, 8, 16), rng=3)[0],
    "linear-last-layer": lambda: init_nets([0], 1, (4, 8), out_features=6, rng=4)[0],
    "sigmoid": lambda: _mlp([(1, 6, "sigmoid", False), (6, 12, "sigmoid", True), (12, 12, "sigmoid", True)], 5),
    "softplus": lambda: _mlp([(1, 6, "softplus", False), (6, 6, "softplus", True), (6, 12, "softplus", False)], 6),
    "relu": lambda: _mlp([(1, 6, "relu", False), (6, 12, "relu", True), (12, 10, "relu", False)], 7),
    "one-layer": lambda: _mlp([(1, 2, "tanh", True)], 8),
    # tanh saturated to exactly +-1.0 in the last layer: act' == 0, so the
    # one-hot products are signed zeros, which BLAS returns as +0.0
    "saturated-tanh": lambda: _mlp([(1, 6, "tanh", False), (6, 12, "tanh", False)], 9, scale=60.0),
    "saturated-one-layer": lambda: _mlp([(1, 5, "tanh", False)], 10, scale=400.0),
}


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


class TestLayerwiseJacobianIsThePerComponentLoop:
    """The layer-wise reverse pass is bit-for-bit one backward pass per component."""

    @pytest.mark.parametrize("n_points", [0, 1, 7, 512])
    @pytest.mark.parametrize("name", sorted(JACOBIAN_NETS))
    def test_bitwise_equal_to_the_oracle(self, name, n_points):
        net = JACOBIAN_NETS[name]()
        s = np.linspace(0.0, 2.0, n_points) if n_points > 1 else np.array([0.7])
        values, jacobian = analytic_input_jacobian(net, s)
        oracle_values, oracle_jacobian = per_component_jacobian(net, s)
        np.testing.assert_array_equal(_bits(values), _bits(oracle_values))
        np.testing.assert_array_equal(_bits(jacobian), _bits(oracle_jacobian))

    def test_saturated_nets_exercise_the_sign_of_zero(self):
        for name in ("saturated-tanh", "saturated-one-layer"):
            net = JACOBIAN_NETS[name]()
            tape: list = []
            net.forward(np.linspace(0.0, 2.0, 512)[:, None], cache=tape)
            out = tape[-1]["output"]
            assert np.any(np.abs(out) == 1.0), name
            assert np.any(net.layers[-1].weight < 0.0), name  # so 0 * W has a -0.0
        _, jacobian = analytic_input_jacobian(JACOBIAN_NETS["saturated-one-layer"](), np.linspace(0.0, 2.0, 512))
        zeros = jacobian == 0.0
        assert zeros.any() and not np.signbit(jacobian[zeros]).any()

    @pytest.mark.parametrize("chunk_bytes", [1, 4096, 1 << 40], ids=["one-component", "some", "all"])
    @pytest.mark.parametrize("name", ["same-width-resnet", "doubling-resnet", "linear-last-layer", "relu"])
    def test_chunk_size_never_selects_arithmetic(self, monkeypatch, name, chunk_bytes):
        net = JACOBIAN_NETS[name]()
        s = np.linspace(0.0, 2.0, 512)
        _, expected = per_component_jacobian(net, s)
        monkeypatch.setattr(compression, "JACOBIAN_CHUNK_BYTES", chunk_bytes)
        _, jacobian = analytic_input_jacobian(net, s)
        np.testing.assert_array_equal(_bits(jacobian), _bits(expected))

    @pytest.mark.blas_bound
    def test_packed_tables_keep_their_recorded_bytes(self):
        """sha256 of the packed fp64 table and of its fp32 copy for the
        production-shaped (32, 64, 128) nets at 512 points, recorded on the
        per-component build."""
        nets = init_nets(np.ndindex(2, 2), 1, (32, 64, 128), rng=2024)
        table = TabulatedEmbeddingSet(nets, s_max=2.0, n_points=512)
        packed = table.ensure_packed(np.float64)
        assert packed.shape == (2048, 256) and packed.flags["C_CONTIGUOUS"]
        assert hashlib.sha256(packed.tobytes()).hexdigest() == (
            "d5c16925b51adb969ddf0b3adb7287108fb59d0cb9f31184722b22c8abb7aff4"
        ), kernel_note()
        assert hashlib.sha256(table.ensure_packed(np.float32).tobytes()).hexdigest() == (
            "d9d58496dc47c6feefb5cb7627a9065b3ef60f3066556db3e467f92cdcca4095"
        ), kernel_note()


class TestClampedDerivative:
    def test_derivative_is_zero_outside_range(self, two_type_tables):
        """Constant extrapolation outside [0, s_max] means dG/ds = 0 there;
        returning the end-node derivative made forces inconsistent."""
        table, _ = two_type_tables
        s = np.array([-0.5, -1.0e-9, 0.0, 2.0, 2.0 + 1.0e-9, 5.0])
        values, derivs = tabulated_evaluate(table, (0, 0), s)
        end_lo, _ = tabulated_evaluate(table, (0, 0), np.array([0.0]))
        end_hi, _ = tabulated_evaluate(table, (0, 0), np.array([2.0]))
        np.testing.assert_array_equal(values[0], end_lo[0])
        np.testing.assert_array_equal(values[1], end_lo[0])
        np.testing.assert_array_equal(values[4], end_hi[0])
        np.testing.assert_array_equal(values[5], end_hi[0])
        np.testing.assert_array_equal(derivs[[0, 1, 4, 5]], 0.0)
        assert np.any(derivs[2] != 0.0) and np.any(derivs[3] != 0.0)
        batched_v, batched_d = table.evaluate_batched(np.zeros(len(s), dtype=int), s)
        np.testing.assert_allclose(batched_v, values, rtol=0.0, atol=GOLDEN_TOLERANCE)
        np.testing.assert_allclose(batched_d, derivs, rtol=0.0, atol=GOLDEN_TOLERANCE)

    def test_close_approach_forces_consistent_with_energy(self, tiny_copper_model):
        """A dimer inside min_distance drives s beyond s_max: the compressed
        forces must still be the gradient of the compressed energy."""
        model = tiny_copper_model
        box = Box.cubic(30.0)
        positions = np.array([[15.0, 15.0, 15.0], [15.4, 15.0, 15.0]])
        atoms = Atoms.from_symbols(positions, ["Cu", "Cu"])
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        table = model.compressed_embeddings()  # s_max = 2, while s(0.4 A) = 2.5
        assert 1.0 / 0.4 > table.s_max
        output = model.evaluate(atoms, box, neighbors, compressed=True)
        delta = 1.0e-6
        energies = []
        for sign in (+1, -1):
            trial = atoms.copy()
            trial.positions[0, 0] += sign * delta
            nd = build_neighbor_data(trial.positions, box, model.config.cutoff)
            energies.append(model.evaluate(trial, box, nd, compressed=True).energy)
        numeric = -(energies[0] - energies[1]) / (2 * delta)
        assert output.forces[0, 0] == pytest.approx(numeric, abs=1e-6)


class TestStaleCacheRegression:
    def test_cache_rekeys_on_parameters(self, tiny_copper_model):
        """A second call with different n_points/min_distance must not return
        the stale first table."""
        model = tiny_copper_model
        first = model.compressed_embeddings(n_points=64)
        assert first.n_points == 64
        second = model.compressed_embeddings(n_points=128)
        assert second.n_points == 128
        assert second is not first
        third = model.compressed_embeddings(n_points=128, min_distance=0.25)
        assert third.s_max == pytest.approx(4.0)
        assert third is not second
        # unchanged parameters hit the cache
        assert model.compressed_embeddings(n_points=128, min_distance=0.25) is third

    def test_evaluate_uses_the_active_table(self, tiny_copper_model):
        """evaluate(compressed=True) honours a pre-built custom table instead
        of silently rebuilding the default grid."""
        model = tiny_copper_model
        model.compressed_embeddings(n_points=96)
        assert model.active_compressed_embeddings().n_points == 96
        atoms, box, neighbors = _copper_case(model)
        model.evaluate(atoms, box, neighbors, compressed=True)
        assert model._compressed.n_points == 96  # still the custom table

    def test_pair_style_grid_is_authoritative_at_compute_time(self, tiny_copper_model):
        """A compressed pair style owns its table by reference: another
        consumer rebuilding the shared model's cache slot must not swap the
        grid under a running force field."""
        from repro.deepmd import DeepPotentialForceField

        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model)
        ff = DeepPotentialForceField(model, compressed=True, compression_points=256)
        reference = ff.compute(atoms, box, neighbors)
        model.compressed_embeddings(n_points=16)  # someone else's coarse grid
        swapped = ff.compute(atoms, box, neighbors)
        assert ff._table.n_points == 256
        np.testing.assert_array_equal(swapped.forces, reference.forces)

    def test_two_pair_styles_with_different_grids_do_not_thrash(self, tiny_copper_model):
        """Alternating computes from pair styles with different grids must
        not rebuild the tables every step (each holds its own reference)."""
        from repro.deepmd import DeepPotentialForceField

        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model)
        fine = DeepPotentialForceField(model, compressed=True, compression_points=256)
        coarse = DeepPotentialForceField(model, compressed=True, compression_points=32)
        builds = model.table_cache_builds
        for _ in range(3):
            fine.compute(atoms, box, neighbors)
            coarse.compute(atoms, box, neighbors)
        assert model.table_cache_builds == builds
        assert (fine._table.n_points, coarse._table.n_points) == (256, 32)


class TestCompressionQuality:
    def test_interpolation_errors_reports_both(self, two_type_tables):
        table, nets = two_type_tables
        errors = table.interpolation_errors((0, 0), nets[(0, 0)], rng=0)
        assert errors.value > 0.0 and errors.derivative > 0.0
        assert errors.value < 1e-4 and errors.derivative < 1e-2
        # measured on the kernel production runs, which the per-key golden bounds at 1e-12
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0, table.s_max, size=512)
        exact = nets[(0, 0)].forward(s[:, None], cache=False)
        golden = float(np.max(np.abs(exact - tabulated_evaluate(table, (0, 0), s)[0])))
        assert errors.value == pytest.approx(golden, abs=GOLDEN_TOLERANCE)

    def test_table_errors_decrease_monotonically_with_n_points(self):
        nets = _embedding_nets(1, (6, 12), rng=11)
        value_errors, deriv_errors = [], []
        for n_points in (32, 128, 512):
            table = TabulatedEmbeddingSet(nets, s_max=2.0, n_points=n_points)
            errors = table.interpolation_errors((0, 0), nets[(0, 0)], rng=1)
            value_errors.append(errors.value)
            deriv_errors.append(errors.derivative)
        assert value_errors[0] > value_errors[1] > value_errors[2]
        assert deriv_errors[0] > deriv_errors[1] > deriv_errors[2]

    def test_force_error_converges_to_exact_path(self, tiny_copper_model):
        """n_points sweep: the max force error vs the exact path shrinks
        monotonically toward zero (h^4 Hermite convergence)."""
        model = tiny_copper_model
        atoms, box, neighbors = _copper_case(model, rng=14)
        exact = model.evaluate(atoms, box, neighbors)
        errors = []
        for n_points in (32, 128, 512, 2048):
            model.compressed_embeddings(n_points=n_points)
            compressed = model.evaluate(atoms, box, neighbors, compressed=True)
            errors.append(float(np.max(np.abs(compressed.forces - exact.forces))))
        assert errors[0] > errors[1] > errors[2] > errors[3]
        assert errors[-1] < 1e-9


class TestWorkspacePath:
    def test_workspace_compressed_evaluation_matches_allocating(self, tiny_water_model):
        from repro.md import water_system

        model = tiny_water_model
        atoms, box, _ = water_system(27, rng=6)
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        model.compressed_embeddings()
        reference = model.evaluate(atoms, box, neighbors, compressed=True)
        workspace = Workspace()
        pooled = model.evaluate(atoms, box, neighbors, compressed=True, workspace=workspace)
        np.testing.assert_allclose(pooled.forces, reference.forces, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            pooled.per_atom_energy, reference.per_atom_energy, rtol=0.0, atol=1e-12
        )
        assert pooled.energy == pytest.approx(reference.energy, abs=1e-12)

    def test_workspace_buffers_are_reused_across_calls(self, tiny_water_model):
        from repro.md import water_system

        model = tiny_water_model
        atoms, box, _ = water_system(27, rng=6)
        neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
        model.compressed_embeddings()
        workspace = Workspace()
        model.evaluate(atoms, box, neighbors, compressed=True, workspace=workspace)
        misses = workspace.misses
        for _ in range(3):
            model.evaluate(atoms, box, neighbors, compressed=True, workspace=workspace)
        assert workspace.misses == misses, "steady-state evaluation must not reallocate"
        assert workspace.hits > 0
