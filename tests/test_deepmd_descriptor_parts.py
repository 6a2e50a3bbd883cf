"""Smoothing function, environment matrices, GEMM backends, fast MLP kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deepmd import GemmBackend
from repro.deepmd.envmat import build_local_environment, suggested_max_neighbors
from repro.deepmd.networks import FastMLP
from repro.deepmd.smoothing import switching_derivative, switching_function
from repro.md.neighbor import build_neighbor_data
from repro.reference.nnframework import MLP


class TestSwitchingFunction:
    def test_inner_region_is_inverse_distance(self):
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(switching_function(r, 6.0, 3.0), 1.0 / r)

    def test_zero_beyond_cutoff_and_at_padding(self):
        r = np.array([0.0, 6.0, 7.5])
        np.testing.assert_allclose(switching_function(r, 6.0, 3.0), 0.0)

    def test_continuity_at_smooth_cutoff_and_cutoff(self):
        eps = 1e-9
        for point in (3.0, 6.0):
            below = switching_function(np.array([point - eps]), 6.0, 3.0)
            above = switching_function(np.array([point + eps]), 6.0, 3.0)
            assert abs(below - above) < 1e-6

    def test_derivative_matches_finite_difference(self):
        r = np.linspace(0.5, 6.5, 200)
        h = 1e-6
        numeric = (switching_function(r + h, 6.0, 3.0) - switching_function(r - h, 6.0, 3.0)) / (2 * h)
        analytic = switching_derivative(r, 6.0, 3.0)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_invalid_cutoffs(self):
        with pytest.raises(ValueError):
            switching_function(np.array([1.0]), 3.0, 3.0)
        with pytest.raises(ValueError):
            switching_derivative(np.array([1.0]), 2.0, 3.0)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.01, 10.0))
    def test_property_monotone_decreasing_and_nonnegative(self, r):
        value = float(switching_function(np.array([r]), 6.0, 3.0)[0])
        assert value >= 0.0
        slightly_further = float(switching_function(np.array([r + 0.05]), 6.0, 3.0)[0])
        assert slightly_further <= value + 1e-12


class TestEnvironmentMatrix:
    def test_shapes_and_mask(self, small_copper):
        atoms, box = small_copper
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        env = build_local_environment(atoms, box, neighbors, cutoff=4.5, cutoff_smooth=3.5, max_neighbors=60)
        n = len(atoms)
        assert env.R.shape == (n, 60, 4)
        assert env.mask.shape == (n, 60)
        assert np.all(env.neighbor_counts() > 0)
        # padded slots carry no data
        padded = env.mask == 0.0
        assert np.all(env.R[padded] == 0.0)
        assert np.all(env.neighbor_indices[padded] == -1)

    def test_first_column_is_switching_function(self, small_copper):
        atoms, box = small_copper
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        env = build_local_environment(atoms, box, neighbors, 4.5, 3.5, 60)
        np.testing.assert_allclose(env.R[..., 0], env.s)

    def test_row_norm_relation(self, small_copper):
        # |R[1:4]| = s for every real neighbour (unit vector times s).
        atoms, box = small_copper
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        env = build_local_environment(atoms, box, neighbors, 4.5, 3.5, 60)
        norms = np.linalg.norm(env.R[..., 1:], axis=-1)
        np.testing.assert_allclose(norms, env.s, atol=1e-12)

    def test_neighbors_sorted_by_type(self, small_water):
        atoms, box, _ = small_water
        neighbors = build_neighbor_data(atoms.positions, box, 4.0)
        env = build_local_environment(atoms, box, neighbors, 4.0, 3.0, 60)
        for i in range(len(atoms)):
            types = env.neighbor_types[i][env.mask[i] > 0]
            assert np.all(np.diff(types) >= 0)

    def test_larger_search_radius_is_filtered_to_cutoff(self, small_copper):
        atoms, box = small_copper
        neighbors = build_neighbor_data(atoms.positions, box, 4.5, skin=0.5)
        env = build_local_environment(atoms, box, neighbors, cutoff=4.0, cutoff_smooth=3.0, max_neighbors=80)
        assert np.all(env.distances[env.mask > 0] <= 4.0 + 1e-12)

    def test_suggested_max_neighbors_covers_actual(self, small_copper):
        atoms, box = small_copper
        neighbors = build_neighbor_data(atoms.positions, box, 4.5)
        suggestion = suggested_max_neighbors(atoms, box, neighbors, 4.5)
        env = build_local_environment(atoms, box, neighbors, 4.5, 3.5, suggestion)
        assert env.neighbor_counts().max() <= suggestion


class TestGemmBackend:
    def test_product_and_stats(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 7))
        b = rng.normal(size=(7, 5))
        backend = GemmBackend()
        np.testing.assert_array_equal(backend.matmul(a, b), a @ b)
        backend.matmul(a.astype(np.float32), b, dtype=np.float32)
        assert backend.stats.calls == 2
        assert backend.stats.flops == pytest.approx(2 * (2 * 2 * 5 * 7))
        assert backend.stats.flops_by_dtype == {"fp64": 2 * 2 * 5 * 7, "fp32": 2 * 2 * 5 * 7}
        assert backend.stats.cast_bytes == b.nbytes

    def test_fp16_reduces_precision(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 64))
        b = rng.normal(size=(64, 32))
        exact = a @ b
        half = GemmBackend().matmul(a, b, dtype=np.float16)
        error = np.max(np.abs(exact - half))
        assert 0.0 < error < 1.0

    def test_invalid_inputs(self):
        backend = GemmBackend()
        with pytest.raises(ValueError):
            backend.matmul(np.ones((2, 3)), np.ones((4, 5)))

    def test_reset_stats(self):
        backend = GemmBackend()
        backend.matmul(np.ones((1, 2)), np.ones((2, 2)))
        backend.reset_stats()
        assert backend.stats == GemmBackend().stats


class TestFastMLP:
    def test_matches_framework_mlp(self):
        mlp = MLP(3, [8, 8], out_features=2, rng=0)
        fast = FastMLP(mlp.export_weights())
        x = np.random.default_rng(1).normal(size=(5, 3))
        from repro.reference.nnframework import Tensor

        expected = mlp(Tensor(x)).data
        np.testing.assert_allclose(fast.forward(x), expected, atol=1e-12)

    def test_backward_input_matches_autodiff(self):
        from repro.reference.nnframework import Tensor, ops

        mlp = MLP(4, [8, 8], out_features=1, rng=2)
        fast = FastMLP(mlp.export_weights())
        x = np.random.default_rng(3).normal(size=(6, 4))
        t = Tensor(x, requires_grad=True)
        ops.sum(mlp(t)).backward()
        fast.forward(x)
        grad = fast.backward_input(np.ones((6, 1)))
        np.testing.assert_allclose(grad, t.grad, atol=1e-10)

    def test_backward_requires_forward_cache(self):
        fast = FastMLP(MLP(2, [4], out_features=1, rng=6).export_weights())
        with pytest.raises(RuntimeError):
            fast.backward_input(np.ones((1, 1)))

    def test_parameter_count_and_shapes(self):
        mlp = MLP(3, [5], out_features=2, rng=7)
        fast = FastMLP(mlp.export_weights())
        assert fast.n_parameters() == 3 * 5 + 5 + 5 * 2 + 2
        assert [layer.weight.shape for layer in fast.layers] == [(3, 5), (5, 2)]
