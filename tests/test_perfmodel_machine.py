"""Fugaku machine model: the spec and its pricing functions (node, NoC, torus, TNIs, NIC cache)."""

import itertools

import pytest

from repro.parallel import RankTopology
from repro.perfmodel.machine import (
    FUGAKU,
    fitting_gemm_time,
    gemm_time,
    message_occupancy,
    nic_cache_penalty,
    noc_copy_time,
    noc_sync_time,
    threading_overhead,
    tni_makespan,
    torus_hops,
    vector_time,
    wire_latency,
)

NODE = FUGAKU.node
NETWORK = FUGAKU.network
CACHE = FUGAKU.nic_cache


class TestSpecs:
    def test_node_peak_matches_paper(self):
        # 48 cores x 2.2 GHz x 32 flops/cycle ~ 3.38 TFLOPS
        cores = NODE.n_cmgs * NODE.compute_cores_per_cmg
        assert cores == 48
        assert cores * NODE.peak_flops_per_core_fp64 == pytest.approx(3.38e12, rel=0.01)

    def test_network_constants_from_paper(self):
        assert NETWORK.hop_latency == pytest.approx(0.49e-6)
        assert NETWORK.n_tnis == 6
        assert NETWORK.n_ports == 10
        assert FUGAKU.framework_overhead == pytest.approx(4.0e-3)


class TestA64FXCompute:
    def test_gemm_time_scales_with_flops(self):
        t1 = gemm_time(NODE, 1, 240, 240)
        t2 = gemm_time(NODE, 1, 240, 480)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_sve_faster_than_blas_for_tall_skinny(self):
        blas = gemm_time(NODE, 2, 240, 240, backend="blas")
        sve = gemm_time(NODE, 2, 240, 240, backend="sve")
        assert blas / sve == pytest.approx(1.4, rel=0.05)

    def test_precision_speedups(self):
        fp64 = fitting_gemm_time(NODE, 1, 240, 240, dtype="fp64", backend="sve")
        fp32 = fitting_gemm_time(NODE, 1, 240, 240, dtype="fp32", backend="sve")
        fp16 = fitting_gemm_time(NODE, 1, 240, 240, dtype="fp16", backend="sve")
        assert fp64 / fp32 == pytest.approx(1.6, rel=0.01)
        assert fp32 / fp16 == pytest.approx(1.5, rel=0.01)
        assert vector_time(NODE, 1e6, 0.2, "fp64") / vector_time(NODE, 1e6, 0.2, "fp32") == pytest.approx(1.6)

    def test_nt_penalty_for_small_matrices(self):
        nn = fitting_gemm_time(NODE, 1, 240, 240, transposed_b=False)
        nt = fitting_gemm_time(NODE, 1, 240, 240, transposed_b=True)
        assert nt == pytest.approx(2 * nn)

    def test_fitting_gemm_weak_m_dependence(self):
        per_atom_1 = fitting_gemm_time(NODE, 1, 240, 240) / 1
        per_atom_8 = fitting_gemm_time(NODE, 8, 240, 240) / 8
        assert per_atom_8 < per_atom_1
        assert per_atom_1 / per_atom_8 < 1.5  # mild, not a cliff

    def test_zero_flops_take_no_time(self):
        assert gemm_time(NODE, 0, 10, 10) == 0.0
        assert fitting_gemm_time(NODE, 0, 10, 10) == 0.0
        assert vector_time(NODE, 0.0, 0.1) == 0.0

    def test_threadpool_cheaper_than_openmp(self):
        openmp = threading_overhead(FUGAKU, "openmp")
        pool = threading_overhead(FUGAKU, "threadpool")
        assert pool == pytest.approx(FUGAKU.parallel_regions_per_step * FUGAKU.threadpool_region_overhead)
        assert 0.0 < pool < openmp
        with pytest.raises(ValueError):
            threading_overhead(FUGAKU, "green-threads")


class TestTorus:
    def test_hop_distance_with_wraparound(self):
        dims = (4, 6, 4)
        assert torus_hops((1, 0, 0), dims) == 1
        assert torus_hops((3, 0, 0), dims) == 1  # wraps
        assert torus_hops((-1, 0, 0), dims) == 1
        assert torus_hops((2, 3, 2), dims) == 7
        assert RankTopology(dims).n_nodes == 96

    def test_index_roundtrip(self):
        topology = RankTopology((3, 4, 5))
        coords = [topology.node_coord(index) for index in range(topology.n_nodes)]
        assert coords == list(itertools.product(range(3), range(4), range(5)))

    def test_message_time_components(self):
        occ = message_occupancy(NETWORK, 6800.0)
        assert occ == pytest.approx(0.15e-6 + 1e-6, rel=1e-6)
        assert message_occupancy(NETWORK, 6800.0, registration_penalty=1e-6) == pytest.approx(occ + 1e-6)
        assert message_occupancy(NETWORK, 6800.0, use_rdma=False) > occ
        assert wire_latency(NETWORK, 3) > wire_latency(NETWORK, 1)
        assert wire_latency(NETWORK, 1, use_rdma=False) > wire_latency(NETWORK, 1, use_rdma=True)
        with pytest.raises(ValueError):
            message_occupancy(NETWORK, -1.0)
        with pytest.raises(ValueError):
            wire_latency(NETWORK, -1)


class TestTNIMakespan:
    def test_single_engine_serializes(self):
        assert tni_makespan(NETWORK, [1.0, 1.0, 1.0], threads=1) == pytest.approx(3.0)

    def test_six_engines_run_concurrently(self):
        assert tni_makespan(NETWORK, [1.0] * 6) == pytest.approx(1.0)
        assert tni_makespan(NETWORK, [1.0] * 12) == pytest.approx(2.0)

    def test_thread_cap_limits_engines(self):
        assert tni_makespan(NETWORK, [1.0] * 6, threads=2) == pytest.approx(3.0)

    def test_empty_messages(self):
        assert tni_makespan(NETWORK, []) == 0.0


class TestNICCache:
    def test_no_penalty_below_capacity(self):
        assert nic_cache_penalty(CACHE, 1) == 0.0
        assert nic_cache_penalty(CACHE, 10) == 0.0
        assert nic_cache_penalty(CACHE, CACHE.cache_entries) == 0.0

    def test_penalty_grows_beyond_capacity(self):
        small = nic_cache_penalty(CACHE, CACHE.cache_entries + 10)
        large = nic_cache_penalty(CACHE, CACHE.cache_entries * 3)
        assert 0.0 < small < large < CACHE.miss_penalty


class TestNoC:
    def test_gather_scales_with_bytes_and_threads(self):
        small = noc_copy_time(NODE, [1e4] * 4, copy_threads=48)
        large = noc_copy_time(NODE, [1e6] * 4, copy_threads=48)
        assert large > small
        few_threads = noc_copy_time(NODE, [1e6] * 4, copy_threads=6)
        assert few_threads > large

    def test_sync_time_linear_in_count(self):
        assert noc_sync_time(NODE, 2) == pytest.approx(2 * NODE.intra_node_sync_latency)
        assert noc_sync_time(NODE, 0) == 0.0
        assert noc_copy_time(NODE, []) == 0.0
