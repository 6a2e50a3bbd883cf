"""Fugaku machine model: node, NoC, torus, TNIs, NIC cache."""

import pytest

from repro.hardware import (
    A64FXNode,
    FUGAKU,
    NICRegistrationCache,
    NocModel,
    TNIScheduler,
    TofuDNetwork,
    TorusCoordinates,
)


class TestSpecs:
    def test_node_peak_matches_paper(self):
        # 48 cores x 2.2 GHz x 32 flops/cycle ~ 3.38 TFLOPS
        cores = FUGAKU.node.n_cmgs * FUGAKU.node.compute_cores_per_cmg
        assert cores == 48
        assert cores * FUGAKU.node.peak_flops_per_core_fp64 == pytest.approx(3.38e12, rel=0.01)

    def test_network_constants_from_paper(self):
        assert FUGAKU.network.hop_latency == pytest.approx(0.49e-6)
        assert FUGAKU.network.n_tnis == 6
        assert FUGAKU.network.n_ports == 10
        assert FUGAKU.framework_overhead == pytest.approx(4.0e-3)


class TestA64FXNode:
    def test_gemm_time_scales_with_flops(self):
        node = A64FXNode()
        t1 = node.gemm_time(1, 240, 240)
        t2 = node.gemm_time(1, 240, 480)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_sve_faster_than_blas_for_tall_skinny(self):
        node = A64FXNode()
        blas = node.gemm_time(2, 240, 240, backend="blas")
        sve = node.gemm_time(2, 240, 240, backend="sve")
        assert blas / sve == pytest.approx(1.4, rel=0.05)

    def test_precision_speedups(self):
        node = A64FXNode()
        fp64 = node.fitting_gemm_time(1, 240, 240, dtype="fp64", backend="sve")
        fp32 = node.fitting_gemm_time(1, 240, 240, dtype="fp32", backend="sve")
        fp16 = node.fitting_gemm_time(1, 240, 240, dtype="fp16", backend="sve")
        assert fp64 / fp32 == pytest.approx(1.6, rel=0.01)
        assert fp32 / fp16 == pytest.approx(1.5, rel=0.01)

    def test_nt_penalty_for_small_matrices(self):
        node = A64FXNode()
        nn = node.fitting_gemm_time(1, 240, 240, transposed_b=False)
        nt = node.fitting_gemm_time(1, 240, 240, transposed_b=True)
        assert nt == pytest.approx(2 * nn)

    def test_fitting_gemm_weak_m_dependence(self):
        node = A64FXNode()
        per_atom_1 = node.fitting_gemm_time(1, 240, 240) / 1
        per_atom_8 = node.fitting_gemm_time(8, 240, 240) / 8
        assert per_atom_8 < per_atom_1
        assert per_atom_1 / per_atom_8 < 1.5  # mild, not a cliff

    def test_zero_flops_take_no_time(self):
        assert A64FXNode().gemm_time(0, 10, 10) == 0.0


class TestTorus:
    def test_hop_distance_with_wraparound(self):
        torus = TorusCoordinates((4, 6, 4))
        assert torus.hops((0, 0, 0), (1, 0, 0)) == 1
        assert torus.hops((0, 0, 0), (3, 0, 0)) == 1  # wraps
        assert torus.hops((0, 0, 0), (2, 3, 2)) == 7
        assert torus.n_nodes == 96

    def test_index_roundtrip(self):
        torus = TorusCoordinates((3, 4, 5))
        for index in (0, 17, 59):
            assert torus.index(torus.coordinate(index)) == index

    def test_message_time_components(self):
        net = TofuDNetwork(TorusCoordinates((4, 4, 4)))
        occ = net.occupancy(6800.0)
        assert occ == pytest.approx(0.15e-6 + 1e-6, rel=1e-6)
        assert net.latency(3) > net.latency(1)
        assert net.latency(1, use_rdma=False) > net.latency(1, use_rdma=True)
        with pytest.raises(ValueError):
            net.occupancy(-1.0)


class TestTNIScheduler:
    def test_single_engine_serializes(self):
        scheduler = TNIScheduler()
        assert scheduler.makespan([1.0, 1.0, 1.0], engines=1) == pytest.approx(3.0)

    def test_six_engines_run_concurrently(self):
        scheduler = TNIScheduler()
        assert scheduler.makespan([1.0] * 6) == pytest.approx(1.0)
        assert scheduler.makespan([1.0] * 12) == pytest.approx(2.0)

    def test_thread_cap_limits_engines(self):
        scheduler = TNIScheduler()
        assert scheduler.makespan([1.0] * 6, threads=2) == pytest.approx(3.0)

    def test_empty_messages(self):
        assert TNIScheduler().makespan([]) == 0.0


class TestNICCache:
    def test_no_penalty_below_capacity(self):
        cache = NICRegistrationCache()
        assert cache.per_message_penalty(10) == 0.0
        assert cache.per_message_penalty(cache.spec.cache_entries) == 0.0

    def test_penalty_grows_beyond_capacity(self):
        cache = NICRegistrationCache()
        small = cache.per_message_penalty(cache.spec.cache_entries + 10)
        large = cache.per_message_penalty(cache.spec.cache_entries * 3)
        assert 0.0 < small < large < cache.spec.miss_penalty


class TestNoC:
    def test_gather_scales_with_bytes_and_threads(self):
        noc = NocModel()
        small = noc.gather_time([1e4] * 4, copy_threads=48)
        large = noc.gather_time([1e6] * 4, copy_threads=48)
        assert large > small
        few_threads = noc.gather_time([1e6] * 4, copy_threads=6)
        assert few_threads > large

    def test_sync_time_linear_in_count(self):
        noc = NocModel()
        assert noc.synchronization_time(2) == pytest.approx(2 * noc.spec.intra_node_sync_latency)
        assert noc.gather_time([]) == 0.0
