"""Topology, decomposition, ghost geometry, schemes, load balance, ghost delivery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.systems import copper_spec
from repro.md import Box, copper_system
from repro.parallel import GhostExchange, RankTopology, SpatialDecomposition
from repro.parallel.exchange import check_delivery_scheme
from repro.parallel.ghost import ghost_shell_ranks, layers_for_cutoff
from repro.parallel.decomposition import even_shares
from repro.perfmodel import (
    SCHEMES,
    balance_comparison,
    ghost_count_load_balanced,
    ghost_count_original,
    plan_exchange,
    rank_counts_with_balance,
    rank_counts_without_balance,
    subbox_decomposition,
)
from repro.perfmodel.exchange import _neighbor_offsets, overlap_volume
from repro.perfmodel.loadbalance import PAIR_TIME_NOISE_FLOOR, pair_time_model, sdmr_reduction


class TestTopology:
    def test_paper_topology_sizes(self):
        topo = RankTopology(node_dims=RankTopology.paper_topologies()[96])
        assert topo.n_nodes == 96
        assert topo.ranks_per_node == 4
        assert topo.n_ranks == 384
        assert topo.n_cores == 4608
        topo12k = RankTopology(node_dims=RankTopology.paper_topologies()[12000])
        assert topo12k.n_nodes == 12000
        assert topo12k.n_cores == 576_000  # the paper's 576K cores

    def test_rank_coordinate_roundtrip_and_node_mapping(self):
        topo = RankTopology((2, 3, 2))
        for rank in range(topo.n_ranks):
            coord = topo.rank_coord(rank)
            assert topo.rank_index(coord) == rank
        # ranks of a node are distinct and map back to that node
        for node in ((0, 0, 0), (1, 2, 1)):
            ranks = topo.ranks_on_node(node)
            assert len(ranks) == 4
            assert len(set(ranks)) == 4
            for rank in ranks:
                assert topo.node_of_rank(rank) == node

    def test_validation(self):
        with pytest.raises(ValueError):
            RankTopology((0, 1, 1))
        with pytest.raises(ValueError):
            RankTopology((1, 1, 1), threads_per_rank=0)


class TestDecomposition:
    def test_counts_sum_to_total(self):
        atoms, box = copper_system((6, 6, 6), perturbation=0.05, rng=0)
        topo = RankTopology((2, 2, 2))
        decomposition = SpatialDecomposition(box, topo)
        ranks = decomposition.assign_to_ranks(atoms.positions)
        assert np.bincount(ranks, minlength=topo.n_ranks).sum() == len(atoms)
        nodes = decomposition.assign_to_nodes(atoms.positions)
        assert np.bincount(nodes, minlength=topo.n_nodes).sum() == len(atoms)

    def test_rank_bounds_partition_box(self):
        box = Box.cubic(16.0)
        topo = RankTopology((2, 2, 2))
        decomposition = SpatialDecomposition(box, topo)
        lower, upper = decomposition.rank_bounds(0)
        np.testing.assert_allclose(lower, 0.0)
        np.testing.assert_allclose(upper, box.lengths / np.array(topo.rank_dims))

    def test_sdmr_zero_for_equal_counts(self):
        from repro.parallel.decomposition import DecompositionStats

        stats = DecompositionStats(np.full(10, 7))
        assert stats.sdmr_percent == 0.0
        assert stats.summary()["max"] == 7

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_every_atom_assigned_to_exactly_one_rank(self, seed):
        rng = np.random.default_rng(seed)
        box = Box.cubic(12.0)
        positions = rng.uniform(0, 12.0, size=(200, 3))
        decomposition = SpatialDecomposition(box, RankTopology((2, 2, 2)))
        ranks = decomposition.assign_to_ranks(positions)
        assert ranks.shape == (200,)
        assert np.all((ranks >= 0) & (ranks < decomposition.topology.n_ranks))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 10_000), k=st.integers(1, 64))
    def test_property_even_shares(self, n, k):
        shares = even_shares(n, k)
        assert len(shares) == k
        assert shares.sum() == n
        assert shares.max() - shares.min() <= 1
        # the remainder sits on the leading slots
        assert np.array_equal(shares, np.sort(shares)[::-1])


class TestGhostGeometry:
    def test_layers_for_cutoff(self):
        assert layers_for_cutoff([8.0, 8.0, 8.0], 8.0) == (1, 1, 1)
        assert layers_for_cutoff([4.0, 4.0, 8.0], 8.0) == (2, 2, 1)
        assert layers_for_cutoff([4.0, 4.0, 4.0], 8.0) == (2, 2, 2)

    def test_ghost_shell_ranks_dedup_on_small_grid(self):
        shell = ghost_shell_ranks((0, 0, 0), (3, 3, 3), (1, 1, 1))
        assert len(shell) == 26
        aliased = ghost_shell_ranks((0, 0, 0), (2, 2, 2), (1, 1, 1))
        assert len(aliased) == 7  # 2x2x2 torus: only 7 other nodes exist
        # a grid wide enough not to alias reaches the paper's 26 / 74 / 124
        assert len(ghost_shell_ranks((0, 0, 0), (8, 8, 8), (1, 1, 1))) == 26
        assert len(ghost_shell_ranks((0, 0, 0), (8, 8, 8), (2, 2, 1))) == 74
        assert len(ghost_shell_ranks((0, 0, 0), (8, 8, 8), (2, 2, 2))) == 124

    def test_overlap_volume_face_edge_corner(self):
        sub = [8.0, 8.0, 8.0]
        face = overlap_volume((1, 0, 0), sub, 8.0)
        edge = overlap_volume((1, 1, 0), sub, 8.0)
        corner = overlap_volume((1, 1, 1), sub, 8.0)
        assert face == pytest.approx(8.0 * 8.0 * 8.0)
        assert edge == pytest.approx(8.0 * 8.0 * 8.0)
        assert corner == pytest.approx(8.0 ** 3)
        # second-layer neighbour only contributes the remaining sliver
        assert overlap_volume((2, 0, 0), [4.0, 4.0, 4.0], 6.0) == pytest.approx(2.0 * 4.0 * 4.0)

    def test_ghost_count_equations_and_ratio(self):
        # the paper's example: a = 0.5 r gives ~1.44x more ghosts with load balance
        ratio = ghost_count_load_balanced(0.5, 1.0) / ghost_count_original(0.5, 1.0)
        assert ratio == pytest.approx(1.44, abs=0.05)
        assert ghost_count_load_balanced(1.0, 1.0) > ghost_count_original(1.0, 1.0)
        with pytest.raises(ValueError):
            ghost_count_original(-1.0, 1.0)


class TestSchemes:
    CUTOFF = 8.0

    def _decomposition(self, factors):
        return subbox_decomposition(RankTopology((4, 6, 4)), self.CUTOFF, factors)

    def _plan(self, label, decomposition):
        return plan_exchange(label, decomposition, self.CUTOFF, copper_spec().atom_density)

    def test_paper_neighbor_counts(self):
        strong = self._decomposition((0.5, 0.5, 0.5))
        assert self._plan("p2p-utofu", strong).n_messages == 124
        node = self._plan("lb-4l", strong)
        assert node.n_messages == 44
        # 44 neighbouring nodes over the 4 leaders: 11 messages per leader rank
        assert node.n_messages / SCHEMES["lb-4l"][1]["leaders"] == pytest.approx(11.0)
        weak = self._decomposition((1, 1, 1))
        assert self._plan("p2p-utofu", weak).n_messages == 26
        assert self._plan("lb-4l", weak).n_messages == 26

    def test_three_stage_rounds_match_layers(self):
        plan = self._plan("baseline", self._decomposition((0.5, 0.5, 1)))
        # layers (2,2,1): 5 sequential rounds with 2 messages each
        assert len(plan.rounds) == 5
        assert all(r.n_messages == 2 for r in plan.rounds)
        assert not plan.use_rdma
        assert plan.ranks_sharing_network == 4

    def test_node_scheme_properties(self):
        plan = self._plan("lb-4l", self._decomposition((0.5, 0.5, 0.5)))
        assert plan.use_rdma
        assert plan.ranks_sharing_network == 1
        assert plan.n_intra_node_syncs == 2
        assert plan.registered_regions is None  # memory pool
        assert len(plan.gather_bytes_per_rank) == 4
        assert plan.total_message_bytes > 0

    def test_all_scheme_names_buildable(self):
        decomposition = self._decomposition((1, 1, 1))
        for label in SCHEMES:
            assert self._plan(label, decomposition).scheme == label
        with pytest.raises(KeyError):
            self._plan("telepathy", decomposition)
        with pytest.raises(ValueError):
            plan_exchange("lb-4l", decomposition, 0.0, 1.0)
        with pytest.raises(ValueError):
            subbox_decomposition(RankTopology((1, 1, 1)), self.CUTOFF, (0.5, 0.0, 0.5))

    def test_message_hops_are_torus_distances_between_nodes(self):
        decomposition = self._decomposition((0.5, 0.5, 0.5))
        topo = decomposition.topology

        def node_distance(node):
            # the representative rank sits on node (0, 0, 0)
            return sum(min(n % d, d - n % d) for n, d in zip(node, topo.node_dims))

        p2p = self._plan("p2p-utofu", decomposition)
        rank_dims = decomposition.rank_dims
        offsets = _neighbor_offsets(layers_for_cutoff(decomposition.sub_box_lengths, self.CUTOFF), rank_dims)
        for offset, message in zip(offsets, p2p.rounds[0].messages, strict=True):
            hops = node_distance(topo.node_of_rank_coord([o % r for o, r in zip(offset, rank_dims)]))
            assert (message.hops, message.intra_node) == (max(hops, 1), hops == 0)
        node = self._plan("lb-4l", decomposition)
        offsets = _neighbor_offsets(
            layers_for_cutoff(decomposition.node_box_lengths, self.CUTOFF), decomposition.node_dims
        )
        for offset, message in zip(offsets, node.rounds[0].messages, strict=True):
            assert message.hops == max(node_distance(offset), 1)
        assert max(m.hops for m in node.rounds[0].messages) > 1

    def test_leader_variants_differ_in_threads(self):
        decomposition = self._decomposition((0.5, 0.5, 0.5))
        lb1 = self._plan("lb-1l", decomposition)
        lb4 = self._plan("lb-4l", decomposition)
        sg = self._plan("sg-lb-4l", decomposition)
        assert lb1.copy_threads < lb4.copy_threads
        assert sg.rounds[0].threads == 4
        assert lb4.rounds[0].threads == 24


class TestLoadBalance:
    def _setup(self, atoms_per_core=1):
        spec = copper_spec()
        topo = RankTopology((4, 6, 4))
        n_atoms = int(topo.n_cores * atoms_per_core)
        positions, box = spec.build_positions(n_atoms, rng=0)
        return positions, SpatialDecomposition(box, topo)

    def test_atom_conservation(self):
        positions, decomposition = self._setup()
        without = rank_counts_without_balance(decomposition, positions)
        with_lb = rank_counts_with_balance(decomposition, positions)
        assert without.sum() == len(positions)
        assert with_lb.sum() == len(positions)

    def test_balance_reduces_dispersion_and_maximum(self):
        positions, decomposition = self._setup()
        without = rank_counts_without_balance(decomposition, positions)
        with_lb = rank_counts_with_balance(decomposition, positions)
        assert with_lb.max() <= without.max()
        assert with_lb.std() < without.std()
        assert sdmr_reduction(decomposition, positions) > 0.2

    def test_node_box_split_is_even(self):
        positions, decomposition = self._setup(atoms_per_core=2)
        counts = rank_counts_with_balance(decomposition, positions)
        topo = decomposition.topology
        for node_index in range(0, topo.n_nodes, 17):
            coord = (
                node_index // (topo.node_dims[1] * topo.node_dims[2]),
                (node_index // topo.node_dims[2]) % topo.node_dims[1],
                node_index % topo.node_dims[2],
            )
            ranks = topo.ranks_on_node(coord)
            node_counts = counts[ranks]
            assert node_counts.max() - node_counts.min() <= 1

    def test_pair_time_model_scaling(self):
        times = pair_time_model(np.array([1, 2, 4]), per_atom_time=1.0e-3, jitter_fraction=0.0)
        np.testing.assert_allclose(times, [1e-3, 2e-3, 4e-3])
        with pytest.raises(ValueError):
            pair_time_model(np.array([1]), per_atom_time=0.0)

    def test_pair_time_model_times_stay_positive(self):
        """The regression: unbounded Gaussian jitter could draw a negative
        multiplier and emit negative per-rank wall-clock times, corrupting
        the SDMR statistics.  The noise is clamped at a positive floor."""
        counts = np.full(4096, 10)
        times = pair_time_model(counts, per_atom_time=1e-3, jitter_fraction=5.0, rng=0)
        assert (times > 0.0).all()
        assert times.min() >= 10 * 1e-3 * PAIR_TIME_NOISE_FLOOR - 1e-15

    def test_compare_summary_structure(self):
        positions, decomposition = self._setup()
        comparison = balance_comparison(decomposition, positions, per_atom_time=1e-4, rng=1)
        for key in ("no", "yes"):
            summary = comparison[key].summary()
            assert {"natom", "pair"} <= set(summary)
            assert summary["natom"]["max"] >= summary["natom"]["min"]


class TestGhostExchangeComponent:
    """p2p delivers exactly the reference ghost set; node-based a superset."""

    def _setup(self, cutoff=5.0):
        atoms, box = copper_system((6, 6, 6), perturbation=0.05, rng=1)
        decomposition = SpatialDecomposition(box, RankTopology((2, 2, 2)))
        return atoms, GhostExchange(decomposition, cutoff=cutoff)

    def test_subset_and_exactness_through_new_api(self):
        atoms, exchange = self._setup()
        owners = exchange.decomposition.assign_to_ranks(atoms.positions)
        for rank in (0, 7, 13):
            reference = exchange.reference_ghosts(rank, atoms.positions, owners)
            p2p = exchange.deliver("p2p", rank, atoms.positions, owners)
            node = exchange.deliver("node-based", rank, atoms.positions, owners)
            # p2p delivers exactly the reference set; node-based a superset
            np.testing.assert_array_equal(np.sort(reference), p2p)
            assert set(reference.tolist()) <= set(node.tolist())
            # no rank receives its own atoms as ghosts
            assert not np.any(owners[p2p] == rank)
            assert not np.any(owners[node] == rank)

    def test_per_sender_selection_matches_delivery(self):
        """Assembling per-sender masks reproduces the aggregate delivery."""
        atoms, exchange = self._setup()
        owners = exchange.decomposition.assign_to_ranks(atoms.positions)
        rank = 5
        assembled = []
        for sender in exchange.p2p_neighbor_ranks(rank):
            sender_atoms = np.nonzero(owners == sender)[0]
            mask = exchange.p2p_selection(atoms.positions[sender_atoms], rank)
            assembled.extend(sender_atoms[mask].tolist())
        np.testing.assert_array_equal(
            np.unique(assembled), exchange.deliver("p2p", rank, atoms.positions, owners)
        )

    def test_only_the_two_delivery_patterns_are_accepted(self):
        atoms, exchange = self._setup()
        assert check_delivery_scheme("p2p") == "p2p"
        assert check_delivery_scheme("node-based") == "node-based"
        # the priced Fig. 7 labels are not delivery patterns
        for label in ("p2p-utofu", "lb-4l", "p2p-mpi", "node", "baseline-telepathy"):
            with pytest.raises(KeyError):
                check_delivery_scheme(label)
            with pytest.raises(KeyError):
                exchange.deliver(label, 0, atoms.positions)

    def test_cutoff_validation(self):
        atoms, exchange = self._setup()
        with pytest.raises(ValueError):
            GhostExchange(exchange.decomposition, cutoff=0.0)
