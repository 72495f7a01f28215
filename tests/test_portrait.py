import itertools
import json
from math import nan

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netportrait.graph
from netportrait import (
    BinSpec,
    Graph,
    Portrait,
    connected_components,
    joint_distribution,
    jsd_bits,
    make_shared_bins,
    pad_portrait,
    portrait,
    portrait_identities,
    sssp_unweighted,
    unique_path_lengths,
    weighted_portrait,
)

import oracles
from graphtools import (
    attach_weights,
    complete_graph,
    desargues_graph,
    dodecahedral_graph,
    grid_graph,
    hop_graphs,
    path_graph,
    permute_graph,
    random_graph_pool,
    unit_weighted,
)


def cells_of(p):
    """Portrait as a sparse {(shell, k): count} dict for shape-free comparison."""
    return {(s, int(k)): int(c)
            for s, row in enumerate(p.counts)
            for k, c in enumerate(row) if c}


class TestHopCountPortrait:
    def test_p3(self):
        p = portrait(path_graph(3))
        assert cells_of(p) == {(0, 1): 3, (1, 1): 2, (1, 2): 1, (2, 0): 1, (2, 1): 2}

    def test_k3(self):
        p = portrait(complete_graph(3))
        assert cells_of(p) == {(0, 1): 3, (1, 2): 3}

    def test_single_node(self):
        p = portrait(Graph(1, False, ()))
        assert p.n_rows == 1
        assert cells_of(p) == {(0, 1): 1}

    def test_edgeless(self):
        p = portrait(Graph(5, False, ()))
        assert cells_of(p) == {(0, 1): 5}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            portrait(Graph(0, False, ()))

    def test_weighted_graph_needs_explicit_opt_in(self):
        g = Graph(2, False, ((0, 1),), weights=(2.0,))
        with pytest.raises(ValueError, match="weighted"):
            portrait(g)
        assert cells_of(portrait(g, ignore_weights=True)) == {(0, 1): 2, (1, 1): 2}

    def test_invariant_pair_identical_portraits(self):
        assert portrait(dodecahedral_graph()) == portrait(desargues_graph())

    def test_directed_uses_out_distances(self):
        g = Graph(3, True, ((0, 1), (1, 2)))
        p = portrait(g)
        # node 0 sees one node at 1 and 2; node 1 one at 1; node 2 nothing
        assert cells_of(p) == {(0, 1): 3, (1, 1): 2, (1, 0): 1, (2, 1): 1, (2, 0): 2}


class TestPortraitProperties:
    def test_row_sums_equal_n(self):
        for g in random_graph_pool(40, seed=21):
            p = portrait(g)
            assert (p.counts.sum(axis=1) == g.n_nodes).all()

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(99)
        for g in random_graph_pool(100, seed=23, max_nodes=40):
            p = portrait(g)
            for _ in range(5):
                assert portrait(permute_graph(g, rng)) == p

    def test_reachable_pairs_identity(self):
        for g in random_graph_pool(40, seed=25):
            p = portrait(g)
            assert p.reachable_pairs == sum(c * c for c in connected_components(g))

    def test_no_trailing_empty_shells(self):
        for g in random_graph_pool(25, seed=27):
            p = portrait(g)
            assert p.counts[-1, 1:].sum() > 0
            assert p.diameter() == p.n_rows - 1

    def test_matches_bruteforce_exhaustive_small(self):
        # every graph on 3 and 4 nodes, all edge subsets
        for n in (3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(2 ** len(pairs)):
                edges = tuple(e for i, e in enumerate(pairs) if bits >> i & 1)
                g = Graph(n, False, edges)
                assert cells_of(portrait(g)) == oracles.portrait_cells(n, edges)

    def test_matches_bruteforce_random(self):
        for g in random_graph_pool(30, seed=29, max_nodes=7, min_nodes=2):
            assert cells_of(portrait(g)) == oracles.portrait_cells(g.n_nodes, g.edges)

    def test_matches_bruteforce_directed(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = tuple(p for p in pairs if rng.random() < 0.3)
            g = Graph(n, True, edges)
            assert cells_of(portrait(g)) == oracles.portrait_cells(n, edges, directed=True)


def shuffled_copy(g, rng):
    """Relabeled copy with its edges in a new order, undirected ones flipped at random."""
    perm = rng.permutation(g.n_nodes)
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
    if not g.directed:
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    order = rng.permutation(len(edges))
    return Graph(g.n_nodes, g.directed, tuple(edges[i] for i in order))


def component_sizes(n, edges):
    """Weak component sizes, largest first, from undirected Floyd-Warshall reachability."""
    dist = oracles.floyd_warshall(n, edges)
    groups = {frozenset(j for j in range(n) if dist[i][j] < oracles.INF) for i in range(n)}
    return sorted(map(len, groups), reverse=True)


def assert_hop_engine_matches(g, rows):
    """portrait and sssp_unweighted against all-pairs hop counts ``rows``."""
    assert cells_of(portrait(g)) == oracles.cells_of_distances(rows)
    for s in range(g.n_nodes):
        assert sssp_unweighted(g, s).tolist() == rows[s]


LANES = 64 * netportrait.graph._BFS_WORDS  # sources per batch of the hop-count engine


def naive_lane_counts(words):
    """Set bits per lane, one shift and mask per bit position."""
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.sum(axis=0, dtype=np.int64).ravel()


class TestLaneCounts:
    """The blocked bit count: byte lanes carry past 255 rows, and blocks end
    every 16 runs of 255 rows."""

    @pytest.mark.parametrize("n_rows", [0, 1, 254, 255, 256, 16 * 255 - 1, 16 * 255,
                                        16 * 255 + 1])
    @pytest.mark.parametrize("n_words", [1, 4])
    @pytest.mark.parametrize("fill", ["ones", "random"])
    def test_equals_naive_count(self, n_rows, n_words, fill):
        rng = np.random.default_rng([n_rows, n_words])
        if fill == "ones":
            words = np.full((n_rows, n_words), np.iinfo(np.uint64).max, dtype=np.uint64)
        else:
            words = rng.integers(0, 2 ** 64, (n_rows, n_words), dtype=np.uint64)
            words[rng.random(n_rows) < 0.1] = 0  # rows the kernel skips
        got = netportrait.graph._lane_counts(words)
        assert got.dtype == np.int64 and got.shape == (64 * n_words,)
        assert got.tolist() == naive_lane_counts(words).tolist()
        if fill == "ones":
            assert got.tolist() == [n_rows] * 64 * n_words


class TestHopEngineDifferential:
    """The bit-parallel multi-source BFS against the brute-force oracles."""

    @settings(max_examples=150)
    @given(hop_graphs())
    def test_portrait_rows_components_and_joint_equal_oracles(self, g):
        n, edges = g.n_nodes, g.edges
        assert_hop_engine_matches(g, oracles.floyd_warshall(n, edges, directed=g.directed))
        assert connected_components(g) == component_sizes(n, edges)
        joint = oracles.joint_cells(n, edges, directed=g.directed)
        assert list(joint_distribution(portrait(g)).mass.items()) == sorted(joint.items())

    @settings(max_examples=60)
    @given(hop_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_invariant_under_relabeling_and_edge_order(self, g, seed):
        rng = np.random.default_rng(seed)
        assert portrait(shuffled_copy(g, rng)) == portrait(g)

    @settings(max_examples=60)
    @given(hop_graphs(min_nodes=2), hop_graphs(min_nodes=2), st.integers(0, 2 ** 32 - 1))
    def test_jsd_properties(self, g1, g2, seed):
        j1, j2 = (joint_distribution(portrait(g)) for g in (g1, g2))
        d = jsd_bits(j1, j2)[0]
        assert d == jsd_bits(j2, j1)[0]
        assert 0.0 <= d <= 1.0
        want = oracles.jsd_bits(oracles.joint_cells(g1.n_nodes, g1.edges, g1.directed),
                                oracles.joint_cells(g2.n_nodes, g2.edges, g2.directed))
        assert abs(d - want) <= 1e-12
        copy = shuffled_copy(g1, np.random.default_rng(seed))
        assert jsd_bits(j1, joint_distribution(portrait(copy)))[0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129,
                                   LANES - 1, LANES, LANES + 1])
    @pytest.mark.parametrize("directed", [False, True])
    def test_lane_and_batch_boundaries(self, n, directed):
        # sparse enough to leave isolated nodes and long paths; past one
        # batch the last batch is partial. Rows from unit-weight Dijkstra,
        # which is faster than Floyd-Warshall at these sizes.
        rng = np.random.default_rng([n, directed])
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
        keep = rng.random(len(pairs)) < 1.5 / max(n, 2)
        g = Graph(n, directed, tuple(p for p, k in zip(pairs, keep) if k))
        rows = [oracles.dijkstra(n, g.edges, s, directed) for s in range(n)]
        assert_hop_engine_matches(g, rows)
        assert connected_components(g) == component_sizes(n, g.edges)

    def test_path_spans_every_lane(self):
        # one long path: every lane of every word lives for up to N levels
        n = LANES + 1
        g = path_graph(n)
        assert_hop_engine_matches(g, [[float(abs(s - v)) for v in range(n)] for s in range(n)])

    @pytest.mark.parametrize("g", [path_graph(300), grid_graph(15, 15)], ids=["path", "grid"])
    def test_high_diameter_graphs(self, g):
        # hundreds of levels per batch, and for the path two batches of sources
        rows = [oracles.dijkstra(g.n_nodes, g.edges, s) for s in range(g.n_nodes)]
        assert_hop_engine_matches(g, rows)

    @pytest.mark.parametrize("g, centre", [
        (Graph(301, False, tuple((i, 300) for i in range(300))), 300),
        (complete_graph(300), None),
    ], ids=["star", "complete"])
    def test_lanes_past_one_byte(self, g, centre):
        # frontiers of ~300 rows set nearly every lane, so lane counts pass 255:
        # a star K_{1,300} with its centre at the highest id, in the second
        # batch of sources, and K_300. Swapping two leaves (any two nodes of
        # K_300) is an automorphism, so Dijkstra from node 0 gives each leaf's
        # row with entries 0 and s swapped; the centre gets its own.
        first = oracles.dijkstra(g.n_nodes, g.edges, 0)
        rows = []
        for s in range(g.n_nodes):
            row = list(first)
            row[0], row[s] = row[s], row[0]
            rows.append(row)
        if centre is not None:
            rows[centre] = oracles.dijkstra(g.n_nodes, g.edges, centre)
        assert_hop_engine_matches(g, rows)


class TestBinSpec:
    def test_quantiles_median_split(self):
        assert BinSpec.from_quantiles([1, 2, 3, 4], 2).edges == (1.0, 3.0, 4.0)

    def test_quantiles_single_length(self):
        assert BinSpec.from_quantiles([5], 3).edges == (5.0, 5.0)

    def test_quantiles_one_bin_per_value(self):
        assert BinSpec.from_quantiles([1, 2, 3], 3).edges == (1.0, 2.0, 3.0, 3.0)

    def test_quantiles_collapse_when_more_bins_than_values(self):
        spec = BinSpec.from_quantiles([1.0, 2.5], 10)
        assert spec.edges == (1.0, 2.5, 2.5)

    def test_bin_index_intervals(self):
        spec = BinSpec((1.0, 2.0, 3.0, 3.0))
        assert spec.bin_index(1.0) == 0
        assert spec.bin_index(1.999) == 0
        assert spec.bin_index(2.0) == 1
        assert spec.bin_index(3.0) == 2  # last bin closed

    def test_bin_index_outside(self):
        spec = BinSpec((1.0, 2.0))
        with pytest.raises(ValueError, match="outside"):
            spec.bin_index(0.5)
        with pytest.raises(ValueError, match="outside"):
            spec.bin_index(2.5)

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            BinSpec((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            BinSpec((2.0, 1.0))
        with pytest.raises(ValueError):
            BinSpec((0.0, 1.0))

    def test_rejects_empty_lengths(self):
        with pytest.raises(ValueError):
            BinSpec.from_quantiles([], 3)

    @pytest.mark.parametrize("edges", [(nan, 2.0), (1.0, nan), (1.0, nan, 2.0),
                                       (1.0, 2.0, nan), (nan,) * 2])
    def test_rejects_nan_edges(self, edges):
        with pytest.raises(ValueError, match="nan"):
            BinSpec(edges)

    def test_quantiles_reject_nan_lengths(self):
        with pytest.raises(ValueError, match="nan"):
            BinSpec.from_quantiles([1.0, nan, 2.0], 2)

    def test_nan_length_is_outside_bins(self):
        spec = BinSpec((1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="path length nan outside"):
            spec.bin_index(nan)
        with pytest.raises(ValueError) as err:
            spec.index_array(np.array([1.5, 9.0, nan]))
        assert str(err.value) == "path length 9.0 outside bins (1.0, 2.0, 3.0)"
        with pytest.raises(ValueError, match="path length nan outside"):
            spec.index_array(np.array([3.0, nan, 1.0]))

    def test_sorted_distinct_input_bins_as_any_other(self):
        lengths = np.array([0.5, 1.0, 1.5, 4.0, 7.0])
        for given in (lengths, lengths[::-1], np.repeat(lengths, 2), list(lengths)):
            assert BinSpec.from_quantiles(given, 3).edges == (0.5, 1.0, 4.0, 7.0)


class TestSharedBins:
    def test_pooled_quantiles(self):
        g1 = unit_weighted(path_graph(3))   # lengths {1, 2}
        g2 = unit_weighted(path_graph(4))   # lengths {1, 2, 3}
        spec = make_shared_bins(g1, g2, 3, "identity")
        assert spec.edges == (1.0, 2.0, 3.0, 3.0)

    def test_requires_weighted(self):
        with pytest.raises(ValueError, match="weighted"):
            make_shared_bins(path_graph(3), unit_weighted(path_graph(3)), 2)

    def test_edgeless_pool_errors(self):
        g = Graph(3, False, (), weights=())
        with pytest.raises(ValueError, match="edgeless"):
            make_shared_bins(g, g, 2)

    def test_unique_path_lengths_excludes_self(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        assert unique_path_lengths(g, "identity") == {1.0, 2.0, 3.0}

    def test_float_ties_use_exact_equality(self):
        # 0.1 + 0.1 + 0.1 rounds to 0.30000000000000004, a length apart from 0.3
        g = Graph(6, False, ((0, 1), (1, 2), (2, 3), (4, 5)),
                  weights=(0.1, 0.1, 0.1, 0.3))
        lengths = unique_path_lengths(g, "identity")
        assert sorted(lengths) == [0.1, 0.2, 0.3, 0.30000000000000004]
        assert BinSpec.from_quantiles(lengths, 4).edges == (
            0.1, 0.2, 0.3, 0.30000000000000004, 0.30000000000000004)


class TestWeightedPortrait:
    def test_weighted_p3_per_length_bins(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        p = weighted_portrait(g, BinSpec((1.0, 2.0, 3.0, 3.0)), "identity")
        assert p.bin_edges == (1.0, 2.0, 3.0, 3.0)
        for row in (1, 2, 3):
            assert p.counts[row, 1] == 2 and p.counts[row, 0] == 1

    def test_single_bin_counts_reachable_others(self):
        g = attach_weights(Graph(4, False, ((0, 1), (1, 2))), seed=4, kind="uniform")
        spec = BinSpec.from_quantiles(unique_path_lengths(g), 1)
        p = weighted_portrait(g, spec)
        # nodes 0,2 reach 2 others; node 1 reaches 2; node 3 none
        assert p.counts[1, 2] == 3 and p.counts[1, 0] == 1

    def test_unit_weight_reduction(self):
        for g in random_graph_pool(15, seed=33, max_nodes=30):
            gw = unit_weighted(g)
            pu = portrait(g)
            d = pu.diameter()
            if d == 0:
                continue
            bins = BinSpec(tuple(float(i) for i in range(1, d + 1)) + (float(d),))
            pw = weighted_portrait(gw, bins, "identity")
            assert np.array_equal(pw.counts, pu.counts)

    def test_requires_weighted_graph(self):
        with pytest.raises(ValueError, match="weighted"):
            weighted_portrait(path_graph(3), BinSpec((1.0, 2.0)))

    def test_length_outside_bins_is_error(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="outside"):
            weighted_portrait(g, BinSpec((1.0, 2.0, 2.5)), "identity")

    def test_out_of_bins_error_names_first_length_in_source_order(self):
        # source 0 reaches 1, 2, 3 at 5.0, 1.0, 3.0: of the lengths outside the
        # bins, 5.0 comes first, 3.0 is the least and 8.0 (1 to 3) the largest
        g = Graph(4, False, ((0, 1), (0, 2), (2, 3)), weights=(5.0, 1.0, 2.0))
        with pytest.raises(ValueError) as err:
            weighted_portrait(g, BinSpec((1.0, 2.0, 2.5)), "identity")
        assert str(err.value) == "path length 5.0 outside bins (1.0, 2.0, 2.5)"

    def test_directed_weighted_uses_out_distances(self):
        # asymmetric weighted triangle: out-distances only
        g = Graph(3, True, ((0, 1), (1, 2), (2, 0)), weights=(1.0, 2.0, 4.0))
        spec = BinSpec.from_quantiles(unique_path_lengths(g, "identity"), 6)
        p = weighted_portrait(g, spec, "identity")
        want = oracles.weighted_joint_cells(3, g.edges, g.weights, "identity",
                                            list(spec.edges), directed=True)
        s = p.reachable_pairs
        got = {(shell, k): k * int(c) / s
               for (shell, k), c in cells_of(p).items() if k > 0}
        assert got == pytest.approx(want)

    def test_one_and_two_nodes(self):
        one = Graph(1, False, (), weights=())
        assert unique_path_lengths(one) == set()
        assert cells_of(weighted_portrait(one, BinSpec((1.0, 2.0)))) == {(0, 1): 1, (1, 0): 1}
        two = Graph(2, False, ((0, 1),), weights=(4.0,))
        assert unique_path_lengths(two) == {0.25}
        p = weighted_portrait(two, BinSpec.from_quantiles({0.25}, 3))
        assert cells_of(p) == {(0, 1): 2, (1, 1): 2}
        arc = Graph(2, True, ((0, 1),), weights=(4.0,))
        assert unique_path_lengths(arc, "identity") == {4.0}
        p = weighted_portrait(arc, BinSpec((4.0, 4.0)), "identity")
        assert cells_of(p) == {(0, 1): 2, (1, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("transform", ["identity", "reciprocal"])
    def test_matches_bruteforce(self, transform):
        graphs = random_graph_pool(10, seed=35, max_nodes=12, min_nodes=3)
        # the first few again with two isolated nodes appended
        graphs += [Graph(g.n_nodes + 2, False, g.edges) for g in graphs[:4]]
        rng = np.random.default_rng(36)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            graphs.append(Graph(n, True, tuple(p for p in pairs if rng.random() < 0.3)))
        for i, g in enumerate(graphs):
            gw = attach_weights(g, seed=100 + i, kind="dyadic")
            lengths = unique_path_lengths(gw, transform)
            if not lengths:
                continue
            spec = BinSpec.from_quantiles(lengths, 4)
            p = weighted_portrait(gw, spec, transform)
            want = oracles.weighted_joint_cells(gw.n_nodes, gw.edges, gw.weights, transform,
                                                list(spec.edges), directed=gw.directed)
            s = p.reachable_pairs
            got = {(shell, k): k * int(c) / s
                   for (shell, k), c in cells_of(p).items() if k > 0}
            assert got == pytest.approx(want)


def _batched_copy(g, transform):
    """An equal graph whose kept sweep has >= 3 batches, the last one short."""
    copy = Graph(g.n_nodes, g.directed, g.edges, weights=g.weights)
    step = (g.n_nodes - 1) // 2  # 7..12 nodes: 3 batches, the last one short
    entries = g.n_edges * (1 if g.directed else 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netportrait.graph, "_SWEEP_ENTRIES", step * max(g.n_nodes, entries))
        rows = [sizes.size for _, sizes in copy._path_lengths(transform)]
    assert len(rows) >= 3 and rows[-1] < step == rows[0]
    return copy


class TestWeightedBinningAcrossBatches:
    """Bins, distinct lengths and binned portraits read a kept sweep of several
    batches as they read a sweep of one."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("transform", ["identity", "reciprocal"])
    def test_batched_sweep_bins_as_one_batch(self, directed, transform):
        rng = np.random.default_rng(61 + directed)
        for i in range(6):
            pair = []
            for j in range(2):
                n = int(rng.integers(7, 13))
                arcs = [(u, v) for u in range(n) for v in range(n)
                        if u != v and (directed or u < v)]
                g = Graph(n, directed, tuple(a for a in arcs if rng.random() < 0.3))
                pair.append(attach_weights(g, seed=10 * i + j, kind="dyadic"))
            g, h = pair
            gb, hb = _batched_copy(g, transform), _batched_copy(h, transform)
            assert unique_path_lengths(gb, transform) == unique_path_lengths(g, transform)
            spec = make_shared_bins(gb, hb, 4, transform)
            assert spec == make_shared_bins(g, h, 4, transform)
            for one, batched in ((g, gb), (h, hb)):
                p = weighted_portrait(batched, spec, transform)
                assert p == weighted_portrait(one, spec, transform)
                want = oracles.weighted_joint_cells(one.n_nodes, one.edges, one.weights,
                                                    transform, list(spec.edges),
                                                    directed=directed)
                s = p.reachable_pairs
                got = {(shell, k): k * int(c) / s
                       for (shell, k), c in cells_of(p).items() if k > 0}
                assert got == pytest.approx(want)


class TestPadding:
    def test_pad_k3(self):
        p = pad_portrait(portrait(complete_graph(3)), 3)
        assert cells_of(p) == {(0, 1): 3, (1, 2): 3, (2, 0): 3}

    def test_pad_to_current_is_identity(self):
        p = portrait(path_graph(4))
        assert pad_portrait(p, p.n_rows) is p

    def test_pad_single_node(self):
        p = pad_portrait(portrait(Graph(1, False, ())), 2)
        assert cells_of(p) == {(0, 1): 1, (1, 0): 1}

    def test_pad_below_current_rejected(self):
        with pytest.raises(ValueError):
            pad_portrait(portrait(path_graph(4)), 1)

    def test_weighted_portrait_keeps_one_row_per_bin(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        p = weighted_portrait(g, BinSpec((1.0, 2.0, 3.0)), "identity")
        assert pad_portrait(p, p.n_rows) is p
        with pytest.raises(ValueError, match="one row per bin"):
            pad_portrait(p, p.n_rows + 1)


class TestIdentities:
    def test_p3(self):
        ids = portrait_identities(portrait(path_graph(3)))
        assert ids["n_nodes"] == 3
        assert ids["n_edges"] == 2
        assert ids["diameter"] == 2
        assert ids["degree_histogram"] == {1: 2, 2: 1}
        assert ids["path_length_counts"] == {1: 2, 2: 1}

    def test_k3(self):
        ids = portrait_identities(portrait(complete_graph(3)))
        assert ids["n_nodes"] == 3 and ids["n_edges"] == 3 and ids["diameter"] == 1

    def test_single_node(self):
        ids = portrait_identities(portrait(Graph(1, False, ())))
        assert ids["n_nodes"] == 1 and ids["n_edges"] == 0 and ids["diameter"] == 0

    def test_edge_count_identity_on_pool(self):
        for g in random_graph_pool(40, seed=37):
            assert portrait_identities(portrait(g))["n_edges"] == g.n_edges

    def test_weighted_portrait_rejected(self):
        g = Graph(2, False, ((0, 1),), weights=(2.0,))
        p = weighted_portrait(g, BinSpec((0.5, 0.5)))
        with pytest.raises(ValueError):
            portrait_identities(p)


class TestSerialization:
    def test_round_trip(self):
        for g in random_graph_pool(10, seed=39, max_nodes=20):
            p = portrait(g)
            assert Portrait.from_dict(p.to_dict()) == p

    def test_padded_directed_and_weighted_round_trips(self):
        arcs = Graph(4, True, ((0, 1), (1, 2), (3, 2)))
        weighted = attach_weights(arcs, seed=5, kind="dyadic")
        bins = BinSpec.from_quantiles(unique_path_lengths(weighted), 3)
        for p in (pad_portrait(portrait(path_graph(4)), 6), portrait(arcs),
                  pad_portrait(portrait(Graph(1, False, ())), 3),
                  weighted_portrait(weighted, bins)):
            back = Portrait.from_dict(json.loads(json.dumps(p.to_dict())))
            assert back == p
            assert np.array_equal(back.counts, p.counts)
            assert back.reachable_pairs == p.reachable_pairs
            assert joint_distribution(back) == joint_distribution(p)

    @pytest.mark.parametrize("rows, bad", [
        ([], "at least one row"),
        ([[[1, 5]], [[1, -3]]], "row 0 "),  # once a joint with masses 2.5 and -1.5
        ([[[1, 2]], [[1, 2], [-1, 0]]], "row 1 "),
        ([[[1, 2]], [[0, 1], [2, 1]]], "row 1 "),
        ([[[1, 2]], [[0, 1], [1, 1], [0, 0]]], "row 1 "),
        ([[[1, 2.0]]], "row 0 "),
        ([[[1, True], [0, 1]]], "row 0 "),
        ([[[1, 1]]], "row 0 "),
        ([[[1, 2, 0]]], "row 0 "),
    ])
    def test_from_dict_rejects_what_no_portrait_holds(self, rows, bad):
        with pytest.raises(ValueError, match=bad):
            Portrait.from_dict({"n_nodes": 2, "rows": rows})

    @pytest.mark.parametrize("edges", [[nan], [1.0, nan], [2.0, 1.0], [0.0, 1.0]])
    def test_from_dict_rejects_bad_bin_edges(self, edges):
        with pytest.raises(ValueError, match="bin edge"):
            Portrait.from_dict({"n_nodes": 2, "rows": [[[1, 2]], [[1, 2]]], "bin_edges": edges})

    @pytest.mark.parametrize("n_rows", [1, 2, 4])
    def test_from_dict_rejects_rows_that_do_not_fit_the_bins(self, n_rows):
        # two bins: the self-shell and one row per bin make three rows
        data = {"n_nodes": 2, "rows": [[[1, 2]]] * n_rows, "bin_edges": [1.0, 2.0, 3.0]}
        with pytest.raises(ValueError, match=f"2 bins need 3 rows.*got {n_rows}"):
            Portrait.from_dict(data)
        back = Portrait.from_dict({**data, "rows": [[[1, 2]]] * 3})
        assert back.n_rows == 3 and back.bin_edges == (1.0, 2.0, 3.0)

    def test_dict_shape(self):
        d = portrait(path_graph(3)).to_dict()
        assert d["n_nodes"] == 3
        assert d["directed"] is False
        assert d["bin_edges"] is None
        assert d["rows"] == [[[1, 3]], [[1, 2], [2, 1]], [[0, 1], [1, 2]]]

    def test_weighted_round_trip(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        p = weighted_portrait(g, BinSpec((1.0, 2.0, 3.0, 3.0)), "identity")
        back = Portrait.from_dict(p.to_dict())
        assert back == p and back.bin_edges == (1.0, 2.0, 3.0, 3.0)

    def test_dense_csv(self):
        text = portrait(path_graph(3)).to_dense_csv()
        assert text == "0,3,0\n0,2,1\n1,2,0\n"

    def test_counts_is_a_read_only_view_of_the_cells(self):
        p = portrait(path_graph(3))
        assert p.keys.tolist() == [0 << 32 | 1, 1 << 32 | 1, 1 << 32 | 2, 2 << 32 | 1]
        assert p.cell_counts.tolist() == [3, 2, 1, 2]
        assert p.counts is p.counts
        with pytest.raises(ValueError, match="read-only"):
            p.counts[0, 0] = 1
