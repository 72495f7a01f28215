import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netportrait.graph
from netportrait import (
    BinSpec,
    ColumnCountError,
    EdgeListWarning,
    Graph,
    GraphParseError,
    connected_components,
    parse_edge_list,
    portrait,
    sssp_unweighted,
    sssp_weighted,
    unique_path_lengths,
    weighted_portrait,
)

import oracles
from graphtools import path_graph, random_graph_pool

INF = math.inf


class TestParse:
    def test_two_column(self):
        g = parse_edge_list("a b\nb c\n")
        assert g.n_nodes == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.labels == ("a", "b", "c")
        assert not g.weighted

    def test_self_loop_dropped_with_warning(self):
        with pytest.warns(EdgeListWarning, match="1 self-loop"):
            g = parse_edge_list("a a\na b\n")
        assert g.n_nodes == 2
        assert g.edges == ((0, 1),)

    def test_weighted(self):
        g = parse_edge_list("a b 1.5\nb c 2.0\n", weighted=True)
        assert g.weights == (1.5, 2.0)

    def test_comma_separated_and_comments(self):
        g = parse_edge_list("# header\na,b\n\nb, c\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_bytes_and_stream_input(self):
        assert parse_edge_list(b"a b\n").n_edges == 1
        assert parse_edge_list(io.StringIO("a b\n")).n_edges == 1

    def test_byte_order_mark_is_skipped(self):
        text = "\ufeffa b\nb c\nc a\n"
        plain = parse_edge_list(text[1:])
        for source in (text, text.encode("utf-8"), io.BytesIO(text.encode("utf-8")),
                       io.StringIO(text)):
            g = parse_edge_list(source)
            assert g == plain and g.labels == ("a", "b", "c")
        assert parse_edge_list("\ufeff# header\na b\n").labels == ("a", "b")
        # only one mark, and only at the start of the text
        assert parse_edge_list("\ufeff\ufeffa b\n").labels == ("\ufeffa", "b")
        assert parse_edge_list("a b\n\ufeffc a\n").labels == ("a", "b", "\ufeffc")

    def test_duplicates_collapse_unweighted(self):
        with pytest.warns(EdgeListWarning, match="duplicate"):
            g = parse_edge_list("a b\nb a\n")
        assert g.edges == ((0, 1),)

    def test_duplicates_sum_weights(self):
        with pytest.warns(EdgeListWarning, match="weights summed"):
            g = parse_edge_list("a b 1.5\nb a 2.0\n", weighted=True)
        assert g.weights == (3.5,)

    def test_directed_reverse_is_not_duplicate(self):
        g = parse_edge_list("a b\nb a\n", directed=True)
        assert g.edges == ((0, 1), (1, 0))

    def test_malformed_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("a b\nonly_one_field\n")

    def test_weighted_flag_but_two_columns(self):
        with pytest.raises(ColumnCountError, match="line 1"):
            parse_edge_list("a b\n", weighted=True)

    def test_three_columns_without_weighted_flag(self):
        with pytest.raises(ColumnCountError):
            parse_edge_list("a b 1.5\n")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphParseError, match="positive"):
            parse_edge_list("a b 0\n", weighted=True)
        with pytest.raises(GraphParseError, match="positive"):
            parse_edge_list("a b -2\n", weighted=True)

    def test_unparseable_weight(self):
        with pytest.raises(GraphParseError, match="invalid weight"):
            parse_edge_list("a b heavy\n", weighted=True)

    def test_empty_input(self):
        g = parse_edge_list("# nothing\n")
        assert g.n_nodes == 0
        assert g.edges == ()


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, False, ((0, 0),))

    def test_rejects_duplicate_unordered(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, False, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, False, ((0, 2),))

    def test_rejects_partial_weights(self):
        with pytest.raises(ValueError, match="cover every edge"):
            Graph(3, False, ((0, 1), (1, 2)), weights=(1.0,))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(2, False, ((0, 1),), weights=(0.0,))


class TestComponents:
    def test_path(self):
        assert connected_components(path_graph(3)) == [3]

    def test_edge_plus_isolated(self):
        assert connected_components(Graph(3, False, ((0, 1),))) == [2, 1]

    def test_edgeless(self):
        assert connected_components(Graph(4, False, ())) == [1, 1, 1, 1]

    def test_directed_weak(self):
        g = Graph(3, True, ((0, 1), (2, 1)))
        assert connected_components(g) == [3]


class TestShortestPaths:
    def test_path_graph(self):
        assert list(sssp_unweighted(path_graph(3), 0)) == [0, 1, 2]

    def test_unreachable(self):
        d = sssp_unweighted(Graph(3, False, ((0, 1),)), 0)
        assert list(d[:2]) == [0, 1] and d[2] == INF

    def test_complete(self):
        g = Graph(3, False, ((0, 1), (0, 2), (1, 2)))
        assert list(sssp_unweighted(g, 1)) == [1, 0, 1]

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            sssp_unweighted(path_graph(3), 3)

    def test_directed_follows_direction(self):
        g = Graph(3, True, ((0, 1), (1, 2)))
        assert list(sssp_unweighted(g, 0)) == [0, 1, 2]
        assert list(sssp_unweighted(g, 2)) == [INF, INF, 0]

    def test_weighted_identity(self):
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        assert list(sssp_weighted(g, 0, "identity")) == [0.0, 1.0, 3.0]

    def test_weighted_reciprocal(self):
        # the only path 0-1-2 costs 1/1 + 1/2
        g = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        assert list(sssp_weighted(g, 0, "reciprocal")) == [0.0, 1.0, 1.5]

    def test_bad_transform(self):
        g = Graph(2, False, ((0, 1),), weights=(2.0,))
        for call in (lambda: sssp_weighted(path_graph(2), 0, "square"),
                     lambda: unique_path_lengths(g, "square"),
                     lambda: weighted_portrait(g, BinSpec((0.5, 1.0)), "square")):
            with pytest.raises(ValueError, match="transform"):
                call()

    def test_reciprocal_prefers_heavy_edges(self):
        # direct light edge (w=1, cost 1) loses to the two heavy hops (cost 0.2+0.2)
        g = Graph(3, False, ((0, 2), (0, 1), (1, 2)), weights=(1.0, 5.0, 5.0))
        d = sssp_weighted(g, 0, "reciprocal")
        assert d[2] == pytest.approx(0.4)


class TestAgainstFloydWarshall:
    def test_unweighted_rows_match_oracle(self):
        for g in random_graph_pool(30, seed=42, max_nodes=50):
            want = oracles.floyd_warshall(g.n_nodes, g.edges)
            for s in range(g.n_nodes):
                got = sssp_unweighted(g, s)
                assert all(got[v] == want[s][v] for v in range(g.n_nodes))

    def test_undirected_distances_symmetric(self):
        for g in random_graph_pool(20, seed=7, max_nodes=50):
            dist = [sssp_unweighted(g, s) for s in range(g.n_nodes)]
            for u in range(g.n_nodes):
                for v in range(u):
                    assert dist[u][v] == dist[v][u]

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(3)
        for g in random_graph_pool(10, seed=11, max_nodes=30):
            w = tuple(float(x) for x in rng.uniform(0.2, 4.0, g.n_edges))
            gw = Graph(g.n_nodes, False, g.edges, weights=w)
            for transform in ("identity", "reciprocal"):
                want = oracles.floyd_warshall(g.n_nodes, g.edges, weights=w,
                                              transform=transform)
                for s in range(g.n_nodes):
                    got = sssp_weighted(gw, s, transform)
                    assert got == pytest.approx(want[s], rel=1e-12, abs=1e-12)

    def test_unit_weights_match_bfs(self):
        count = 0
        for g in random_graph_pool(100, seed=13, max_nodes=25):
            gw = Graph(g.n_nodes, False, g.edges, weights=(1.0,) * g.n_edges)
            for s in range(0, g.n_nodes, 5):
                assert list(sssp_weighted(gw, s, "identity")) == list(sssp_unweighted(g, s))
                assert list(sssp_weighted(gw, s, "reciprocal")) == list(sssp_unweighted(g, s))
            count += 1
        assert count == 100

    def test_components_match_reachability_partition(self):
        for g in random_graph_pool(20, seed=5, max_nodes=40):
            sizes = []
            seen = set()
            for s in range(g.n_nodes):
                if s in seen:
                    continue
                row = sssp_unweighted(g, s)
                members = {v for v in range(g.n_nodes) if row[v] < INF}
                seen |= members
                sizes.append(len(members))
            assert sorted(sizes, reverse=True) == connected_components(g)


class TestOneAdjacency:
    def test_undirected_sweeps_and_hop_portrait_build_one_csr(self, monkeypatch):
        build = netportrait.graph._in_neighbours
        built = []

        def counting(g, *args, **kwargs):
            built.append(args)
            return build(g, *args, **kwargs)

        monkeypatch.setattr(netportrait.graph, "_in_neighbours", counting)
        g = Graph(6, False, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)),
                  weights=(1.0, 2.0, 0.5, 4.0, 1.5, 3.0))
        for s in range(g.n_nodes):
            sssp_weighted(g, s, "identity")
            sssp_weighted(g, s, "reciprocal")
        assert len(built) == 1 and "_csr" in vars(g)
        portrait(g, ignore_weights=True)
        assert len(built) == 1


@st.composite
def weighted_graphs(draw, min_nodes=1, max_nodes=12):
    """Small directed or undirected graphs with some isolated nodes, carrying
    integer weights 1-3 (many tied lengths) or lognormal weights."""
    n = draw(st.integers(min_nodes, max_nodes))
    directed = draw(st.booleans())
    linked = draw(st.integers(1, n))  # nodes linked .. n - 1 stay isolated
    pairs = [(u, v) for u in range(linked) for v in range(linked)
             if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 3).map(float), min_size=len(edges),
                                max_size=len(edges)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        weights = rng.lognormal(0.0, 1.0, len(edges)).tolist()
    return Graph(n, directed, tuple(edges), weights=tuple(weights))


def _oracle_rows(g, transform):
    return [oracles.dijkstra(g.n_nodes, g.edges, s, g.directed, g.weights, transform)
            for s in range(g.n_nodes)]


def _assert_kept_sweep_matches(g, transform, rows):
    batches = g._path_lengths(transform)
    runs = [[d for v, d in enumerate(row) if v != s and d < INF] for s, row in enumerate(rows)]
    lengths = np.concatenate([lengths for lengths, _ in batches])
    assert lengths.tolist() == [d for run in runs for d in run]
    assert np.concatenate([sizes for _, sizes in batches]).tolist() == [len(run) for run in runs]


class TestSweepAgainstDijkstra:
    """The batched relaxation sweep returns the heapq Dijkstra's floats exactly."""

    @settings(max_examples=100)
    @given(weighted_graphs(), st.sampled_from(("identity", "reciprocal")))
    def test_rows_and_kept_sweep_equal_oracle(self, g, transform):
        rows = _oracle_rows(g, transform)
        for s in range(g.n_nodes):
            assert sssp_weighted(g, s, transform).tolist() == rows[s]
        _assert_kept_sweep_matches(g, transform, rows)

    @settings(max_examples=50)
    @given(weighted_graphs(min_nodes=7), st.sampled_from(("identity", "reciprocal")))
    def test_sweep_in_batches_with_a_partial_last_batch(self, g, transform):
        step = (g.n_nodes - 1) // 2  # 7..12 nodes: 3 batches, the last one short
        entries = g.n_edges * (1 if g.directed else 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netportrait.graph, "_SWEEP_ENTRIES", step * max(g.n_nodes, entries))
            batches = [dist.shape[0] for dist in
                       netportrait.graph._sweep(g, np.arange(g.n_nodes), transform)]
            assert len(batches) >= 3 and batches[-1] < step == batches[0]
            _assert_kept_sweep_matches(g, transform, _oracle_rows(g, transform))
