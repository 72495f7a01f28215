import hashlib
import math
import statistics

import numpy as np
import pytest

from netportrait import (
    Graph,
    barabasi_albert,
    erdos_renyi,
    rewire_degree_preserving,
    rewire_random,
    rewiring_curve,
)
from netportrait.ensembles import _bounded

from graphtools import complete_graph, random_graph_pool


def degrees(g):
    d = [0] * g.n_nodes
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    return d


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi(10, 0.0, 1).n_edges == 0

    def test_p_one(self):
        g = erdos_renyi(6, 1.0, 1)
        assert g.n_edges == 15

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5, 1)
        with pytest.raises(ValueError):
            erdos_renyi(10, -0.1, 1)

    def test_deterministic(self):
        assert erdos_renyi(50, 0.1, 99).edges == erdos_renyi(50, 0.1, 99).edges
        assert erdos_renyi(50, 0.1, 99).edges != erdos_renyi(50, 0.1, 100).edges

    def test_mean_edge_count(self):
        # binomial mean n(n-1)p/2 over 200 seeds, tolerance 3 sigma / sqrt(200)
        n, p, seeds = 300, 3 / 299, 200
        counts = [erdos_renyi(n, p, s).n_edges for s in range(seeds)]
        n_pairs = n * (n - 1) / 2
        sigma = math.sqrt(n_pairs * p * (1 - p))
        assert statistics.fmean(counts) == pytest.approx(
            n_pairs * p, abs=3 * sigma / math.sqrt(seeds))


class TestBarabasiAlbert:
    def test_seed_graph_only(self):
        g = barabasi_albert(4, 3, 1)
        assert sorted(g.edges) == sorted(complete_graph(4).edges)

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 5, 1)

    def test_edge_count_and_min_degree(self):
        for n, m, s in ((50, 1, 2), (80, 3, 3), (40, 5, 4)):
            g = barabasi_albert(n, m, s)
            assert g.n_edges == m * (m + 1) // 2 + m * (n - m - 1)
            assert min(degrees(g)) >= m

    def test_connected(self):
        from netportrait import connected_components
        for s in range(5):
            assert connected_components(barabasi_albert(120, 2, s)) == [120]

    def test_deterministic(self):
        assert barabasi_albert(60, 2, 7).edges == barabasi_albert(60, 2, 7).edges

    def test_heavy_tail(self):
        # hubs: max degree exceeds 3x the mean degree in >= 95% of 50 seeds
        hits = 0
        for s in range(50):
            g = barabasi_albert(300, 3, s)
            if max(degrees(g)) > 3 * (2 * g.n_edges / g.n_nodes):
                hits += 1
        assert hits >= 48


class TestRewireRandom:
    def test_zero_rewirings_identity(self):
        g = barabasi_albert(30, 2, 1)
        assert rewire_random(g, 0, 5).edges == g.edges

    def test_edge_count_preserved(self):
        for g in random_graph_pool(10, seed=71, max_nodes=40):
            if g.n_edges == 0:
                continue
            out = rewire_random(g, 25, 9)
            assert out.n_edges == g.n_edges
            assert out.n_nodes == g.n_nodes

    def test_deterministic(self):
        g = barabasi_albert(40, 2, 2)
        assert rewire_random(g, 50, 3).edges == rewire_random(g, 50, 3).edges

    def test_rejects_weighted(self):
        g = Graph(3, False, ((0, 1),), weights=(1.0,))
        with pytest.raises(ValueError):
            rewire_random(g, 1, 0)

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            rewire_random(Graph(3, False, ()), 1, 0)


class TestRewireDegreePreserving:
    def test_zero_rewirings_identity(self):
        g = barabasi_albert(30, 2, 1)
        assert rewire_degree_preserving(g, 0, 5).edges == g.edges

    def test_degree_sequence_preserved_exactly(self):
        for g in random_graph_pool(10, seed=73, max_nodes=40):
            if g.n_edges < 2:
                continue
            out = rewire_degree_preserving(g, 25, 11)
            assert degrees(out) == degrees(g)
            assert out.n_edges == g.n_edges

    def test_deterministic(self):
        g = barabasi_albert(40, 2, 2)
        a = rewire_degree_preserving(g, 50, 3).edges
        assert a == rewire_degree_preserving(g, 50, 3).edges

    def test_budget_exhausted_when_no_swap_exists(self):
        # complete graph: every candidate edge already exists
        with pytest.raises(RuntimeError, match="budget"):
            rewire_degree_preserving(complete_graph(4), 1, 0)

    def test_rejects_directed(self):
        g = Graph(3, True, ((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            rewire_degree_preserving(g, 1, 0)


# Recorded with the scalar ``rng.integers`` draws of commit 154d8ea, before the
# generators drew through ``_bounded``: SHA-1 of ``repr(g.edges)``.
BA_DIGESTS = {
    0: "a361420a7bb4e7453eaf6ec3ae91214e5866a718",
    1: "8c94b0695072678e5e87b0c34c1d1a84c06d0289",
    2: "186174584f2814aef3cd51a5727eafc3782b495f",
}
REWIRE_DIGESTS = {
    ("er", "random", 10): "651e81256f37ec4b93d1843dc796ee0a9fc46a80",
    ("er", "random", 100): "0c6a29e1e91fa3448c9b5292e228c104a629430c",
    ("er", "random", 1000): "6c9b2e50930025546122ea0606214c042d914446",
    ("er", "degree-preserving", 10): "8a645fe8afdd68e66dde676c6318b4d807fa72de",
    ("er", "degree-preserving", 100): "03b45a5f29c06f33002997d5c2bdcc340410e88f",
    ("er", "degree-preserving", 1000): "18d12a264167665de620209730e9d18a5a72d333",
    ("ba", "random", 10): "c212afdf9cf5d3bb473494e81cb3ee420cd6df3f",
    ("ba", "random", 100): "34473546d8766bd24430d2857a69cd1f86d03c7e",
    ("ba", "random", 1000): "a5c70de05b435fa715d20fbb6124e3cc61a22e35",
    ("ba", "degree-preserving", 10): "76c1f8bbfe51ef6def6dabed2c97c2c3624f94d8",
    ("ba", "degree-preserving", 100): "9da8343648f4a537c63a907111faa65d43f60e81",
    ("ba", "degree-preserving", 1000): "12d209ae18c80adc948d6088ffa0505aa06aa91c",
}
# rewiring_curve(n_nodes=60, er_p=0.08, rewirings=(5, 50), n_seeds=3, seed=3)
CURVE = [
    ("er", "random", 5, 0.10710340166845388, 0.025462895369915188),
    ("er", "random", 50, 0.1510735974781433, 0.026566723648445957),
    ("er", "degree-preserving", 5, 0.09803334983782115, 0.018974490216462067),
    ("er", "degree-preserving", 50, 0.12980097050775855, 0.02329675636551245),
    ("ba", "random", 5, 0.15728254174699333, 0.039694783160324675),
    ("ba", "random", 50, 0.23749417183308477, 0.015364386123751137),
    ("ba", "degree-preserving", 5, 0.18558293721068708, 0.03673265801465105),
    ("ba", "degree-preserving", 50, 0.19077633272892824, 0.030289012651452486),
]


def edge_digest(g):
    return hashlib.sha1(repr(g.edges).encode()).hexdigest()


class TestStream:
    """Generators and rewirings draw the values scalar ``rng.integers`` calls drew."""

    HIGHS = [1, 2, 3, 300, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 5, 2 ** 32 - 1]

    @pytest.mark.parametrize("seed", range(50))
    def test_bounded_draws_follow_integers(self, seed):
        highs = np.random.default_rng([seed, 1]).choice(self.HIGHS, 5000).tolist()
        draw, rng = _bounded(np.random.default_rng(seed)), np.random.default_rng(seed)
        assert [draw(h) for h in highs] == [int(rng.integers(h)) for h in highs]

    @pytest.mark.parametrize("high", [0, -1, 2 ** 32, 2 ** 40])
    def test_out_of_range_raises(self, high):
        with pytest.raises(ValueError, match="high"):
            _bounded(np.random.default_rng(0))(high)

    @pytest.mark.parametrize("seed", sorted(BA_DIGESTS))
    def test_barabasi_albert_golden(self, seed):
        assert edge_digest(barabasi_albert(300, 3, seed)) == BA_DIGESTS[seed]

    @pytest.mark.parametrize("key", sorted(REWIRE_DIGESTS))
    def test_rewiring_golden(self, key):
        model, mode, n = key
        base = erdos_renyi(300, 3 / 299, 5) if model == "er" else barabasi_albert(300, 3, 6)
        rewire = rewire_random if mode == "random" else rewire_degree_preserving
        assert edge_digest(rewire(base, n, 7)) == REWIRE_DIGESTS[key]

    def test_rewiring_curve_golden(self):
        points = rewiring_curve(n_nodes=60, er_p=0.08, rewirings=(5, 50), n_seeds=3, seed=3)
        assert [(p.model, p.mode, p.n_rewirings, p.mean_d_js, p.sd_d_js)
                for p in points] == CURVE
