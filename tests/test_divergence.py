import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netportrait.divergence
from netportrait import (
    Graph,
    JointDistribution,
    joint_distribution,
    jsd_bits,
    kl_divergence_bits,
    legacy_delta,
    pad_portrait,
    portrait,
    portrait_divergence,
    weighted_portrait_divergence,
)

import oracles
from graphtools import (
    attach_weights,
    complete_graph,
    desargues_graph,
    dodecahedral_graph,
    hop_graphs,
    path_graph,
    permute_graph,
    random_graph_pool,
    unit_weighted,
)

P3 = path_graph(3)
K3 = complete_graph(3)
D_JS_P3_K3 = 0.3060986113514965  # frozen from the brute-force oracle


def joint_of(g):
    return joint_distribution(portrait(g))


def oracle_joint(g):
    return oracles.joint_cells(g.n_nodes, g.edges, g.directed)


class TestJointDistribution:
    def test_p3(self):
        j = joint_distribution(portrait(P3))
        assert j.mass == pytest.approx(
            {(0, 1): 3 / 9, (1, 1): 2 / 9, (1, 2): 2 / 9, (2, 1): 2 / 9})

    def test_k3(self):
        j = joint_distribution(portrait(K3))
        assert j.mass == pytest.approx({(0, 1): 1 / 3, (1, 2): 2 / 3})

    def test_edge_plus_isolated(self):
        j = joint_distribution(portrait(Graph(3, False, ((0, 1),))))
        assert j.mass == pytest.approx({(0, 1): 3 / 5, (1, 1): 2 / 5})

    def test_sums_to_one_on_pool(self):
        for g in random_graph_pool(50, seed=41):
            assert abs(joint_distribution(portrait(g)).total() - 1.0) <= 1e-12

    def test_sums_to_one_directed(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = tuple(p for p in pairs if rng.random() < 0.2)
            j = joint_distribution(portrait(Graph(n, True, edges)))
            assert abs(j.total() - 1.0) <= 1e-12

    def test_excludes_k_zero(self):
        j = joint_distribution(portrait(Graph(3, False, ((0, 1),))))
        assert all(k >= 1 for _, k in j.mass)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            JointDistribution({(0, 0): 1.0})
        with pytest.raises(ValueError):
            JointDistribution({(0, 1): 0.5})

    def test_rejection_messages(self):
        with pytest.raises(ValueError, match=r"^invalid cell \(0, 0\) with mass 1\.0$"):
            JointDistribution({(0, 0): 1.0})
        # the first bad cell in the caller's order is named
        with pytest.raises(ValueError, match=r"^invalid cell \(2, 1\) with mass -0\.5$"):
            JointDistribution({(0, 1): 1.0, (2, 1): -0.5, (1, 0): 0.5})
        with pytest.raises(ValueError, match=r"^joint mass sums to 0\.5, not 1$"):
            JointDistribution({(0, 1): 0.5})
        with pytest.raises(ValueError, match=r"^joint mass sums to 0\.0, not 1$"):
            JointDistribution({})
        # cells must fit the 32-bit halves of their int64 keys
        for cell in ((0, 2 ** 32 + 1), (2 ** 31, 1)):
            with pytest.raises(ValueError, match="invalid cell"):
                JointDistribution({cell: 1.0})

    @settings(max_examples=50)
    @given(hop_graphs())
    def test_dict_constructor_round_trips_in_sorted_order(self, g):
        j = joint_of(g)
        again = JointDistribution(j.mass)
        assert list(again.mass.items()) == list(j.mass.items())
        assert again == j
        reordered = JointDistribution(dict(reversed(list(j.mass.items()))))
        assert list(reordered.mass.items()) == list(j.mass.items())

    def test_mass_is_read_only(self):
        j = joint_of(P3)
        with pytest.raises(TypeError):
            j.mass[(0, 1)] = 0.5
        with pytest.raises(AttributeError):
            j.mass = {(0, 1): 1.0}
        assert j.mass == pytest.approx({(0, 1): 3 / 9, (1, 1): 2 / 9, (1, 2): 2 / 9, (2, 1): 2 / 9})


class TestKL:
    def test_self_is_zero(self):
        j = joint_distribution(portrait(P3))
        assert kl_divergence_bits(j, j) == 0.0

    def test_p3_against_mixture(self):
        p = joint_distribution(portrait(P3))
        q = joint_distribution(portrait(K3))
        cells = p.mass.keys() | q.mass.keys()
        m = JointDistribution({c: 0.5 * (p.mass.get(c, 0.0) + q.mass.get(c, 0.0))
                               for c in cells})
        assert kl_divergence_bits(p, m) == pytest.approx(2 / 9, abs=1e-15)
        assert kl_divergence_bits(q, m) == pytest.approx((2 / 3) * math.log2(1.5), abs=1e-15)
        assert kl_divergence_bits(q, m) == pytest.approx(0.389975, abs=1e-6)

    def test_support_violation_names_cell(self):
        p = joint_distribution(portrait(P3))
        q = joint_distribution(portrait(K3))
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            kl_divergence_bits(p, q)


class TestJsdKernelDifferential:
    """The array kernel against the dict loop it replaced, bit for bit (==)."""

    @settings(max_examples=150)
    @given(hop_graphs(), hop_graphs())
    def test_jsd_and_kl_equal_dict_loops(self, g1, g2):
        p, q = oracle_joint(g1), oracle_joint(g2)
        assert jsd_bits(joint_of(g1), joint_of(g2)) == oracles.jsd_parts(p, q)
        mixture = {c: 0.5 * (p.get(c, 0.0) + q.get(c, 0.0)) for c in p.keys() | q.keys()}
        got = kl_divergence_bits(joint_of(g1), JointDistribution(mixture))
        assert got == oracles.kl_bits(p, mixture)

    @settings(max_examples=40)
    @given(st.lists(hop_graphs(), min_size=2, max_size=6))
    def test_matrix_entries_equal_jsd_bits(self, graphs):
        joints = [joint_of(g) for g in graphs]
        values = netportrait.divergence._jsd_matrix(joints)
        for i, j in itertools.product(range(len(joints)), repeat=2):
            assert values[i, j] == (jsd_bits(joints[i], joints[j])[0] if i != j else 0.0)

    @settings(max_examples=40)
    @given(st.lists(hop_graphs(), min_size=4, max_size=7))
    def test_matrix_in_batches_with_a_partial_last_batch(self, graphs):
        div = netportrait.divergence
        joints = [joint_of(g) for g in graphs]
        k, cells = len(joints), div._mass_rows(joints).shape[1]
        logs, log2 = [], div._log2
        with pytest.MonkeyPatch.context() as mp:
            # two rows per block: the row with three rows after it ends in a block of one
            mp.setattr(div, "_JSD_CELLS", 2 * cells)
            mp.setattr(div, "_log2", lambda x: logs.append(x.size) or log2(x))
            values = div._jsd_matrix(joints)
        assert len(logs) == 2 * sum((rows + 1) // 2 for rows in range(1, k))  # two per block
        for i, j in itertools.combinations(range(k), 2):
            assert values[i, j] == values[j, i] == jsd_bits(joints[i], joints[j])[0]

    def test_identical_joints_give_exact_zero(self):
        for g in (P3, K3, dodecahedral_graph(), Graph(4, True, ((0, 1), (2, 1)))):
            j = joint_of(g)
            assert jsd_bits(j, j) == (0.0, 0.0, 0.0)
            assert kl_divergence_bits(j, j) == 0.0
            assert not netportrait.divergence._jsd_matrix([j, j, joint_of(g)]).any()

    def test_disjoint_supports_are_one_bit_apart(self):
        p = {(0, 1): 0.25, (1, 1): 0.75}
        q = {(1, 2): 0.5, (2, 1): 0.5}
        got = jsd_bits(JointDistribution(p), JointDistribution(q))
        assert got == oracles.jsd_parts(p, q) == (1.0, 1.0, 1.0)

    def test_one_cell_joint(self):
        lone = joint_of(Graph(5, False, ()))
        assert list(lone.mass.items()) == [((0, 1), 1.0)]
        others = [P3, K3, path_graph(6), Graph(3, True, ((0, 1),))]
        for g in others:
            assert jsd_bits(lone, joint_of(g)) == oracles.jsd_parts(dict(lone.mass), oracle_joint(g))
        values = netportrait.divergence._jsd_matrix([lone] + [joint_of(g) for g in others])
        assert values[0, 1:].tolist() == [jsd_bits(lone, joint_of(g))[0] for g in others]

    def test_logarithm_is_math_log2(self):
        # a pair where np.log2 in place of math.log2 changes the last bits
        p = {(0, 1): 1 / 12, (1, 1): 11 / 12}
        q = {(0, 1): 2 / 12, (1, 1): 10 / 12}
        assert jsd_bits(JointDistribution(p), JointDistribution(q)) == oracles.jsd_parts(p, q)


class TestPortraitDivergence:
    def test_self_is_exactly_zero(self):
        for g in (P3, K3, dodecahedral_graph()):
            r = portrait_divergence(g, g)
            assert r.d_js == 0.0 and r.kl_p_m_bits == 0.0 and r.kl_q_m_bits == 0.0

    def test_p3_vs_k3(self):
        r = portrait_divergence(P3, K3)
        assert r.d_js == pytest.approx(D_JS_P3_K3, abs=1e-12)
        assert r.d_js == pytest.approx(0.306099, abs=1e-6)
        assert r.d_js == pytest.approx(0.5 * (r.kl_p_m_bits + r.kl_q_m_bits), abs=0)
        assert (r.n1, r.m1, r.n2, r.m2) == (3, 2, 3, 3)

    def test_invariant_pair_is_zero(self):
        assert portrait_divergence(dodecahedral_graph(), desargues_graph()).d_js == 0.0

    def test_relabeled_graph_is_zero(self):
        rng = np.random.default_rng(45)
        for g in random_graph_pool(20, seed=47):
            assert portrait_divergence(g, permute_graph(g, rng)).d_js == 0.0

    def test_symmetry(self):
        pool = random_graph_pool(40, seed=49, max_nodes=40)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            a = portrait_divergence(g1, g2).d_js
            b = portrait_divergence(g2, g1).d_js
            assert abs(a - b) <= 1e-12

    def test_range(self):
        pool = random_graph_pool(40, seed=51, max_nodes=40)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            d = portrait_divergence(g1, g2).d_js
            assert 0.0 <= d <= 1.0

    def test_padding_insensitive(self):
        pool = random_graph_pool(10, seed=53, max_nodes=30)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            base = portrait_divergence(g1, g2).d_js
            p1 = pad_portrait(portrait(g1), portrait(g1).n_rows + 3)
            padded, _, _ = jsd_bits(joint_distribution(p1),
                                    joint_distribution(portrait(g2)))
            assert abs(padded - base) <= 1e-15

    def test_sqrt_triangle_inequality(self):
        pool = random_graph_pool(24, seed=55, max_nodes=25)
        rng = np.random.default_rng(57)
        joints = [joint_distribution(portrait(g)) for g in pool]
        for _ in range(60):
            a, b, c = rng.choice(len(pool), size=3, replace=False)
            dab = math.sqrt(jsd_bits(joints[a], joints[b])[0])
            dbc = math.sqrt(jsd_bits(joints[b], joints[c])[0])
            dac = math.sqrt(jsd_bits(joints[a], joints[c])[0])
            assert dac <= dab + dbc + 1e-9

    def test_matches_bruteforce_small(self):
        pool = random_graph_pool(12, seed=59, max_nodes=7, min_nodes=2)
        for g1, g2 in itertools.combinations(pool, 2):
            want = oracles.jsd_bits(oracles.joint_cells(g1.n_nodes, g1.edges),
                                    oracles.joint_cells(g2.n_nodes, g2.edges))
            assert portrait_divergence(g1, g2).d_js == pytest.approx(want, abs=1e-12)

    def test_report_dict_keys(self):
        d = portrait_divergence(P3, K3).to_dict()
        assert set(d) == {"d_js", "kl_p_m_bits", "kl_q_m_bits", "n1", "m1", "n2", "m2", "bins"}
        assert d["bins"] is None


class TestWeightedDivergence:
    def test_self_is_zero(self):
        g = attach_weights(path_graph(5), seed=1, kind="uniform")
        assert weighted_portrait_divergence(g, g, 10).d_js == 0.0

    def test_unit_weight_reduction_matches_unweighted(self):
        pool = random_graph_pool(10, seed=61, max_nodes=25)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            want = portrait_divergence(g1, g2).d_js
            got = weighted_portrait_divergence(unit_weighted(g1), unit_weighted(g2),
                                               10_000, "identity").d_js
            assert abs(got - want) <= 1e-15

    def test_weighted_p3_vs_unit_k3(self):
        wp3 = Graph(3, False, ((0, 1), (1, 2)), weights=(1.0, 2.0))
        wk3 = Graph(3, False, ((0, 1), (1, 2), (0, 2)), weights=(1.0, 1.0, 1.0))
        r = weighted_portrait_divergence(wp3, wk3, 3, "identity")
        want = oracles.jsd_bits(
            oracles.weighted_joint_cells(3, wp3.edges, wp3.weights, "identity",
                                         list(r.bin_edges)),
            oracles.weighted_joint_cells(3, wk3.edges, wk3.weights, "identity",
                                         list(r.bin_edges)))
        assert r.d_js == pytest.approx(want, abs=1e-12)
        assert r.bin_edges == (1.0, 2.0, 3.0, 3.0)

    def test_matches_bruteforce_dyadic(self):
        pool = random_graph_pool(8, seed=63, max_nodes=12, min_nodes=3)
        weighted = [attach_weights(g, seed=70 + i, kind="dyadic")
                    for i, g in enumerate(pool) if g.n_edges > 0]
        for g1, g2 in itertools.combinations(weighted, 2):
            r = weighted_portrait_divergence(g1, g2, 5, "reciprocal")
            want = oracles.jsd_bits(
                oracles.weighted_joint_cells(g1.n_nodes, g1.edges, g1.weights,
                                             "reciprocal", list(r.bin_edges)),
                oracles.weighted_joint_cells(g2.n_nodes, g2.edges, g2.weights,
                                             "reciprocal", list(r.bin_edges)))
            assert r.d_js == pytest.approx(want, abs=1e-12)

    def test_report_carries_binning(self):
        g1 = attach_weights(path_graph(4), seed=2, kind="uniform")
        g2 = attach_weights(complete_graph(4), seed=3, kind="uniform")
        r = weighted_portrait_divergence(g1, g2, 4)
        assert r.bin_edges is not None
        assert r.to_dict()["bins"] == list(r.bin_edges)


class TestLegacyDelta:
    def test_self_is_zero(self):
        assert legacy_delta(P3, P3) == 0.0

    def test_p3_vs_k3(self):
        assert legacy_delta(P3, K3) == pytest.approx(8 / 21, abs=1e-12)

    def test_identical_portraits_give_zero(self):
        assert legacy_delta(dodecahedral_graph(), desargues_graph()) == 0.0

    def test_symmetric(self):
        pool = random_graph_pool(10, seed=65, max_nodes=25)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            assert legacy_delta(g1, g2) == pytest.approx(legacy_delta(g2, g1), abs=1e-12)

    def test_matches_bruteforce(self):
        pool = random_graph_pool(10, seed=67, max_nodes=10, min_nodes=2)
        for g1, g2 in zip(pool[::2], pool[1::2]):
            want = oracles.ks_delta(g1.n_nodes, g1.edges, g2.n_nodes, g2.edges)
            assert legacy_delta(g1, g2) == pytest.approx(want, abs=1e-12)

    def test_cells_equal_dense_oracle_on_pool(self):
        portraits = [portrait(g) for g in random_graph_pool(300, seed=7)]
        for p1, p2 in zip(portraits, portraits[1:]):
            want = oracles.dense_ks_delta(p1.counts, p2.counts)
            assert netportrait.divergence._legacy_delta(p1, p2) == want

    @pytest.mark.parametrize("g1, g2", [
        (Graph(1, False, ()), Graph(1, False, ())),
        (Graph(1, False, ()), Graph(2, False, ((0, 1),))),
        (Graph(2, False, ()), Graph(2, False, ((0, 1),))),
        (Graph(5, False, ()), path_graph(5)),
        (Graph(3, True, ((0, 1), (1, 2))), Graph(4, True, ((0, 1), (1, 2), (2, 3), (3, 0)))),
        (Graph(6, True, ((0, 1), (2, 1), (3, 4))), path_graph(2)),
        (path_graph(40), complete_graph(7)),
        (path_graph(3), Graph(9, False, ((0, 1), (2, 3), (4, 5), (5, 6)))),
        (dodecahedral_graph(), desargues_graph()),
    ], ids=["one-one", "one-two", "edgeless-edge", "edgeless-path", "directed",
            "directed-isolated", "long-short", "connected-disconnected", "same-portrait"])
    def test_cells_equal_dense_oracle_at_the_edges(self, g1, g2):
        for p1, p2 in ((portrait(g1), portrait(g2)), (portrait(g2), portrait(g1)),
                       (pad_portrait(portrait(g1), 50), portrait(g2))):
            want = oracles.dense_ks_delta(p1.counts, p2.counts)
            assert netportrait.divergence._legacy_delta(p1, p2) == want
