"""Shared graph builders for the test suite."""

import numpy as np
from hypothesis import strategies as st

from netportrait import Graph, barabasi_albert, erdos_renyi


def path_graph(n):
    return Graph(n, False, tuple((i, i + 1) for i in range(n - 1)))


def grid_graph(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, False, tuple(right + down))


def complete_graph(n):
    return Graph(n, False, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def generalized_petersen(n, k):
    """Outer n-cycle, spokes, and an inner star polygon with step k.

    (10, 2) is the dodecahedral graph, (10, 3) the Desargues graph: the
    canonical non-isomorphic pair with identical portraits.
    """
    edges = []
    seen = set()
    for i in range(n):
        for u, v in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)):
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                edges.append((u, v))
    return Graph(2 * n, False, tuple(edges))


def dodecahedral_graph():
    return generalized_petersen(10, 2)


def desargues_graph():
    return generalized_petersen(10, 3)


def permute_graph(g, rng):
    """Relabel nodes by a random permutation; the portrait must not notice."""
    perm = rng.permutation(g.n_nodes)
    edges = tuple((int(perm[u]), int(perm[v])) for u, v in g.edges)
    return Graph(g.n_nodes, g.directed, edges, weights=g.weights)


def random_graph(rng, max_nodes=60, min_nodes=5):
    """One random graph: ER or BA, sizes and density varied, some disconnected."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    if rng.random() < 0.5:
        p = float(rng.uniform(0.01, 0.3))
        return erdos_renyi(n, p, int(rng.integers(2 ** 63)))
    m = int(rng.integers(1, min(5, n)))
    return barabasi_albert(n, m, int(rng.integers(2 ** 63)))


def random_graph_pool(count, seed, max_nodes=60, min_nodes=5):
    rng = np.random.default_rng(seed)
    return [random_graph(rng, max_nodes, min_nodes) for _ in range(count)]


def attach_weights(g, seed, kind="uniform"):
    rng = np.random.default_rng(seed)
    n = g.n_edges
    if kind == "uniform":
        w = rng.uniform(0.5, 2.0, n)
    elif kind == "lognormal":
        w = rng.lognormal(0.0, 0.75, n)
    elif kind == "integers":
        w = rng.integers(1, 11, n).astype(float)
    elif kind == "exponential":
        w = rng.exponential(1.5, n) + 0.05
    elif kind == "dyadic":
        # powers of two keep every path sum exact, so brute-force oracles
        # computed in a different summation order bin identically
        w = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], n)
    else:
        raise ValueError(kind)
    return Graph(g.n_nodes, g.directed, g.edges, weights=tuple(float(x) for x in w))


def unit_weighted(g):
    return Graph(g.n_nodes, g.directed, g.edges, weights=(1.0,) * g.n_edges)


@st.composite
def hop_graphs(draw, min_nodes=1, max_nodes=14):
    """Directed or undirected graphs whose nodes past a random count stay
    isolated, under a random labeling so isolated nodes fall anywhere."""
    n = draw(st.integers(min_nodes, max_nodes))
    directed = draw(st.booleans())
    linked = draw(st.integers(1, n))
    pairs = [(u, v) for u in range(linked) for v in range(linked)
             if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    label = draw(st.permutations(range(n)))
    return Graph(n, directed, tuple((label[u], label[v]) for u, v in edges))
