"""Random-graph generators and edge-rewiring perturbations.

All functions are deterministic given a seed: the stream is numpy's default
PCG64 generator, so a (seed, parameters) pair reproduces the same graph on
every run of the same environment. Independent seeds may run concurrently.

Each function owns its generator. Preferential attachment and the rewirings
draw their bounded integers through ``_bounded``: block reads of the raw
stream under numpy's own ``integers(high)`` rule for high < 2^32 (Lemire, ACM
TOMACS 2019), giving the values scalar ``rng.integers`` calls would, in order.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

_LOW32 = 0xFFFFFFFF
# raw 64-bit outputs read per block: two 32-bit draws each
_RAW_BLOCK = 512


def _bounded(rng: np.random.Generator):
    """Return draw(high) giving, call by call, the values that successive
    ``int(rng.integers(high))`` calls give for 1 <= high < 2^32.

    As numpy's PCG64 does for 32-bit draws, it splits each raw 64-bit output
    into its low and then its high half; as numpy's ``integers`` does, it maps
    a half x to (x * high) >> 32, rejects the few x whose low product bits fall
    below (2^32 - high) % high, and draws nothing when high == 1. It reads
    ahead of the last value it returns, so ``rng`` must serve nothing else.
    """
    def halves():
        while True:
            raw = rng.bit_generator.random_raw(_RAW_BLOCK)
            yield from np.stack([raw & _LOW32, raw >> 32], axis=1).ravel().tolist()

    stream = halves()

    def draw(high: int) -> int:
        if not 1 <= high <= _LOW32:
            raise ValueError(f"bounded draws need 1 <= high < 2**32, got {high}")
        if high == 1:
            return 0
        threshold = (_LOW32 + 1 - high) % high
        while True:
            m = next(stream) * high
            if m & _LOW32 >= threshold:
                return m >> 32

    return draw


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = tuple((int(a), int(b)) for a, b in zip(iu[mask], ju[mask]))
    return Graph(n_nodes=n, directed=False, edges=edges)


def barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Preferential attachment: a K_{m+1} seed, then each new node links to m
    distinct existing nodes with probability proportional to degree."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    draw = _bounded(np.random.default_rng(seed))
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    repeated = [node for edge in edges for node in edge]
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[draw(len(repeated))])
        for t in sorted(targets):
            edges.append((new, t))
            repeated.append(new)
            repeated.append(t)
    return Graph(n_nodes=n, directed=False, edges=tuple(edges))


def _rewirable(g: Graph, min_edges: int) -> None:
    if g.directed or g.weighted:
        raise ValueError("rewiring is defined for undirected unweighted graphs")
    if g.n_edges < min_edges:
        raise ValueError(f"need at least {min_edges} edges to rewire")


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def rewire_random(g: Graph, n_rewirings: int, seed: int) -> Graph:
    """Delete a uniformly random edge, insert one between two uniformly random
    nodes, n_rewirings times. Edge count is preserved; insertions that would
    create a self-loop or duplicate are resampled within a bounded budget."""
    _rewirable(g, 1)
    draw = _bounded(np.random.default_rng(seed))
    edges = list(g.edges)
    present = {_key(u, v) for u, v in edges}
    attempts_left = 100 * n_rewirings
    for _ in range(n_rewirings):
        idx = draw(len(edges))
        present.discard(_key(*edges[idx]))
        edges[idx] = edges[-1]
        edges.pop()
        while True:
            if attempts_left <= 0:
                raise RuntimeError("rewiring attempt budget exhausted")
            attempts_left -= 1
            u = draw(g.n_nodes)
            v = draw(g.n_nodes)
            if u != v and _key(u, v) not in present:
                present.add(_key(u, v))
                edges.append((u, v))
                break
    return Graph(n_nodes=g.n_nodes, directed=False, edges=tuple(edges),
                 labels=g.labels)


def rewire_degree_preserving(g: Graph, n_rewirings: int, seed: int) -> Graph:
    """Double edge swap: replace edges (i,j),(u,v) by (i,u),(j,v) when neither
    new edge exists or collapses to a self-loop. Leaves every degree intact."""
    _rewirable(g, 2)
    draw = _bounded(np.random.default_rng(seed))
    edges = list(g.edges)
    present = {_key(u, v) for u, v in edges}
    attempts_left = 100 * n_rewirings
    for _ in range(n_rewirings):
        while True:
            if attempts_left <= 0:
                raise RuntimeError("rewiring attempt budget exhausted")
            attempts_left -= 1
            a = draw(len(edges))
            b = draw(len(edges))
            if a == b:
                continue
            i, j = edges[a]
            u, v = edges[b]
            if i == u or j == v:
                continue
            if _key(i, u) in present or _key(j, v) in present:
                continue
            present.discard(_key(i, j))
            present.discard(_key(u, v))
            present.add(_key(i, u))
            present.add(_key(j, v))
            for idx in sorted((a, b), reverse=True):
                edges[idx] = edges[-1]
                edges.pop()
            edges.append((i, u))
            edges.append((j, v))
            break
    return Graph(n_nodes=g.n_nodes, directed=False, edges=tuple(edges),
                 labels=g.labels)
