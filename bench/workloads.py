"""Benchmark workloads and their seeded inputs.

Each workload is one ``netportrait`` command line. Its edge-list files are
generated here, before any timing, from the benchmark seed with numpy alone:
the package's own generators are never used, so a change to
``netportrait.ensembles`` cannot change the inputs of another workload.
Files use string labels, randomly oriented edges and shuffled line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Case:
    """One generated instance of a workload."""

    argv: list[str]        # arguments passed to netportrait.cli.main
    files: list[Path]      # edge-list inputs named in argv (may be empty)
    pairs: int             # graph pairs whose divergence one command produces


def _er_edges(rng: np.random.Generator, n: int, avg_degree: float) -> np.ndarray:
    """G(n, M) with M = n * avg_degree / 2 distinct uniform pairs. The edge
    count is fixed, not binomial, so that the work per seed varies less."""
    m = round(n * avg_degree / 2)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u, v = rng.integers(n, size=(2, 2 * m + 16))
        keep = u != v
        u, v = u[keep], v[keep]
        drawn = np.concatenate([keys, np.minimum(u, v) * n + np.maximum(u, v)])
        _, first = np.unique(drawn, return_index=True)
        keys = drawn[np.sort(first)]
    keys = keys[:m]
    return np.stack([keys // n, keys % n], axis=1)


def _ba_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Preferential attachment from a K_{m+1} core: each new node picks m
    distinct targets from the degree-weighted endpoint list."""
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    ends = np.empty(2 * (len(edges) + (n - m - 1) * m), dtype=np.int64)
    ends[:2 * len(edges)] = np.asarray(edges).ravel()
    filled = 2 * len(edges)
    for new in range(m + 1, n):
        targets: list[int] = []
        while len(targets) < m:
            t = int(ends[rng.integers(filled)])
            if t not in targets:
                targets.append(t)
        for t in targets:
            edges.append((new, t))
            ends[filled:filled + 2] = (new, t)
            filled += 2
    return np.asarray(edges, dtype=np.int64)


def _rewire(rng: np.random.Generator, edges: np.ndarray, n: int, count: int) -> np.ndarray:
    """Move `count` uniformly chosen edges to uniformly chosen non-edges."""
    edges = edges.copy()
    present = {(int(min(u, v)), int(max(u, v))) for u, v in edges}
    for _ in range(count):
        idx = int(rng.integers(len(edges)))
        u, v = edges[idx]
        present.discard((int(min(u, v)), int(max(u, v))))
        while True:
            a, b = (int(x) for x in rng.integers(n, size=2))
            key = (min(a, b), max(a, b))
            if a != b and key not in present:
                break
        present.add(key)
        edges[idx] = key
    return edges


def _write_edges(path: Path, rng: np.random.Generator, n: int, edges: np.ndarray,
                 weights: np.ndarray | None = None) -> None:
    """Write an edge list with shuffled lines, random edge orientation and
    labels drawn through a random permutation of the node ids."""
    labels = [f"v{x:05d}" for x in rng.permutation(n)]
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    lines = []
    for i in order:
        u, v = (int(x) for x in edges[i])
        if flip[i]:
            u, v = v, u
        if weights is None:
            lines.append(f"{labels[u]} {labels[v]}")
        else:
            lines.append(f"{labels[u]} {labels[v]} {weights[i]:.6g}")
    path.write_text("# generated by bench/workloads.py\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")


# Sizes per workload: the full benchmark, and a tiny one for the smoke test.
SIZES = {
    "hop-compare": {"full": {"n": 4000}, "tiny": {"n": 60}},
    "snapshot-matrix": {"full": {"n": 200, "k": 150, "drift": 5},
                        "tiny": {"n": 30, "k": 6, "drift": 3}},
    "weighted-matrix": {"full": {"n": 300, "k": 5, "drift": 20, "bins": 100},
                        "tiny": {"n": 30, "k": 3, "drift": 5, "bins": 10}},
    # the tiny size raises ER's edge probability from the 3/299 default, which
    # leaves a 30-node graph with too few edges to rewire
    "rewiring-experiment": {"full": {"n": 300, "repeats": 15, "extra": []},
                            "tiny": {"n": 30, "repeats": 2, "extra": ["--er-p", "0.2"]}},
}


def _hop_compare(rng, workdir: Path, n: int) -> Case:
    a, b = workdir / "ba.edges", workdir / "er.edges"
    _write_edges(a, rng, n, _ba_edges(rng, n, 3))
    _write_edges(b, rng, n, _er_edges(rng, n, 6.0))
    return Case(argv=["compare", str(a), str(b)], files=[a, b], pairs=1)


def _snapshot_matrix(rng, workdir: Path, n: int, k: int, drift: int) -> Case:
    edges = _er_edges(rng, n, 6.0)
    files = []
    for t in range(k):
        if t:
            edges = _rewire(rng, edges, n, drift)
        files.append(workdir / f"snap{t:03d}.edges")
        _write_edges(files[-1], rng, n, edges)
    return Case(argv=["matrix", *map(str, files)], files=files, pairs=k * (k - 1) // 2)


def _weighted_matrix(rng, workdir: Path, n: int, k: int, drift: int, bins: int) -> Case:
    edges = _er_edges(rng, n, 6.0)
    weights = rng.lognormal(0.0, 1.0, len(edges))
    files = []
    for t in range(k):
        if t:
            moved = _rewire(rng, edges, n, drift)
            changed = np.any(moved != edges, axis=1)
            weights = weights * rng.lognormal(0.0, 0.1, len(edges))
            weights[changed] = rng.lognormal(0.0, 1.0, int(changed.sum()))
            edges = moved
        files.append(workdir / f"wsnap{t:03d}.edges")
        _write_edges(files[-1], rng, n, edges, weights)
    return Case(argv=["matrix", "--weighted", "--bins", str(bins), *map(str, files)],
                files=files, pairs=k * (k - 1) // 2)


def _rewiring_experiment(rng, workdir: Path, n: int, repeats: int, extra: list[str]) -> Case:
    seed = int(rng.integers(2 ** 31))
    argv = ["experiment", "rewiring-curve", "--n-nodes", str(n), "--repeats", str(repeats),
            "--seed", str(seed), *extra]
    # 2 models x 2 rewiring modes x 3 rewiring counts, `repeats` pairs each
    return Case(argv=argv, files=[], pairs=12 * repeats)


GENERATORS = {
    "hop-compare": _hop_compare,
    "snapshot-matrix": _snapshot_matrix,
    "weighted-matrix": _weighted_matrix,
    "rewiring-experiment": _rewiring_experiment,
}


def make_case(workload: str, seed: int, workdir: Path, size: str = "full") -> Case:
    """Generate the inputs of `workload` for `seed` into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, workdir, **SIZES[workload][size])
