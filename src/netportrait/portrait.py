"""Network portraits: per-shell distributions of how many nodes sit at each
shortest-path distance.

``counts[shell][k]`` is the number of nodes having exactly k nodes at that
distance (row 0 is the self-shell, so counts[0][1] == N). Portraits are graph
invariants: relabeling the nodes leaves them bit-for-bit unchanged. Weighted
graphs get binned shells; bins come from quantiles of the observed path
lengths so each bin holds roughly the same number of distinct lengths.

A portrait is immutable and stores its occupied k >= 1 cells only, 16 bytes
each; ``counts`` is a read-only dense view of rows x max(N, 2) x 8 bytes, built
on first use, which only the dense CSV dump (``portrait --format csv``) pays for:
the JSD and the KS comparator both read the cells.
Portraits come from ``portrait``, ``weighted_portrait`` or ``Portrait.from_dict``.
Bins and binned portraits of a graph share one all-sources shortest-path sweep
per transform, kept on the graph in the batches of sources it ran in (8 bytes
per reachable ordered pair), and read it batch by batch.

Hop-count portraits run 256 breadth-first searches at a time, one per bit
lane of four 64-bit words per node, over the in-neighbour CSR (compressed
sparse row) each graph keeps: 8 bytes per node and 12 per adjacency entry with
its edge id, two entries per undirected edge; an undirected graph's weighted
sweeps push over it too. A batch's temporaries are per level, chiefly the
gathered frontier at 32 bytes per adjacency entry: about 0.8 MB at N = 4000
with 12,000 undirected edges. Each level's nodes per source come from one
blocked bit count over the level's nonzero rows, whose cost follows those rows,
not a fixed per-level toll. Batches are independent and their order never
affects the integer counts, so they could fan out across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .graph import _BFS_WORDS, Graph, _hop_levels, _lane_counts


@dataclass(frozen=True)
class BinSpec:
    """Path-length bin boundaries: bin i covers [edges[i], edges[i+1]), the
    last bin is closed on both sides (and may be a single point)."""

    edges: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) < 2:
            raise ValueError("need at least two bin edges")
        if not self.edges[0] > 0:  # tests are negated, so that a NaN edge fails them
            raise ValueError(f"bin edges must be positive path lengths, got {self.edges}")
        for a, b in zip(self.edges, self.edges[1:-1]):
            if not a < b:
                raise ValueError(f"bin edges must increase strictly, got {self.edges}")
        if not self.edges[-1] >= self.edges[-2]:
            raise ValueError(f"final bin edge must not decrease, got {self.edges}")

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def bin_index(self, length: float) -> int:
        """Bin holding the given path length; raises if outside all bins."""
        return int(self.index_array(np.array([length]))[0])

    @cached_property
    def _edge_array(self) -> np.ndarray:
        return np.asarray(self.edges)

    def index_array(self, lengths: np.ndarray) -> np.ndarray:
        lo, hi = self.edges[0], self.edges[-1]
        if lengths.size and not (lengths.min() >= lo and lengths.max() <= hi):  # NaN fails
            bad = lengths[~((lengths >= lo) & (lengths <= hi))][0]
            raise ValueError(f"path length {bad} outside bins {self.edges}")
        return np.minimum(np.searchsorted(self._edge_array, lengths, side="right") - 1,
                          self.n_bins - 1)

    @classmethod
    def from_quantiles(cls, lengths: Iterable[float], n_bins: int) -> "BinSpec":
        """Equal-count bins over the unique lengths.

        The lower edge of bin j sits at rank floor(j*n/b) of the n sorted
        unique lengths; coinciding edges collapse, so the effective bin count
        can be below n_bins. The final edge is the maximum length. Lengths
        are unique under exact float equality: 0.1 + 0.1 + 0.1 and 0.3 are
        two lengths, never merged within a tolerance.
        """
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        uniq = np.asarray(lengths if isinstance(lengths, np.ndarray) else list(lengths), float)
        if not (uniq[1:] > uniq[:-1]).all():  # sorted distinct input is used as it is
            uniq = np.unique(uniq)
        if not uniq.size:
            raise ValueError("no finite positive path lengths to bin")
        lowers = np.unique(uniq[np.arange(n_bins) * uniq.size // n_bins])
        return cls(edges=tuple(lowers.tolist()) + (uniq[-1].item(),))


@dataclass(frozen=True, eq=False)
class Portrait:
    """Occupied cells ``shell << 32 | k`` (k >= 1, sorted) in ``keys``, the nodes
    in each in ``cell_counts``; each shell's k = 0 cell holds the rest."""

    keys: np.ndarray
    cell_counts: np.ndarray
    n_rows: int
    n_nodes: int
    directed: bool = False
    bin_edges: tuple[float, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, Portrait):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @cached_property
    def counts(self) -> np.ndarray:
        """Read-only dense rows x max(N, 2) matrix counts[shell][k], built on first use."""
        counts = np.zeros((self.n_rows, max(self.n_nodes, 2)), dtype=np.int64)
        counts[self.keys >> 32, self.keys & 0xFFFFFFFF] = self.cell_counts
        counts[:, 0] = self.n_nodes - counts.sum(axis=1)
        counts.flags.writeable = False
        return counts

    @property
    def weighted(self) -> bool:
        return self.bin_edges is not None

    @property
    def reachable_pairs(self) -> int:
        """Ordered reachable pairs including self-pairs: sum of k*counts."""
        return int(((self.keys & 0xFFFFFFFF) * self.cell_counts).sum())

    def diameter(self) -> int:
        """Largest shell index holding any node with k > 0 neighbors there."""
        return int(self.keys[-1] >> 32)

    def to_dict(self) -> dict:
        """JSON-ready form with sparse [k, count] pairs per row, k ascending."""
        # each shell's k = 0 count is what its occupied cells leave of N
        rest = self.n_nodes - np.bincount(self.keys >> 32, self.cell_counts, self.n_rows)
        rows = [[[0, int(r)]] if r else [] for r in rest.tolist()]
        for key, c in zip(self.keys.tolist(), self.cell_counts.tolist()):
            rows[key >> 32].append([key & 0xFFFFFFFF, c])
        return {
            "n_nodes": self.n_nodes,
            "directed": self.directed,
            "bin_edges": list(self.bin_edges) if self.bin_edges is not None else None,
            "rows": rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Portrait":
        """Inverse of ``to_dict``; ValueError names any row that is not distinct k <
        max(N, 2) with counts summing to N, all non-negative ints, and any row 0 that
        is not the self-shell [[1, N]]. Bin edges must be valid, with one row per
        edge: the self-shell, then one per bin."""
        n, rows, cells = int(data["n_nodes"]), data["rows"], {}
        if n < 1 or not rows:
            raise ValueError("a portrait needs n_nodes >= 1 and at least one row")
        for shell, row in enumerate(rows):
            pairs = dict(cell for cell in row if len(cell) == 2)
            if not (len(pairs) == len(row)
                    and all(type(x) is int and x >= 0 for x in [*pairs, *pairs.values()])
                    and max(pairs, default=0) < max(n, 2) and sum(pairs.values()) == n):
                raise ValueError(f"row {shell} is not a portrait row of {n} nodes: {row!r}")
            if shell == 0 and pairs.get(1) != n:  # each node alone in its self-shell
                raise ValueError(f"row 0 is not the self-shell [[1, {n}]]: {row!r}")
            cells.update({shell << 32 | k: c for k, c in pairs.items() if k and c})
        bins = data.get("bin_edges")
        if bins is not None:
            bins = BinSpec(tuple(bins)).edges
            if len(rows) != len(bins):
                raise ValueError(f"{len(bins) - 1} bins need {len(bins)} rows, the self-shell "
                                 f"and one per bin, got {len(rows)}")
        return cls(*np.array(sorted(cells.items()), dtype=np.int64).reshape(-1, 2).T,
                   n_rows=len(rows), n_nodes=n, directed=bool(data.get("directed", False)),
                   bin_edges=bins)

    def to_dense_csv(self) -> str:
        """Dense rows-by-k CSV (no header), for plotting."""
        return "\n".join(",".join(map(str, row)) for row in self.counts.tolist()) + "\n"


def _cells(batches: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct cell keys and the nodes in each, pooled from ``batches`` of
    distinct keys and the nodes in each (float sums, exact below 2^53)."""
    keys, counts = map(np.concatenate, zip(*batches))
    keys, at = np.unique(keys, return_inverse=True)
    return keys, np.bincount(at, counts).astype(np.int64)


def _require_nodes(g: Graph) -> None:
    if g.n_nodes < 1:
        raise ValueError("portrait requires at least one node")


def portrait(g: Graph, *, ignore_weights: bool = False) -> Portrait:
    """Hop-count portrait of an unweighted graph.

    A weighted graph is rejected unless ``ignore_weights`` asks for its
    hop-count portrait explicitly. Unreachable pairs contribute nothing
    beyond the k=0 cells of shells they never reach.
    """
    _require_nodes(g)
    if g.weighted and not ignore_weights:
        raise ValueError("graph is weighted; pass ignore_weights=True for a "
                         "hop-count portrait or use weighted_portrait")
    n, lanes = g.n_nodes, 64 * _BFS_WORDS

    def levels():
        # one batch of cells per level, so that only its distinct cells are held
        for first in range(0, n, lanes):
            sources = np.arange(first, min(first + lanes, n))
            for shell, new in enumerate(_hop_levels(*g._csr[:2], sources)):
                per_k = np.bincount(_lane_counts(new))  # sources with k nodes at shell
                k = np.flatnonzero(per_k[1:]) + 1
                yield shell << 32 | k, per_k[k]

    keys, cell_counts = _cells(levels())
    return Portrait(keys, cell_counts, n_rows=int(keys[-1] >> 32) + 1, n_nodes=n,
                    directed=g.directed)


def weighted_portrait(g: Graph, bins: BinSpec, transform: str = "reciprocal") -> Portrait:
    """Binned portrait of a weighted graph.

    Row 0 is the self-shell; row i >= 1 counts, per node, how many other
    nodes fall in path-length bin i-1. Every bin row is kept even when empty
    so that portraits built on shared bins stay row-compatible.
    """
    _require_nodes(g)
    if not g.weighted:
        raise ValueError("weighted_portrait requires a weighted graph")
    n, n_bins = g.n_nodes, bins.n_bins
    keys = [np.ones(n, dtype=np.int64)]  # each node's self-shell cell (0, 1)
    for lengths, sizes in g._path_lengths(transform):
        source = np.repeat(np.arange(sizes.size), sizes)
        per = np.bincount(source * n_bins + bins.index_array(lengths))
        cell = np.flatnonzero(per)  # source * n_bins + bin, holding per[cell] nodes
        keys.append((cell % n_bins + 1) << 32 | per[cell])
    # at most n keys per bin row and n self-shell keys, so one reduction holds them
    keys, cell_counts = np.unique(np.concatenate(keys), return_counts=True)
    return Portrait(keys, cell_counts, n_rows=1 + n_bins, n_nodes=n, directed=g.directed,
                    bin_edges=bins.edges)


def unique_path_lengths(g: Graph, transform: str = "reciprocal") -> set[float]:
    """Distinct finite path lengths over ordered pairs i != j, under exact
    float equality: a 0.1 + 0.1 + 0.1 path and a 0.3 edge are two lengths."""
    return set(_distinct_lengths(g, transform).tolist())


def _distinct_lengths(g: Graph, transform: str) -> np.ndarray:
    """Sorted distinct lengths of the kept sweep, pooled from each batch's own."""
    batches = g._path_lengths(transform)
    return np.unique(np.concatenate([np.empty(0)] + [np.unique(run) for run, _ in batches]))


def make_shared_bins(g1: Graph, g2: Graph, n_bins: int,
                     transform: str = "reciprocal") -> BinSpec:
    """Quantile bins over the pooled unique path lengths of both graphs.

    Shared bins make two weighted portraits row-compatible. Coinciding
    quantile edges collapse, so the effective bin count may be below n_bins.
    """
    if not (g1.weighted and g2.weighted):
        raise ValueError("shared bins require two weighted graphs")
    pooled = np.concatenate([_distinct_lengths(g, transform) for g in (g1, g2)])
    if not pooled.size:
        raise ValueError("no finite path lengths: both graphs are edgeless")
    pooled.sort()  # in place: the two sorted distinct runs merge without a copy
    return BinSpec.from_quantiles(pooled[np.r_[True, pooled[1:] != pooled[:-1]]], n_bins)


def pad_portrait(p: Portrait, target_rows: int) -> Portrait:
    """Append empty shells (all N nodes in the k=0 cell) up to target_rows. A
    weighted portrait keeps one row per bin, so it cannot grow."""
    if target_rows < p.n_rows:
        raise ValueError(f"cannot pad {p.n_rows} rows down to {target_rows}")
    if p.weighted and target_rows > p.n_rows:
        raise ValueError(f"a weighted portrait has one row per bin; cannot pad it to "
                         f"{target_rows} rows")
    return p if target_rows == p.n_rows else replace(p, n_rows=target_rows)


def portrait_identities(p: Portrait) -> dict:
    """Structural quantities recoverable from a hop-count portrait.

    Returns n_nodes, n_edges, diameter, degree_histogram (k -> node count)
    and path_length_counts (shell -> number of shortest paths). Edge and path
    counts are halved for undirected portraits, where each pair is seen from
    both ends.
    """
    if p.weighted:
        raise ValueError("identities are defined for hop-count portraits")
    rows = p.to_dict()["rows"] + [[[0, p.n_nodes]]]  # and an empty shell past the last
    paths = [sum(k * c for k, c in row) // (1 if p.directed else 2) for row in rows]
    return {
        "n_nodes": p.n_nodes,
        "n_edges": paths[1],
        "diameter": p.diameter(),
        "degree_histogram": dict(rows[1]),
        "path_length_counts": dict(enumerate(paths[1:-1], start=1)),
    }
