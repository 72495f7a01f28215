"""Network portraits: per-shell distributions of how many nodes sit at each
shortest-path distance.

``counts[shell][k]`` is the number of nodes having exactly k nodes at that
distance (row 0 is the self-shell, so counts[0][1] == N). Portraits are graph
invariants: relabeling the nodes leaves them bit-for-bit unchanged. Weighted
graphs get binned shells; bins come from quantiles of the observed path
lengths so each bin holds roughly the same number of distinct lengths.

Bins and binned portraits of a graph share one all-sources shortest-path sweep per
transform, kept on the graph in the batches of sources it ran in: 8 bytes per
reachable ordered pair once swept. Bins and portraits read it batch by batch.

Hop-count portraits run 256 breadth-first searches at a time, one per bit
lane of four 64-bit words per node, over the in-neighbour CSR (compressed
sparse row) each graph keeps: 8 bytes per node and 12 per adjacency entry with
its edge id, two entries per undirected edge; an undirected graph's weighted
sweeps push over it too. A batch's temporaries are per level, chiefly the
gathered frontier at 32 bytes per adjacency entry: about 0.8 MB at N = 4000
with 12,000 undirected edges. Batches are independent and their order never
affects the integer counts, so they could fan out across processes; they run
sequentially here. Built portraits are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.edges[0] <= 0:
            raise ValueError("bin edges must be positive path lengths")
        for a, b in zip(self.edges, self.edges[1:-1]):
            if not a < b:
                raise ValueError(f"bin edges must increase strictly, got {self.edges}")
        if self.edges[-1] < self.edges[-2]:
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
        if lengths.size and (lengths.min() < self.edges[0] or lengths.max() > self.edges[-1]):
            bad = lengths[(lengths < self.edges[0]) | (lengths > self.edges[-1])][0]
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
        if not isinstance(lengths, np.ndarray):
            lengths = list(lengths)
        uniq = np.unique(np.asarray(lengths, dtype=np.float64))
        if not uniq.size:
            raise ValueError("no finite positive path lengths to bin")
        lowers = np.unique(uniq[np.arange(n_bins) * uniq.size // n_bins])
        return cls(edges=tuple(lowers.tolist()) + (uniq[-1].item(),))


@dataclass(frozen=True, eq=False)
class Portrait:
    """Shell-by-count matrix plus the metadata needed to interpret it."""

    counts: np.ndarray
    n_nodes: int
    directed: bool = False
    bin_edges: tuple[float, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, Portrait):
            return NotImplemented
        return (self.n_nodes == other.n_nodes
                and self.directed == other.directed
                and self.bin_edges == other.bin_edges
                and self.counts.shape == other.counts.shape
                and bool(np.array_equal(self.counts, other.counts)))

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]

    @property
    def weighted(self) -> bool:
        return self.bin_edges is not None

    @property
    def reachable_pairs(self) -> int:
        """Ordered reachable pairs including self-pairs: sum of k*counts."""
        k = np.arange(self.n_cols, dtype=np.int64)
        return int((self.counts * k).sum())

    def diameter(self) -> int:
        """Largest shell index holding any node with k > 0 neighbors there."""
        occupied = np.nonzero(self.counts[:, 1:].sum(axis=1))[0]
        return int(occupied[-1])

    def to_dict(self) -> dict:
        """JSON-ready form with sparse [k, count] pairs per row."""
        rows = []
        for row in self.counts:
            nz = np.nonzero(row)[0]
            rows.append([[int(k), int(row[k])] for k in nz])
        return {
            "n_nodes": self.n_nodes,
            "directed": self.directed,
            "bin_edges": list(self.bin_edges) if self.bin_edges is not None else None,
            "rows": rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Portrait":
        n = int(data["n_nodes"])
        n_rows = len(data["rows"])
        max_k = max((k for row in data["rows"] for k, _ in row), default=0)
        counts = np.zeros((n_rows, max(max_k + 1, _column_count(n))), dtype=np.int64)
        for shell, row in enumerate(data["rows"]):
            for k, c in row:
                counts[shell, k] = c
        bins = data.get("bin_edges")
        return cls(counts=counts, n_nodes=n, directed=bool(data.get("directed", False)),
                   bin_edges=tuple(bins) if bins is not None else None)

    def to_dense_csv(self) -> str:
        """Dense rows-by-k CSV (no header), for plotting."""
        return "\n".join(",".join(str(int(c)) for c in row) for row in self.counts) + "\n"


def _column_count(n_nodes: int) -> int:
    # k <= n-1 at every shell once n >= 2; the n=1 self-shell still needs k=1.
    return max(n_nodes, 2)


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
    n = g.n_nodes
    cols, lanes = _column_count(n), 64 * _BFS_WORDS
    # one cell key shell * cols + k per (source, shell it reaches); sources past
    # their last shell fill k = 0
    keys = []
    for first in range(0, n, lanes):
        sources = np.arange(first, min(first + lanes, n))
        for shell, new in enumerate(_hop_levels(*g._csr[:2], sources)):
            k = _lane_counts(new)
            keys.append(shell * cols + k[k > 0])
    keys = np.concatenate(keys)
    rows = int(keys.max()) // cols + 1
    counts = np.bincount(keys, minlength=rows * cols).reshape(rows, cols)
    counts[:, 0] = n - counts.sum(axis=1)
    return Portrait(counts=counts, n_nodes=n, directed=g.directed)


def weighted_portrait(g: Graph, bins: BinSpec, transform: str = "reciprocal") -> Portrait:
    """Binned portrait of a weighted graph.

    Row 0 is the self-shell; row i >= 1 counts, per node, how many other
    nodes fall in path-length bin i-1. Every bin row is kept even when empty
    so that portraits built on shared bins stay row-compatible.
    """
    _require_nodes(g)
    if not g.weighted:
        raise ValueError("weighted_portrait requires a weighted graph")
    n, first = g.n_nodes, 0
    per_source = np.empty((n, bins.n_bins), dtype=np.int64)  # nodes in bin b, per source
    for lengths, sizes in g._path_lengths(transform):
        source = np.repeat(np.arange(sizes.size), sizes)
        per_source[first:first + sizes.size] = np.bincount(
            source * bins.n_bins + bins.index_array(lengths),
            minlength=sizes.size * bins.n_bins).reshape(-1, bins.n_bins)
        first += sizes.size
    counts = np.zeros((1 + bins.n_bins, _column_count(n)), dtype=np.int64)
    counts[0, 1] = n
    np.add.at(counts, (1 + np.arange(bins.n_bins), per_source), 1)
    return Portrait(counts=counts, n_nodes=n, directed=g.directed,
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
    return BinSpec.from_quantiles(pooled, n_bins)


def pad_portrait(p: Portrait, target_rows: int) -> Portrait:
    """Append empty shells (all N nodes in the k=0 cell) up to target_rows."""
    if target_rows < p.n_rows:
        raise ValueError(f"cannot pad {p.n_rows} rows down to {target_rows}")
    if target_rows == p.n_rows:
        return p
    extra = np.zeros((target_rows - p.n_rows, p.n_cols), dtype=np.int64)
    extra[:, 0] = p.n_nodes
    return Portrait(counts=np.vstack([p.counts, extra]), n_nodes=p.n_nodes,
                    directed=p.directed, bin_edges=p.bin_edges)


def portrait_identities(p: Portrait) -> dict:
    """Structural quantities recoverable from a hop-count portrait.

    Returns n_nodes, n_edges, diameter, degree_histogram (k -> node count)
    and path_length_counts (shell -> number of shortest paths). Edge and path
    counts are halved for undirected portraits, where each pair is seen from
    both ends.
    """
    if p.weighted:
        raise ValueError("identities are defined for hop-count portraits")
    k = np.arange(p.n_cols, dtype=np.int64)

    def n_paths(shell: int) -> int:
        s = int((p.counts[shell] * k).sum())
        return s if p.directed else s // 2

    if p.n_rows > 1:
        degree_histogram = {int(i): int(c) for i, c in enumerate(p.counts[1]) if c > 0}
    else:
        degree_histogram = {0: p.n_nodes}
    return {
        "n_nodes": p.n_nodes,
        "n_edges": n_paths(1) if p.n_rows > 1 else 0,
        "diameter": p.diameter(),
        "degree_histogram": degree_histogram,
        "path_length_counts": {shell: n_paths(shell) for shell in range(1, p.n_rows)},
    }
