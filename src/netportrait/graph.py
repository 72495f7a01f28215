"""Immutable graph container, edge-list parsing, components, shortest paths.

Node ids are dense integers 0..n_nodes-1; external string labels are kept on
the side and never influence any computed quantity. Graphs are frozen after
construction, so all shortest-path routines are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

Edge = tuple[int, int]

TRANSFORMS = ("reciprocal", "identity")

# Caps sources x max(nodes, adjacency entries) per batch of a weighted sweep,
# which bounds its temporaries (~40 B per entry). At N = 300, larger caps were
# no faster and added 1.5 MB (2^17) to 4.6 MB (2^18) of peak memory.
_SWEEP_ENTRIES = 1 << 16

# 64-bit words per node in a batch of hop-count searches, one source per bit:
# 256 sources at a time. Portraits of BA and ER graphs took within 1 ms
# (N = 300) and 0.1 s (N = 4000) of each other for 1 to 8 words; the level
# temporaries grow with the word count.
_BFS_WORDS = 4


class GraphParseError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ColumnCountError(GraphParseError):
    """Field count incompatible with the weighted/unweighted flag."""


class EdgeListWarning(UserWarning):
    """Recoverable edge-list issues: dropped self-loops, collapsed duplicates."""


@dataclass(frozen=True)
class Graph:
    """Simple graph with optional positive edge weights.

    Invariants enforced at construction: endpoints are dense ids in range,
    no self-loops, no duplicate edges (unordered pairs when undirected),
    and weights -- when present -- cover every edge and are finite positive.
    """

    n_nodes: int
    directed: bool
    edges: tuple[Edge, ...]
    weights: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_nodes < 0:
            raise ValueError("n_nodes must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n_nodes} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise ValueError("weights must cover every edge")
            for w in self.weights:
                if not (math.isfinite(w) and w > 0):
                    raise ValueError(f"edge weight {w} is not a positive finite number")
        if self.labels is not None:
            if len(self.labels) != self.n_nodes:
                raise ValueError("labels must cover every node")
            if len(set(self.labels)) != self.n_nodes:
                raise ValueError("node labels must be unique")

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-neighbour CSR (indptr, indices, edge ids); both ways when undirected."""
        return _in_neighbours(self, symmetric=not self.directed)

    @cached_property
    def _sweeps(self) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
        # transform -> kept sweep; racing threads store equal values
        return {}

    def _path_lengths(self, transform: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """All-sources sweep on first use, kept per batch of sources: finite lengths
        over ordered pairs i != j, source by source, and the count per source."""
        swept = self._sweeps.get(transform)
        if swept is None:
            swept = []
            for dist in _sweep(self, np.arange(self.n_nodes), transform):
                keep = (dist > 0) & (dist < np.inf)  # costs are positive: 0 only at the source
                swept.append((dist[keep], keep.sum(axis=1)))
            self._sweeps[transform] = swept
        return swept


def parse_edge_list(source: str | bytes | IO, *, directed: bool = False,
                    weighted: bool = False) -> Graph:
    """Parse an edge list into a Graph.

    Format: UTF-8 text, a leading byte-order mark skipped, one edge per line,
    fields separated by whitespace and/or commas; lines starting with ``#``
    are comments. Two fields (``u v``) unless ``weighted``, then three
    (``u v w``) with w a positive real. Labels map to dense ids in
    first-appearance order. Self-loops are dropped and duplicate edges
    collapsed (weights summed), each with an EdgeListWarning.
    """
    data = source if isinstance(source, (str, bytes)) else source.read()
    text = (data.decode("utf-8") if isinstance(data, bytes) else data).removeprefix("\ufeff")

    ids: dict[str, int] = {}
    order: list[Edge] = []
    agg_weights: dict[tuple[int, int], float] = {}
    n_self_loops = 0
    n_duplicates = 0
    expected = 3 if weighted else 2

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != expected:
            message = (f"expected {expected} fields ({'u v w' if weighted else 'u v'}), "
                       f"found {len(fields)}: {line!r}")
            # 2 <-> 3 fields means the weighted flag disagrees with the file;
            # anything else is plain garbage
            if len(fields) in (2, 3):
                raise ColumnCountError(message, line_no)
            raise GraphParseError(message, line_no)
        u = ids.setdefault(fields[0], len(ids))
        v = ids.setdefault(fields[1], len(ids))
        w = 1.0
        if weighted:
            try:
                w = float(fields[2])
            except ValueError:
                raise GraphParseError(f"invalid weight {fields[2]!r}", line_no) from None
            if not (math.isfinite(w) and w > 0):
                raise GraphParseError(f"weight must be positive, got {fields[2]}", line_no)
        if u == v:
            n_self_loops += 1
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in agg_weights:
            n_duplicates += 1
            agg_weights[key] += w
        else:
            agg_weights[key] = w
            order.append((u, v))

    if n_self_loops:
        warnings.warn(f"dropped {n_self_loops} self-loop(s)", EdgeListWarning, stacklevel=2)
    if n_duplicates:
        detail = "weights summed" if weighted else "kept first"
        warnings.warn(f"collapsed {n_duplicates} duplicate edge(s) ({detail})",
                      EdgeListWarning, stacklevel=2)

    labels = tuple(ids)
    edges = tuple(order)
    w_out = None
    if weighted:
        w_out = tuple(agg_weights[(u, v) if directed else (min(u, v), max(u, v))]
                      for u, v in edges)
    return Graph(n_nodes=len(labels), directed=directed, edges=edges,
                 weights=w_out, labels=labels)


def connected_components(g: Graph) -> list[int]:
    """Component sizes, largest first (weak connectivity if directed)."""
    indptr, indices, _ = _in_neighbours(g, symmetric=True) if g.directed else g._csr
    sizes: list[int] = []
    unseen = np.ones(g.n_nodes, dtype=bool)
    while unseen.any():
        starts = np.flatnonzero(unseen)[:64 * _BFS_WORDS]
        # each node is reached at one level only, so the sum is the union; the
        # nodes of one component are reached by the same lanes, no others' by any
        reached = sum(_hop_levels(indptr, indices, starts))
        hit = reached.any(axis=1)
        sizes += np.unique(reached[hit], axis=0, return_counts=True)[1].tolist()
        unseen &= ~hit
    sizes.sort(reverse=True)
    return sizes


def _check_source(g: Graph, source: int) -> None:
    if not 0 <= source < g.n_nodes:
        raise IndexError(f"source {source} out of range for {g.n_nodes} nodes")


def _in_neighbours(g: Graph, symmetric: bool, reverse: bool = False) -> tuple[np.ndarray, ...]:
    """CSR (indptr, indices, edge ids) listing, per node v, u and the int32 index
    of each edge (u, v) in g.edges (and of (v, u) when symmetric): one pull over
    it follows edges forwards. ``reverse`` swaps u and v, so a push follows it."""
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)[:, ::-1 if reverse else 1]
    ids = np.arange(len(ends), dtype=np.int32)
    if symmetric:
        ends, ids = np.vstack([ends, ends[:, ::-1]]), np.concatenate([ids, ids])
    order = np.argsort(ends[:, 1], kind="stable")
    indptr = np.zeros(g.n_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends[:, 1], minlength=g.n_nodes), out=indptr[1:])
    return indptr, ends[order, 0], ids[order]


def _hop_levels(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray):
    """Yield, at each hop distance d = 0, 1, ... from the distinct ``sources``,
    the nodes first reached at d as (n, W) uint64 words: bit j of word w in
    row v is set when v is d hops from sources[64 * w + j].

    Multi-source BFS (Then et al., VLDB 2014), one source per bit lane: a
    level is one gather of the frontier over the in-neighbour CSR
    (indptr, indices) and one OR per node, masked by the nodes already seen.
    """
    lanes = np.arange(sources.size)
    new = np.zeros((indptr.size - 1, -(-sources.size // 64)), dtype=np.uint64)
    new[sources, lanes // 64] = np.uint64(1) << (lanes % 64).astype(np.uint64)
    seen = new.copy()
    pulled = indptr[:-1] < indptr[1:]  # reduceat gives no OR for an empty segment
    starts = indptr[:-1][pulled]
    while new.any():
        yield new
        reached = np.zeros_like(new)
        reached[pulled] = np.bitwise_or.reduceat(new[indices], starts, axis=0)
        new = reached & ~seen
        seen |= new


# A byte lane sums at most 255 rows of bits without carrying into the next;
# blocks of 16 such runs keep the unpacked bits (64 bytes per row and word) in
# cache.
_RUN_ROWS = 255
_BLOCK_ROWS = 16 * _RUN_ROWS


def _lane_counts(words: np.ndarray) -> np.ndarray:
    """Set bits per lane of (n, W) uint64 words: 64 * W int64 counts, lane 64 * w + j
    counting bit j of word w.

    SIMD within a register: each nonzero row unpacks to one byte per lane,
    viewed as uint64 words of 8 lanes each, so one add sums 8 lanes at once;
    runs of up to 255 rows are summed that way and the byte sums then widened.
    """
    rows = words[words.any(axis=1)].astype("<u8", copy=False)
    counts = np.zeros(64 * words.shape[1], dtype=np.int64)
    for first in range(0, len(rows), _BLOCK_ROWS):
        bits = np.unpackbits(rows[first:first + _BLOCK_ROWS].view(np.uint8), axis=1,
                             bitorder="little")
        runs = np.add.reduceat(bits.view(np.uint64), np.arange(0, len(bits), _RUN_ROWS), axis=0)
        counts += runs.view(np.uint8).sum(axis=0, dtype=np.int64)
    return counts


def sssp_unweighted(g: Graph, source: int) -> np.ndarray:
    """Hop-count distances from source; np.inf marks unreachable nodes."""
    _check_source(g, source)
    dist = np.full(g.n_nodes, np.inf)
    for d, new in enumerate(_hop_levels(*g._csr[:2], np.array([source]))):
        dist[new[:, 0] != 0] = d
    return dist


def sssp_weighted(g: Graph, source: int, transform: str = "reciprocal") -> np.ndarray:
    """Shortest-path distances from source under a per-edge cost transform.

    ``reciprocal`` treats weight w as cost 1/w (strong ties are short);
    ``identity`` uses w directly. Unweighted graphs get unit costs either way.
    """
    _check_source(g, source)
    return next(_sweep(g, np.array([source]), transform))[0]


def _sweep(g: Graph, sources: np.ndarray, transform: str):
    """Yield, per batch of ``sources``, dist[i, v]: the length of a shortest
    path from the batch's i-th source to v under ``transform`` (np.inf if none).

    Label-correcting (Bellman, 1958): each round relaxes the out-edges of every
    (source, node) whose length fell in the round before, so each length is the
    least left-to-right float sum of costs over paths, as Dijkstra's is.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    n = g.n_nodes
    first_out, heads, edge = _in_neighbours(g, False, reverse=True) if g.directed else g._csr
    w = np.array(g.weights or [1.0] * g.n_edges)
    cost = (1.0 / w if transform == "reciprocal" else w)[edge]
    degree = np.diff(first_out)
    step = max(1, _SWEEP_ENTRIES // max(n, heads.size, 1))
    for first in range(0, sources.size, step):
        batch = sources[first:first + step]
        dist = np.full((batch.size, n), np.inf)
        flat, fell = dist.reshape(-1), np.zeros(dist.size, dtype=bool)
        key = np.arange(batch.size) * n + batch  # (row, node) as row * n + node
        flat[key] = 0.0
        while key.size:
            node = key % n
            deg = degree[node]
            entry = np.arange(deg.sum()) + np.repeat(first_out[node] - np.cumsum(deg) + deg, deg)
            cand = np.repeat(flat[key], deg) + cost[entry]
            key = np.repeat(key - node, deg) + heads[entry]
            less = cand < flat[key]
            key = key[less]
            np.minimum.at(flat, key, cand[less])
            fell[key] = True
            key = np.flatnonzero(fell)
            fell[key] = False
        yield dist
