"""Immutable graph container, edge-list parsing, components, shortest paths.

Node ids are dense integers 0..n_nodes-1; external string labels are kept on
the side and never influence any computed quantity. Graphs are frozen after
construction, so all shortest-path routines are pure and thread-safe.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

Edge = tuple[int, int]

TRANSFORMS = ("reciprocal", "identity")


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
    def _adjacency(self) -> list[list[int]]:
        """Neighbour lists; out-neighbours when directed."""
        return self._neighbour_lists(symmetric=not self.directed)

    def _neighbour_lists(self, symmetric: bool, values=None) -> list[list]:
        """Per node u, in edge order, an entry per edge (u, v) (and (v, u) when symmetric):
        v, or ``values`` at the edge's index, so lists with and without values line up."""
        out: list[list] = [[] for _ in range(self.n_nodes)]
        for i, (u, v) in enumerate(self.edges):
            out[u].append(v if values is None else values[i])
            if symmetric:
                out[v].append(u if values is None else values[i])
        return out

    @cached_property
    def _per_transform(self) -> dict[tuple[str, str], object]:
        # ("costs" | "sweep", transform) -> value; racing threads store equal values
        return {}

    def _costs(self, transform: str) -> list[list[float]]:
        """Edge costs under ``transform``, aligned with ``_adjacency``."""
        key = ("costs", transform)
        if key not in self._per_transform:
            w = self.weights if self.weights is not None else (1.0,) * self.n_edges
            self._per_transform[key] = self._neighbour_lists(
                not self.directed, [1.0 / x for x in w] if transform == "reciprocal" else w)
        return self._per_transform[key]

    def _path_lengths(self, transform: str) -> tuple[np.ndarray, np.ndarray]:
        """All-sources sweep, one Dijkstra per source on first use: finite lengths
        over ordered pairs i != j, source by source, and the n + 1 run offsets."""
        swept = self._per_transform.get(("sweep", transform))
        if swept is None:
            runs = []
            for source in range(self.n_nodes):
                dist = sssp_weighted(self, source, transform)
                dist[source] = np.inf
                runs.append(dist[np.isfinite(dist)])
            offsets = np.cumsum([0] + [r.size for r in runs])
            lengths = np.concatenate(runs) if runs else np.empty(0)
            swept = self._per_transform[("sweep", transform)] = (lengths, offsets)
        return swept


def parse_edge_list(source: str | bytes | IO, *, directed: bool = False,
                    weighted: bool = False) -> Graph:
    """Parse an edge list into a Graph.

    Format: UTF-8 text, one edge per line, fields separated by whitespace
    and/or commas; lines starting with ``#`` are comments. Two fields
    (``u v``) unless ``weighted``, then three (``u v w``) with w a positive
    real. Labels map to dense ids in first-appearance order. Self-loops are
    dropped and duplicate edges collapsed (weights summed), each with an
    EdgeListWarning.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data

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
    adj = g._neighbour_lists(symmetric=True) if g.directed else g._adjacency
    seen = [False] * g.n_nodes
    sizes = [sum(len(level) for level in _bfs_levels(adj, start, seen))
             for start in range(g.n_nodes) if not seen[start]]
    sizes.sort(reverse=True)
    return sizes


def _check_source(g: Graph, source: int) -> None:
    if not 0 <= source < g.n_nodes:
        raise IndexError(f"source {source} out of range for {g.n_nodes} nodes")


def _bfs_levels(adj: list[list[int]], source: int, seen: list[bool]):
    """Yield the BFS frontier at each hop distance from source, marking the
    nodes reached in ``seen``; already marked nodes are never entered."""
    seen[source] = True
    frontier = [source]
    while frontier:
        yield frontier
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        frontier = nxt


def sssp_unweighted(g: Graph, source: int) -> np.ndarray:
    """Hop-count distances from source; np.inf marks unreachable nodes."""
    _check_source(g, source)
    dist = np.full(g.n_nodes, np.inf)
    for d, level in enumerate(_bfs_levels(g._adjacency, source, [False] * g.n_nodes)):
        dist[level] = d
    return dist


def sssp_weighted(g: Graph, source: int, transform: str = "reciprocal") -> np.ndarray:
    """Dijkstra distances from source under a per-edge cost transform.

    ``reciprocal`` treats weight w as cost 1/w (strong ties are short);
    ``identity`` uses w directly. Unweighted graphs get unit costs either way.
    """
    _check_source(g, source)
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    nbrs, costs = g._adjacency, g._costs(transform)
    dist = np.full(g.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, cost in zip(nbrs[u], costs[u]):
            alt = d + cost
            if alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist
