"""Outside-in tracing of netportrait's public functions.

The tracer replaces every public module-level function and classmethod of
the netportrait modules, in every ``netportrait.*`` namespace that binds it
(``cli``, ``divergence`` and ``experiments`` import names directly), with a
wrapper that records a span. Spans nest through a stack, so a layer's self
time is its span's duration minus the durations of its direct children. The
program itself is not modified; everything is undone when tracing ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

MODULES = ("graph", "portrait", "divergence", "ensembles", "experiments", "cli")


def _namespaces() -> list:
    return [importlib.import_module("netportrait")] + [
        importlib.import_module(f"netportrait.{m}") for m in MODULES]


def _targets() -> dict[str, tuple[object, str, object]]:
    """Span name -> (owner, attribute, original) for each public function
    (owner is a module) and public classmethod (owner is a class)."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"netportrait.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{short}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if not attr.startswith("_") and isinstance(raw, classmethod):
                        out[f"{short}.{name}.{attr}"] = (obj, attr, raw)
    return out


@contextmanager
def patched(make_wrapper, only: set[str] | None = None):
    """Replace the selected targets with ``make_wrapper(name, fn)`` in every
    namespace that binds them; restore the originals on exit."""
    undo = []
    try:
        for name, (owner, attr, orig) in _targets().items():
            if only is not None and name not in only:
                continue
            if isinstance(orig, classmethod):
                undo.append((owner, attr, orig))
                setattr(owner, attr, classmethod(make_wrapper(name, orig.__func__)))
                continue
            wrapper = make_wrapper(name, orig)
            for ns in _namespaces():
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        undo.append((ns, key, orig))
                        setattr(ns, key, wrapper)
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# Arguments (bound by parameter name) or results kept for counts derived
# after the run, so that no counting work lands inside a span.
_KEEP = {
    "graph.parse_edge_list": lambda b, r: r,
    "portrait.portrait": lambda b, r: b["g"],
    "portrait.unique_path_lengths": lambda b, r: (b["g"], len(r)),
    "portrait.weighted_portrait": lambda b, r: b["g"],
    "portrait.BinSpec.from_quantiles": lambda b, r: (b["n_bins"], r.n_bins),
    "divergence.jsd_bits": lambda b, r: (b["p"], b["q"]),
    "divergence.joint_distribution": lambda b, r: len(r.mass),
}


class Tracer:
    """Spans of one traced run, kept in memory and written out at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, kept, keep = self.spans, self._stack, self.kept, _KEEP.get(name)
        sig = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                kept[name].append(keep(sig.bind(*args, **kwargs).arguments, result))
            return result
        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "span": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _edge_visits(g) -> int:
    """Adjacency entries a per-source BFS scans over all sources of an
    undirected graph: sum over components C of |C| * vol(C). Derived from the
    graph, not counted inside the program."""
    if g.directed:
        raise ValueError("edge_visits_computed is defined here for undirected graphs")
    parent = list(range(g.n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for u, v in g.edges:
        parent[find(u)] = find(v)
    size: dict[int, int] = defaultdict(int)
    vol: dict[int, int] = defaultdict(int)
    for x in range(g.n_nodes):
        size[find(x)] += 1
    for u, _ in g.edges:
        vol[find(u)] += 2
    return sum(size[r] * vol[r] for r in vol)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (counts and self seconds)."""
    self_s, calls = tracer.self_times()
    kept = tracer.kept
    out: dict[str, float] = {}
    for name in ("graph.parse_edge_list", "graph.sssp_weighted", "portrait.portrait",
                 "portrait.unique_path_lengths", "portrait.weighted_portrait",
                 "divergence.jsd_bits", "divergence.joint_distribution",
                 "ensembles.erdos_renyi", "ensembles.barabasi_albert",
                 "ensembles.rewire_random", "ensembles.rewire_degree_preserving"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("portrait.make_shared_bins", "portrait.BinSpec.from_quantiles",
                 "experiments.rewiring_curve", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    out["graph.edges_parsed"] = sum(g.n_edges for g in kept["graph.parse_edge_list"])
    hop = kept["portrait.portrait"]
    out["portrait.sources_swept"] = sum(g.n_nodes for g in hop)
    out["portrait.edge_visits_computed"] = sum(_edge_visits(g) for g in hop)
    out["portrait.portraits_per_graph"] = len(hop) / len({id(g) for g in hop}) if hop else 0.0

    swept = [g for g, _ in kept["portrait.unique_path_lengths"]]
    swept += kept["portrait.weighted_portrait"]
    out["portrait.distinct_lengths"] = sum(n for _, n in kept["portrait.unique_path_lengths"])
    bins = kept["portrait.BinSpec.from_quantiles"]
    out["portrait.bins_requested"] = sum(r for r, _ in bins)
    out["portrait.bins_effective"] = sum(e for _, e in bins)
    out["portrait.weighted_sweeps"] = len(swept)
    out["portrait.sweeps_per_graph"] = (len(swept) / len({id(g) for g in swept})
                                        if swept else 0.0)

    out["divergence.union_cells"] = sum(len(p.mass.keys() | q.mass.keys())
                                        for p, q in kept["divergence.jsd_bits"])
    out["divergence.joint_cells"] = sum(kept["divergence.joint_distribution"])
    return out


@contextmanager
def parse_alloc_probe(peaks: list[float]):
    """Measure the peak traced allocation of each parse_edge_list call, in MB.

    tracemalloc runs only inside parse calls, so the rest of the command runs
    at full speed; it is kept out of the span-traced runs because it slows the
    allocations it watches.
    """
    def make(name, fn):
        @wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
                tracemalloc.stop()
        return probed
    with patched(make, only={"graph.parse_edge_list"}):
        yield
