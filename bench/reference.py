"""Independent reference outputs and the checks against them.

Shortest paths come from networkx (installed, but not a netportrait
dependency); portraits, quantile bins, joint distributions and the
Jensen-Shannon divergence are written out here in plain Python. Nothing is
imported from netportrait.

Tolerance: every divergence and KL value must match the reference within
TOL = 1e-9 absolute. The values lie in [0, 1]. Summing the same terms in
another order, or vectorised, moves them by about 1e-16, far below TOL; a
wrong cell or bin moves them by far more. Counts (nodes, edges, seeds) must
match exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import networkx as nx

TOL = 1e-9

Cells = Counter  # (shell or bin row, k) -> number of nodes


def read_graph(path: Path, weighted: bool) -> nx.Graph:
    """Edge-list file as a networkx graph; path cost 1/w when weighted."""
    g = nx.Graph()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if g.has_edge(fields[0], fields[1]) or fields[0] == fields[1]:
            raise ValueError(f"{path}: generated input repeats an edge or has a self-loop")
        if weighted:
            g.add_edge(fields[0], fields[1], cost=1.0 / float(fields[2]))
        else:
            g.add_edge(fields[0], fields[1])
    return g


def graph_from_edges(n: int, edges: list[list[int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    return g


def hop_cells(g: nx.Graph) -> Cells:
    """Hop-count portrait cells with k >= 1 (k = 0 cells carry no mass)."""
    cells: Cells = Counter()
    for source in g:
        shells = Counter(nx.single_source_shortest_path_length(g, source).values())
        for shell, k in shells.items():
            cells[(shell, k)] += 1
    return cells


def joint(cells: Cells) -> dict:
    """Joint (shell, k) distribution: mass k * count / (sum of k * count)."""
    total = sum(k * c for (_, k), c in cells.items())
    return {cell: cell[1] * c / total for cell, c in cells.items()}


def jsd(p: dict, q: dict) -> tuple[float, float, float]:
    """Base-2 Jensen-Shannon divergence and its two KL terms."""
    kl_pm = kl_qm = 0.0
    for cell in sorted(p.keys() | q.keys()):
        a, b = p.get(cell, 0.0), q.get(cell, 0.0)
        m = 0.5 * (a + b)
        if a > 0.0:
            kl_pm += a * math.log2(a / m)
        if b > 0.0:
            kl_qm += b * math.log2(b / m)
    return 0.5 * (kl_pm + kl_qm), kl_pm, kl_qm


def weighted_rows(g: nx.Graph) -> list[list[float]]:
    """Per source, the finite Dijkstra path lengths to every other node."""
    rows = []
    for source in g:
        dist = nx.single_source_dijkstra_path_length(g, source, weight="cost")
        rows.append([d for node, d in dist.items() if node != source])
    return rows


def quantile_edges(lengths: set[float], n_bins: int) -> list[float]:
    """Lower edge of bin j at rank floor(j * n / n_bins) of the n sorted
    unique lengths, coinciding edges merged, closed by the maximum."""
    uniq = sorted(lengths)
    lowers: list[float] = []
    for j in range(n_bins):
        value = uniq[(j * len(uniq)) // n_bins]
        if not lowers or value > lowers[-1]:
            lowers.append(value)
    return lowers + [uniq[-1]]


def weighted_cells(rows: list[list[float]], edges: list[float]) -> Cells:
    """Binned portrait cells: row 0 holds every node once at k = 1; row
    1 + b counts nodes by how many others fall in bin b (last bin closed)."""
    last = len(edges) - 2
    cells: Cells = Counter({(0, 1): len(rows)})
    for row in rows:
        per_bin = Counter(min(bisect_right(edges, d) - 1, last) for d in row)
        for b, k in per_bin.items():
            cells[(1 + b, k)] += 1
    return cells


def _matrix(joints: list[dict]) -> list[list[float]]:
    k = len(joints)
    values = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            values[i][j] = values[j][i] = jsd(joints[i], joints[j])[0]
    return values


def expected(workload: str, case, captured: dict) -> dict:
    """Reference output of one generated case."""
    if workload == "hop-compare":
        g1, g2 = (read_graph(f, False) for f in case.files)
        d, kl_pm, kl_qm = jsd(joint(hop_cells(g1)), joint(hop_cells(g2)))
        return {"d_js": d, "kl_p_m_bits": kl_pm, "kl_q_m_bits": kl_qm,
                "n1": g1.number_of_nodes(), "m1": g1.number_of_edges(),
                "n2": g2.number_of_nodes(), "m2": g2.number_of_edges(), "bins": None}
    if workload == "snapshot-matrix":
        joints = [joint(hop_cells(read_graph(f, False))) for f in case.files]
        return {"files": [f.name for f in case.files], "d_js": _matrix(joints)}
    if workload == "weighted-matrix":
        n_bins = int(case.argv[case.argv.index("--bins") + 1])
        rows = [weighted_rows(read_graph(f, True)) for f in case.files]
        uniq = [{d for row in r for d in row} for r in rows]
        k = len(rows)
        values = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                edges = quantile_edges(uniq[i] | uniq[j], n_bins)
                values[i][j] = values[j][i] = jsd(joint(weighted_cells(rows[i], edges)),
                                                  joint(weighted_cells(rows[j], edges)))[0]
        return {"files": [f.name for f in case.files], "d_js": values}
    # rewiring-experiment: the divergence of every (base, rewired) pair the
    # generators returned, aggregated as the experiment defines it
    base_joints = [joint(hop_cells(graph_from_edges(b["n"], b["edges"])))
                   for b in captured["bases"]]
    groups: dict[tuple, list[float]] = {}
    for pair in captured["pairs"]:
        model = captured["bases"][pair["base"]]["model"]
        d = jsd(base_joints[pair["base"]],
                joint(hop_cells(graph_from_edges(pair["n"], pair["edges"]))))[0]
        groups.setdefault((model, pair["mode"], pair["n_rewirings"]), []).append(d)
    rows = {}
    for key, vals in groups.items():
        mean = math.fsum(vals) / len(vals)
        sd = (math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
              if len(vals) > 1 else 0.0)
        rows[key] = (mean, sd, len(vals))
    return {"rows": rows, "repeats": int(case.argv[case.argv.index("--repeats") + 1])}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL


def check(workload: str, want: dict, text: str) -> list[str]:
    """Differences between one command output and the reference (empty if none)."""
    try:
        if workload == "hop-compare":
            got = json.loads(text)
            errs = [f"{k}: {got.get(k)!r} != {v!r}" for k, v in want.items()
                    if not (_close(got.get(k), v) if isinstance(v, float)
                            else got.get(k) == v)]
            if set(got) != set(want):
                errs.append(f"report keys {sorted(got)} != {sorted(want)}")
            return errs
        lines = text.splitlines()
        if workload in ("snapshot-matrix", "weighted-matrix"):
            values = [[float(x) for x in line.split(",")] for line in lines[1:]]
            if lines[0].split(",") != want["files"] or (
                    [len(row) for row in values] != [len(want["files"])] * len(want["files"])):
                return ["matrix header or shape differs"]
            return [f"d_js[{i}][{j}] = {x!r} != {want['d_js'][i][j]!r}"
                    for i, row in enumerate(values) for j, x in enumerate(row)
                    if not _close(x, want["d_js"][i][j])][:10]
        errs = []
        if lines[0] != "model,mode,n_rewirings,mean_d_js,sd_d_js,n_seeds":
            errs.append(f"header {lines[0]!r}")
        seen = set()
        for line in lines[1:]:
            model, mode, n, mean, sd, n_seeds = line.split(",")
            key = (model, mode, int(n))
            seen.add(key)
            ref = want["rows"].get(key)
            if (ref is None or not _close(float(mean), ref[0]) or not _close(float(sd), ref[1])
                    or int(n_seeds) != ref[2] or ref[2] != want["repeats"]):
                errs.append(f"row {line!r} != reference {ref}")
        if seen != set(want["rows"]):
            errs.append(f"rows {sorted(seen)} != reference {sorted(want['rows'])}")
        return errs
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
