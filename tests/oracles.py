"""Brute-force reference computations used to freeze expected test values.

Everything here is deliberately naive and independent of the package
implementation: distances come from Floyd-Warshall or a heapq Dijkstra (not
the package's sweeps), portraits from direct counting over the full distance
matrix, divergences from explicit sums over dict-based sparse distributions.
Keep it that way -- these oracles exist to catch bugs in the fast paths.
"""

import heapq
import math

INF = math.inf


def floyd_warshall(n, edges, directed=False, weights=None, transform="identity"):
    """All-pairs shortest path matrix as a list of lists."""
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for idx, (u, v) in enumerate(edges):
        w = 1.0 if weights is None else weights[idx]
        c = w if transform == "identity" else 1.0 / w
        if c < dist[u][v]:
            dist[u][v] = c
        if not directed and c < dist[v][u]:
            dist[v][u] = c
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def dijkstra(n, edges, source, directed=False, weights=None, transform="identity"):
    """Single-source distances by a binary-heap Dijkstra, INF if unreachable.

    Each distance is a left-to-right float sum of edge costs along a shortest
    path: the exact floats the package's weighted sweep must return.
    """
    out = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        w = 1.0 if weights is None else weights[idx]
        c = w if transform == "identity" else 1.0 / w
        out[u].append((v, c))
        if not directed:
            out[v].append((u, c))
    dist = [INF] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, c in out[u]:
            alt = d + c
            if alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist


def portrait_cells(n, edges, directed=False):
    """Sparse portrait {(shell, k): count} by direct distance counting.

    Includes k=0 cells for nodes whose farthest reachable node is closer
    than the overall maximum distance.
    """
    return cells_of_distances(floyd_warshall(n, edges, directed=directed))


def cells_of_distances(dist):
    """Sparse portrait {(shell, k): count} of an all-pairs hop-count matrix."""
    n = len(dist)
    d_max = 0
    for i in range(n):
        for j in range(n):
            if dist[i][j] < INF:
                d_max = max(d_max, int(dist[i][j]))
    cells = {}
    for i in range(n):
        per_shell = [0] * (d_max + 1)
        for j in range(n):
            if dist[i][j] < INF:
                per_shell[int(dist[i][j])] += 1
        for shell, k in enumerate(per_shell):
            cells[(shell, k)] = cells.get((shell, k), 0) + 1
    return cells


def joint_cells(n, edges, directed=False):
    """Sparse joint distribution {(shell, k): mass} with k=0 excluded."""
    cells = portrait_cells(n, edges, directed=directed)
    total = sum(k * c for (_, k), c in cells.items())
    return {(s, k): k * c / total for (s, k), c in cells.items() if k > 0}


def quantile_edges(lengths, n_bins):
    """Equal-count bin edges over sorted unique lengths, last bin closed.

    Lower edge of bin j sits at 1-indexed rank floor(j*n/b)+1 of the sorted
    uniques; duplicates collapse; the final edge is the maximum length.
    """
    uniq = sorted(set(lengths))
    n = len(uniq)
    lowers = []
    for j in range(n_bins):
        val = uniq[(j * n) // n_bins]
        if not lowers or val > lowers[-1]:
            lowers.append(val)
    return lowers + [uniq[-1]]


def bin_of(edges, x):
    """Index of the bin holding x; linear scan, last bin closed both sides."""
    n_bins = len(edges) - 1
    for i in range(n_bins - 1):
        if edges[i] <= x < edges[i + 1]:
            return i
    if edges[n_bins - 1] <= x <= edges[n_bins]:
        return n_bins - 1
    raise ValueError(f"{x} outside bins {edges}")


def weighted_joint_cells(n, edges, weights, transform, bin_edges, directed=False):
    """Joint distribution for a weighted graph under a fixed binning."""
    dist = floyd_warshall(n, edges, directed=directed, weights=weights,
                          transform=transform)
    n_bins = len(bin_edges) - 1
    cells = {(0, 1): n}
    for i in range(n):
        per_bin = [0] * n_bins
        for j in range(n):
            if j != i and dist[i][j] < INF:
                per_bin[bin_of(bin_edges, dist[i][j])] += 1
        for b, k in enumerate(per_bin):
            cells[(b + 1, k)] = cells.get((b + 1, k), 0) + 1
    total = sum(k * c for (_, k), c in cells.items())
    return {(s, k): k * c / total for (s, k), c in cells.items() if k > 0}


def jsd_bits(p, q):
    """Jensen-Shannon divergence in bits between two sparse distributions."""
    return jsd_parts(p, q)[0]


def jsd_parts(p, q):
    """Jensen-Shannon divergence in bits and its two KL components, one
    left-to-right loop over the sorted union of cells."""
    kl_pm = 0.0
    kl_qm = 0.0
    for cell in sorted(set(p) | set(q)):
        a = p.get(cell, 0.0)
        b = q.get(cell, 0.0)
        m = 0.5 * (a + b)
        if a > 0.0:
            kl_pm += a * math.log2(a / m)
        if b > 0.0:
            kl_qm += b * math.log2(b / m)
    return 0.5 * (kl_pm + kl_qm), kl_pm, kl_qm


def kl_bits(p, q):
    """Relative entropy in bits, one left-to-right loop over p's sorted
    cells; every cell of p must be a cell of q."""
    total = 0.0
    for cell, a in sorted(p.items()):
        total += a * math.log2(a / q[cell])
    return total


def ks_delta(n1, edges1, n2, edges2):
    """Row-wise KS comparison of two portraits, shell-occupancy weighted."""
    cells1 = portrait_cells(n1, edges1)
    cells2 = portrait_cells(n2, edges2)
    rows = max(s for s, _ in cells1) + 1
    rows2 = max(s for s, _ in cells2) + 1
    rows = max(rows, rows2)
    cols = max(k for _, k in list(cells1) + list(cells2)) + 1

    def dense(cells, n):
        mat = [[0] * cols for _ in range(rows)]
        for (s, k), c in cells.items():
            mat[s][k] = c
        for s in range(rows):
            if sum(mat[s]) == 0:  # padded empty shell
                mat[s][0] = n
        return mat

    b1 = dense(cells1, n1)
    b2 = dense(cells2, n2)
    num = 0.0
    den = 0.0
    for s in range(rows):
        c1 = c2 = 0.0
        t1 = float(sum(b1[s]))
        t2 = float(sum(b2[s]))
        k_stat = 0.0
        for k in range(cols):
            c1 += b1[s][k] / t1
            c2 += b2[s][k] / t2
            k_stat = max(k_stat, abs(c1 - c2))
        alpha = sum(b1[s][1:]) + sum(b2[s][1:])
        num += alpha * k_stat
        den += alpha
    return num / den


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        r = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                r[order[t]] = avg
            i = j + 1
        return r

    rx = ranks(xs)
    ry = ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)
