"""Portrait divergence: an information-theoretic distance between graphs.

A portrait flattens into a single joint distribution over (shell, k) cells:
the probability that two randomly chosen connected nodes sit at a given
distance and that one of them has k nodes at that distance. Two graphs are
then compared by the Jensen-Shannon divergence (base-2) between their joint
distributions, which is symmetric, bounded to [0, 1], and zero exactly when
the portraits coincide. The older row-wise Kolmogorov-Smirnov comparator is
kept as ``legacy_delta``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from .graph import Graph
from .portrait import BinSpec, Portrait, make_shared_bins, portrait, weighted_portrait

Cell = tuple[int, int]

# Caps rows x cells per block of the JSD kernel, which bounds its temporaries
# (~70 B per cell). A matrix over 150 200-node snapshots (442 cells) ran as fast
# at 2^12 and 2^14 as at 2^16 or unbatched, and peaked 2.3 MB lower.
_JSD_CELLS = 1 << 14


class JointDistribution:
    """Sparse probability mass over (shell, k) cells, k >= 1 only.

    Cells are held as sorted int64 keys ``shell << 32 | k``, which sort as the
    (shell, k) tuples do, beside their float64 masses: 16 bytes per cell.
    """

    __slots__ = ("_keys", "_masses", "_mass")

    def __init__(self, mass: Mapping[Cell, float]):
        cells = np.array(list(mass), dtype=np.int64).reshape(-1, 2)
        masses = np.array(list(mass.values()), dtype=np.float64)
        shells, ks = cells.T
        keys = (shells << 32) | ks
        bad = (ks < 1) | (keys >> 32 != shells) | (keys & 0xFFFFFFFF != ks) | (masses <= 0.0)
        if bad.any():
            (shell, k), p = list(mass.items())[int(np.argmax(bad))]
            raise ValueError(f"invalid cell ({shell}, {k}) with mass {p}")
        order = np.argsort(keys)
        self._set(keys[order], masses[order])

    def _set(self, keys: np.ndarray, masses: np.ndarray) -> None:
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint mass sums to {total}, not 1")
        self._keys, self._masses, self._mass = keys, masses, None

    @property
    def mass(self) -> Mapping[Cell, float]:
        """Read-only {(shell, k): mass} in sorted cell order, built on first use."""
        if self._mass is None:
            cells = zip((self._keys >> 32).tolist(), (self._keys & 0xFFFFFFFF).tolist())
            self._mass = MappingProxyType(dict(zip(cells, self._masses.tolist())))
        return self._mass

    def __eq__(self, other):
        return (isinstance(other, JointDistribution) and np.array_equal(self._keys, other._keys)
                and np.array_equal(self._masses, other._masses))

    def total(self) -> float:
        return math.fsum(self._masses.tolist())


@dataclass(frozen=True)
class DivergenceReport:
    """Divergence value plus the KL components and bookkeeping."""

    d_js: float
    kl_p_m_bits: float
    kl_q_m_bits: float
    n1: int
    m1: int
    n2: int
    m2: int
    bin_edges: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        bins = out.pop("bin_edges")
        out["bins"] = list(bins) if bins is not None else None
        return out


def joint_distribution(p: Portrait) -> JointDistribution:
    """Joint (shell, k) distribution of a portrait.

    mass(shell, k) = k * (nodes in cell (shell, k)) / S, where S is the total count of
    ordered reachable pairs including self-pairs; k=0 cells carry no mass, so
    padding a portrait never changes its joint distribution.
    """
    # int64 products stay below 2^53, so this division rounds as int / int does
    masses = (p.keys & 0xFFFFFFFF) * p.cell_counts / p.reachable_pairs
    joint = JointDistribution.__new__(JointDistribution)
    joint._set(p.keys, masses)
    return joint


def kl_divergence_bits(p: JointDistribution, q: JointDistribution) -> float:
    """Relative entropy in bits; requires support(p) within support(q)."""
    at = np.minimum(np.searchsorted(q._keys, p._keys), q._keys.size - 1)
    missing = q._keys[at] != p._keys
    if missing.any():
        cell = list(p.mass)[int(np.argmax(missing))]
        raise ValueError(f"KL undefined: cell {cell} has mass in p but not q")
    return float(np.cumsum(p._masses * _log2(p._masses / q._masses[at]))[-1])


def jsd_bits(p: JointDistribution, q: JointDistribution) -> tuple[float, float, float]:
    """Jensen-Shannon divergence and its two KL components, in bits.

    The mixture covers the union support, so this never hits the KL support
    restriction. Cells are summed in sorted order for bit-reproducibility.
    """
    rows = _mass_rows((p, q))
    return tuple(_jsd_rows(rows[0], rows[1:])[:, 0].tolist())


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    return np.fromiter(map(math.log2, x.tolist()), np.float64, x.size)


def _mass_rows(joints: Sequence[JointDistribution]) -> np.ndarray:
    """One dense mass row per joint over the sorted union of their cells."""
    axis = np.unique(np.concatenate([j._keys for j in joints]))
    rows = np.zeros((len(joints), axis.size))
    for row, j in zip(rows, joints):
        row[np.searchsorted(axis, j._keys)] = j._masses
    return rows


def _jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d_js, KL(p || m) and KL(q || m) in bits, as a (3, rows) array, of mass
    row ``p`` against each row of ``q`` on one sorted cell axis.

    Each float equals a left-to-right loop over the cells adding a * log2(a / m)
    for each side a > 0: a one-sided term is a itself (a / m == 2), an equal
    one is 0, only the rest take a logarithm, and cumsum adds in cell order.
    """
    out = np.empty((3, len(q)))
    step = max(1, _JSD_CELLS // p.size)
    for first in range(0, len(q), step):
        b = q[first:first + step]
        a = np.broadcast_to(p, b.shape)
        m = 0.5 * (a + b)
        both = (a > 0.0) & (b > 0.0) & (a != b)
        for kl, x, y in ((out[1], a, b), (out[2], b, a)):
            terms = np.where(y == 0.0, x, 0.0)
            terms[both] = x[both] * _log2(x[both] / m[both])
            kl[first:first + step] = np.cumsum(terms, axis=1)[:, -1]
    out[0] = 0.5 * (out[1] + out[2])
    return out


def _jsd_matrix(joints: Sequence[JointDistribution]) -> np.ndarray:
    """Pairwise JSD in bits, each entry equal to ``jsd_bits``' d_js."""
    rows = _mass_rows(joints)
    out = np.zeros((len(rows), len(rows)))
    for i in range(len(rows) - 1):
        out[i, i + 1:] = out[i + 1:, i] = _jsd_rows(rows[i], rows[i + 1:])[0]
    return out


def _report(p1: Portrait, p2: Portrait, g1: Graph, g2: Graph,
            bins: BinSpec | None) -> DivergenceReport:
    d_js, kl_pm, kl_qm = jsd_bits(joint_distribution(p1), joint_distribution(p2))
    return DivergenceReport(
        d_js=d_js, kl_p_m_bits=kl_pm, kl_q_m_bits=kl_qm,
        n1=g1.n_nodes, m1=g1.n_edges, n2=g2.n_nodes, m2=g2.n_edges,
        bin_edges=bins.edges if bins is not None else None,
    )


def portrait_divergence(g1: Graph, g2: Graph, *,
                        ignore_weights: bool = False) -> DivergenceReport:
    """Hop-count portrait divergence between two graphs."""
    p1 = portrait(g1, ignore_weights=ignore_weights)
    p2 = portrait(g2, ignore_weights=ignore_weights)
    return _report(p1, p2, g1, g2, None)


def weighted_portrait_divergence(g1: Graph, g2: Graph, n_bins: int = 100,
                                 transform: str = "reciprocal") -> DivergenceReport:
    """Portrait divergence of two weighted graphs under one shared binning."""
    bins = make_shared_bins(g1, g2, n_bins, transform)
    p1 = weighted_portrait(g1, bins, transform)
    p2 = weighted_portrait(g2, bins, transform)
    return _report(p1, p2, g1, g2, bins)


def legacy_delta(g1: Graph, g2: Graph) -> float:
    """Row-wise Kolmogorov-Smirnov comparator between two portraits.

    Each shell contributes its KS statistic between the row-wise cumulative
    distributions, averaged with weights proportional to the shells' k>0
    occupancy in both graphs. Shells past a portrait's last hold all of its N
    nodes at k = 0, and rows run to k = max(N1, N2); both paddings are implied
    by the cells, never built.
    """
    return _legacy_delta(portrait(g1), portrait(g2))


def _legacy_delta(p1: Portrait, p2: Portrait) -> float:
    # A shell's cumulative distribution steps only at its occupied k and at k = 0,
    # so its KS maximum is read on the union of both portraits' keys and every
    # shell's k = 0 key. One running count over that axis, less the N nodes of each
    # shell before, is each shell's integer cumsum, divided by N as a dense row's is.
    rows = max(p1.n_rows, p2.n_rows)
    zero_keys = np.arange(rows, dtype=np.int64) << 32
    axis = np.unique(np.concatenate([zero_keys, p1.keys, p2.keys]))
    starts = np.searchsorted(axis, zero_keys)
    occupied, cdfs = [], []
    for p in (p1, p2):
        occupied.append(np.bincount(p.keys >> 32, p.cell_counts, rows).astype(np.int64))
        run = np.zeros(axis.size, dtype=np.int64)
        run[starts] = p.n_nodes - occupied[-1]
        run[np.searchsorted(axis, p.keys)] = p.cell_counts
        cdfs.append((np.cumsum(run) - (axis >> 32) * p.n_nodes) / p.n_nodes)
    ks = np.maximum.reduceat(np.abs(cdfs[0] - cdfs[1]), starts)
    alpha = occupied[0] + occupied[1]
    return float((alpha * ks).sum() / alpha.sum())
