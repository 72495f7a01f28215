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
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph
from .portrait import BinSpec, Portrait, make_shared_bins, pad_portrait, portrait, \
    weighted_portrait

Cell = tuple[int, int]


@dataclass(frozen=True)
class JointDistribution:
    """Sparse probability mass over (shell, k) cells, k >= 1 only."""

    mass: dict[Cell, float]

    def __post_init__(self):
        for (shell, k), p in self.mass.items():
            if k < 1 or p <= 0.0:
                raise ValueError(f"invalid cell ({shell}, {k}) with mass {p}")
        total = math.fsum(self.mass.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint mass sums to {total}, not 1")

    def total(self) -> float:
        return math.fsum(self.mass.values())


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

    mass(shell, k) = k * counts[shell][k] / S, where S is the total count of
    ordered reachable pairs including self-pairs; k=0 cells carry no mass, so
    padding a portrait never changes its joint distribution.
    """
    shells, ks = np.nonzero(p.counts[:, 1:])  # row-major, as the cells are sorted
    ks += 1
    # int64 products stay below 2^53, so this division rounds as int / int does
    masses = ks * p.counts[shells, ks] / p.reachable_pairs
    return JointDistribution(mass=dict(zip(zip(shells.tolist(), ks.tolist()), masses.tolist())))


def kl_divergence_bits(p: JointDistribution, q: JointDistribution) -> float:
    """Relative entropy in bits; requires support(p) within support(q)."""
    total = 0.0
    for cell, a in sorted(p.mass.items()):
        b = q.mass.get(cell)
        if b is None:
            raise ValueError(f"KL undefined: cell {cell} has mass in p but not q")
        total += a * math.log2(a / b)
    return total


def jsd_bits(p: JointDistribution, q: JointDistribution) -> tuple[float, float, float]:
    """Jensen-Shannon divergence and its two KL components, in bits.

    The mixture covers the union support, so this never hits the KL support
    restriction. Cells are visited in sorted order for bit-reproducibility.
    """
    kl_pm = 0.0
    kl_qm = 0.0
    for cell in sorted(p.mass.keys() | q.mass.keys()):
        a = p.mass.get(cell, 0.0)
        b = q.mass.get(cell, 0.0)
        m = 0.5 * (a + b)
        if a > 0.0:
            kl_pm += a * math.log2(a / m)
        if b > 0.0:
            kl_qm += b * math.log2(b / m)
    return 0.5 * (kl_pm + kl_qm), kl_pm, kl_qm


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

    Portraits are padded to a common shell count; each shell contributes its
    KS statistic between the row-wise cumulative distributions, averaged with
    weights proportional to the shells' k>0 occupancy in both graphs.
    """
    return _legacy_delta(portrait(g1), portrait(g2))


def _legacy_delta(p1: Portrait, p2: Portrait) -> float:
    rows = max(p1.n_rows, p2.n_rows)
    b1 = pad_portrait(p1, rows).counts
    b2 = pad_portrait(p2, rows).counts
    cols = max(b1.shape[1], b2.shape[1])
    b1 = np.pad(b1, ((0, 0), (0, cols - b1.shape[1])))
    b2 = np.pad(b2, ((0, 0), (0, cols - b2.shape[1])))

    c1 = np.cumsum(b1, axis=1) / b1.sum(axis=1, keepdims=True)
    c2 = np.cumsum(b2, axis=1) / b2.sum(axis=1, keepdims=True)
    ks = np.abs(c1 - c2).max(axis=1)
    alpha = b1[:, 1:].sum(axis=1) + b2[:, 1:].sum(axis=1)
    return float((alpha * ks).sum() / alpha.sum())
