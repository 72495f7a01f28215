"""Synthetic-graph experiments: ensemble separation and rewiring response.

These drive the generators and the divergence together, the way the CLI's
``experiment`` command exposes them. All runs are deterministic in the seed;
per-graph child seeds are drawn from one parent stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import joint_distribution, jsd_bits, portrait_divergence
from .ensembles import barabasi_albert, erdos_renyi, rewire_degree_preserving, \
    rewire_random
from .portrait import portrait

ENSEMBLE_CONDITIONS = ("er-er", "ba-ba", "er-ba")
REWIRE_MODES = ("random", "degree-preserving")


@dataclass(frozen=True)
class EnsemblePoint:
    condition: str
    pair: int
    d_js: float


@dataclass(frozen=True)
class RewiringPoint:
    model: str
    mode: str
    n_rewirings: int
    mean_d_js: float
    sd_d_js: float
    n_seeds: int


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 63))


def ensemble_distributions(n_nodes: int = 300, avg_degree: float = 6.0,
                           n_pairs: int = 30, seed: int = 0) -> list[EnsemblePoint]:
    """Divergence samples for ER-ER, BA-BA and ER-BA pairs at matched mean degree."""
    if n_nodes < 2:
        raise ValueError(f"ensembles need n_nodes >= 2, got {n_nodes}")
    rng = np.random.default_rng(seed)
    p = avg_degree / (n_nodes - 1)
    m = max(1, round(avg_degree / 2))

    def gen(kind: str):
        s = _child_seed(rng)
        return erdos_renyi(n_nodes, p, s) if kind == "er" else barabasi_albert(n_nodes, m, s)

    out = []
    for condition in ENSEMBLE_CONDITIONS:
        kind1, kind2 = condition.split("-")
        for pair in range(n_pairs):
            d = portrait_divergence(gen(kind1), gen(kind2)).d_js
            out.append(EnsemblePoint(condition=condition, pair=pair, d_js=d))
    return out


def rewiring_curve(models: tuple[str, ...] = ("er", "ba"), n_nodes: int = 300,
                   er_p: float = 3 / 299, ba_m: int = 3,
                   rewirings: tuple[int, ...] = (10, 100, 1000),
                   n_seeds: int = 30, seed: int = 0) -> list[RewiringPoint]:
    """Mean and s.d. of the divergence between a base graph and rewired copies,
    for both rewiring modes, as a function of the number of rewirings."""
    if n_seeds < 1 or min(rewirings, default=0) < 0:
        raise ValueError(f"need n_seeds >= 1 and rewirings >= 0, got {n_seeds}, {rewirings}")
    rng = np.random.default_rng(seed)
    samples: dict[tuple[str, str, int], list[float]] = {
        (model, mode, n): [] for model in models for mode in REWIRE_MODES
        for n in rewirings
    }
    for model in models:
        for _ in range(n_seeds):
            base = (erdos_renyi(n_nodes, er_p, _child_seed(rng)) if model == "er"
                    else barabasi_albert(n_nodes, ba_m, _child_seed(rng)))
            base_joint = joint_distribution(portrait(base))
            for mode in REWIRE_MODES:
                rewire = rewire_random if mode == "random" else rewire_degree_preserving
                for n in rewirings:
                    perturbed = rewire(base, n, _child_seed(rng))
                    d, _, _ = jsd_bits(base_joint, joint_distribution(portrait(perturbed)))
                    samples[(model, mode, n)].append(d)

    out = []
    for model in models:
        for mode in REWIRE_MODES:
            for n in rewirings:
                vals = samples[(model, mode, n)]
                mean = math.fsum(vals) / len(vals)
                sd = (math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
                      if len(vals) > 1 else 0.0)
                out.append(RewiringPoint(model=model, mode=mode, n_rewirings=n,
                                         mean_d_js=mean, sd_d_js=sd, n_seeds=len(vals)))
    return out
