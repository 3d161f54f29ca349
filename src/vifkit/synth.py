"""Seeded synthetic datasets for the Cox, ListMLE and embedding scenarios.

Each generator imports the dataset class of its own loss module when called,
so a stage loads only its own scenario's loss.  The logistic reference
problem is drawn by `logisticloss.logistic_fixture`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .coxloss import SurvivalDataset
    from .embedloss import Graph
    from .ltrloss import RankingDataset

# Zachary's karate club: 34 nodes, 78 edges.
KARATE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
)


def synth_survival(
    n: int, d: int, theta_star, censor_rate: float = 0.0, seed: int = 0
) -> SurvivalDataset:
    """Exponential survival times with hazard exp(theta* . x) and independent
    exponential censoring calibrated to the requested censoring fraction."""
    from .coxloss import SurvivalDataset

    if not 0 <= censor_rate < 1:
        raise ValueError("censor_rate must be in [0, 1)")
    theta_star = np.ascontiguousarray(theta_star, dtype=np.float64)
    if theta_star.shape != (d,):
        raise ValueError("theta_star must have length d")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    # a large theta_star overflows or underflows here; the check below refuses
    # it, and no numpy warning reaches stderr ahead of the error
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        rate = np.exp(x @ theta_star)
        t_event = rng.exponential(1.0, n) / rate
    if not np.all((rate > 0) & np.isfinite(rate) & np.isfinite(t_event)):
        raise DataError(
            "non-finite values in survival data: theta_star puts a planted rate "
            "exp(x . theta_star) or an event time out of floating-point range"
        )
    if censor_rate == 0.0:
        y = t_event
        delta = np.ones(n, dtype=np.int64)
    else:
        # P(C < T | x) = c / (c + rate); calibrate c by bisection on the mean
        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if np.mean(mid / (mid + rate)) < censor_rate:
                lo = mid
            else:
                hi = mid
        t_cens = rng.exponential(1.0, n) / lo
        delta = (t_event <= t_cens).astype(np.int64)
        y = np.minimum(t_event, t_cens)
    # continuous times are almost surely tie-free; nudge defensively anyway
    _nudge_ties(y)
    return SurvivalDataset(x=x, y=y, delta=delta)


def _nudge_ties(y: np.ndarray) -> None:
    """Scale every tied value of y but the first in index order by 1 + 1e-12,
    in place, until no tie is left or no nudge moves one (0 and inf do not
    move, and SurvivalDataset refuses the ties or the infinities left)."""
    while True:
        order = np.argsort(y, kind="stable")
        tied = order[1:][y[order[1:]] == y[order[:-1]]]
        nudged = y[tied] * (1.0 + 1e-12)
        if not np.any(nudged != y[tied]):
            return
        y[tied] = nudged


def synth_ranking(m: int, n: int, k: int, p: int, seed: int = 0) -> RankingDataset:
    """Queries with relevance lists given by the top-k scores of a planted W*."""
    from .ltrloss import RankingDataset

    if k > n:
        raise ValueError("list length k cannot exceed the item universe")
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((m, p))
    w_star = rng.standard_normal((n, p))
    lists = []
    for x in feats:
        scores = w_star @ x + 0.1 * rng.standard_normal(n)
        top = np.argsort(-scores, kind="stable")[:k]
        lists.append(tuple(int(t) for t in top))
    return RankingDataset(features=feats, rel_lists=tuple(lists), n_items=n)


def synth_graph(
    n: int | None = None,
    edge_prob: float | None = None,
    seed: int = 0,
    preset: str | None = None,
) -> Graph:
    """Erdos-Renyi graph, or the karate preset (34 nodes, 78 edges)."""
    from .embedloss import Graph

    if preset is not None:
        if preset != "karate":
            raise ValueError(f"unknown preset {preset!r}")
        return Graph(n=34, edges=np.array(KARATE_EDGES, dtype=np.int64))
    if n is None or edge_prob is None:
        raise ValueError("n and edge_prob are required without a preset")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < edge_prob
    return Graph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))
