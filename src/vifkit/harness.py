"""Experiment harness: synthetic data, brute-force leave-one-out, comparison.

The leave-one-out oracle retrains from scratch per dropped object under the
same configuration (in lockstep groups where the model batches its drop-one
gradients) and returns the objects x targets matrix of deltas
f(theta_-i) - f(theta_full); compare() correlates the negated deltas against
the chain-rule influence score matrix, Table-style, and tracks attribution
wall time on both sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from .errors import DataError, DegenerateInputError
from .losscore import (
    DecomposableLoss,
    LossModel,
    PresenceVector,
    TargetFunction,
    TrainConfig,
    TrainResult,
    derive_seed,
    object_ids,
    train,
    train_drop_one,
)
from . import numkit

# Each loss module is imported by the generator that needs it, so a stage
# loads only its own scenario's; these names are for annotations.
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
        g = Graph(n=34, edges=np.array(KARATE_EDGES, dtype=np.int64))
        if g.n != 34 or g.n_edges != 78:
            raise DataError("karate preset failed its shape check")
        return g
    if n is None or edge_prob is None:
        raise ValueError("n and edge_prob are required without a preset")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < edge_prob
    return Graph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))


class LogisticModel(LossModel, DecomposableLoss):
    """Ridge-regularized logistic regression, decomposable by construction.

    Per-point loss l_i = log(1 + exp(-y_i theta.x_i)) + (reg/2n)|theta|^2
    with labels y in {-1, +1}; the same object doubles as the decomposable
    view for the classical influence and, via presence masking, as a sum-form
    loss for the versatile influence.
    """

    is_convex = True

    def __init__(self, x: np.ndarray, labels: np.ndarray, reg: float = 1e-3):
        x = np.ascontiguousarray(x, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if x.ndim != 2 or labels.shape != (x.shape[0],):
            raise DataError("x must be (n, d) with one label per row")
        if not np.all(np.isfinite(x)):
            raise DataError("non-finite feature values")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise DataError("labels must be -1 or +1")
        if reg < 0:
            raise ValueError("reg must be >= 0")
        self.x = x
        self.labels = labels
        self.reg = float(reg)

    @property
    def n_objects(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def _margins(self, theta, idx):
        return self.labels[idx] * (self.x[idx] @ theta)

    def _slopes(self, theta, idx):
        """d l_i / d(theta.x_i) = -y_i / (1 + exp(z_i)) for the objects in idx."""
        return -self.labels[idx] / (1.0 + np.exp(self._margins(theta, idx)))

    def _curvatures(self, theta, idx):
        """d^2 l_i / d(theta.x_i)^2 = s_i (1 - s_i), s_i = sigmoid(z_i), for idx."""
        s = 1.0 / (1.0 + np.exp(-self._margins(theta, idx)))
        return s * (1.0 - s)

    def value(self, theta, b):
        idx = b.present_indices()
        z = self._margins(theta, idx)
        # log(1 + exp(-z)) evaluated stably
        val = np.logaddexp(0.0, -z).sum()
        val += 0.5 * self.reg * (idx.size / self.n_objects) * float(theta @ theta)
        return float(val)

    def gradient(self, theta, b):
        return self.term_gradient_sum(theta, b, np.arange(b.count))

    def hessian(self, theta, b):
        idx = b.present_indices()
        w = self._curvatures(theta, idx)
        h = (self.x[idx] * w[:, None]).T @ self.x[idx]
        return h + self.reg * (idx.size / self.n_objects) * np.eye(self.dim)

    def num_terms(self, b):
        return b.count

    def per_term_hvp(self, j, theta, b, v):
        i = b.present_indices()[j]
        w = self._curvatures(theta, i)
        xv = self.x[i] @ v  # a scalar, or one entry per column of a block
        return np.multiply.outer(w * self.x[i], xv) + (self.reg / self.n_objects) * v

    def term_gradient_sum(self, theta, b, idx_terms):
        idx = b.present_indices()[np.asarray(idx_terms, dtype=np.int64)]
        g = self._slopes(theta, idx) @ self.x[idx]
        return g + self.reg * (idx.size / self.n_objects) * theta

    def point_gradients(self, theta):
        coef = self._slopes(theta, slice(None))
        return coef[:, None] * self.x + (self.reg / self.n_objects) * theta[None, :]


class LogLossTarget(TargetFunction):
    """Logistic test loss of one held-out point."""

    def __init__(self, x_test, label: float):
        self.x_test = np.ascontiguousarray(x_test, dtype=np.float64)
        if label not in (-1.0, 1.0):
            raise ValueError("label must be -1 or +1")
        self.label = float(label)

    def value(self, theta):
        return float(np.logaddexp(0.0, -self.label * (theta @ self.x_test)))

    def gradient(self, theta):
        z = self.label * (theta @ self.x_test)
        return -self.label / (1.0 + np.exp(z)) * self.x_test


def logistic_fixture(
    n: int, d: int, seed: int = 0, reg: float = 1e-3
) -> LogisticModel:
    """Seeded synthetic logistic regression problem."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    probs = 1.0 / (1.0 + np.exp(-(x @ w)))
    labels = np.where(rng.random(n) < probs, 1.0, -1.0)
    return LogisticModel(x=x, labels=labels, reg=reg)


@dataclass(frozen=True, eq=False)
class LooResult:
    """Leave-one-out retrainings of objects (ascending ids), one row each.

    deltas[r, t] = f_t(theta_-objects[r]) - f_t(theta_full); grad_norm,
    converged, iterations and wall_s hold each retraining's final gradient
    norm, whether it met the training grad_tol, its optimizer steps and its
    wall time in seconds (in lockstep, its group's wall time split evenly
    over the group's rows).  group_rows holds the row count of each lockstep
    group in order, and is empty when every object retrained on its own.
    """

    objects: np.ndarray
    deltas: np.ndarray
    grad_norm: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    wall_s: np.ndarray
    group_rows: np.ndarray


class _Retrain(NamedTuple):
    """One retraining, one row of LooResult."""

    deltas: np.ndarray
    grad_norm: float
    converged: bool
    iterations: int
    wall_s: float


def _deltas(targets, base_values, theta) -> np.ndarray:
    return np.array([t.value(theta) - base for t, base in zip(targets, base_values)])


def _loo_one(model, cfg, init, base_values, targets, i) -> _Retrain:
    start = time.perf_counter()
    b = PresenceVector.all_ones(model.n_objects).without(i)
    cfg_i = replace(cfg, seed=derive_seed(cfg.seed, i))
    if init is None:
        init = model.initial_params(cfg_i.seed)
    res = train(model, b, cfg_i, init=init)
    return _Retrain(
        _deltas(targets, base_values, res.theta),
        res.grad_norm,
        res.converged,
        res.iterations,
        time.perf_counter() - start,
    )


def _loo_lockstep(model, cfg, init, base_values, targets, group) -> list[_Retrain]:
    start = time.perf_counter()
    if init is None:
        inits = [model.initial_params(derive_seed(cfg.seed, i)) for i in group]
    else:
        inits = [init] * len(group)
    thetas, grad_norms = train_drop_one(model, cfg, np.array(inits), group)
    deltas = [_deltas(targets, base_values, theta) for theta in thetas]
    wall_s = (time.perf_counter() - start) / len(group)
    return [
        _Retrain(d, float(gn), bool(gn <= cfg.grad_tol), cfg.epochs, wall_s)
        for d, gn in zip(deltas, grad_norms)
    ]


def _spread(jobs: int, fn, args: tuple, items: list) -> list:
    """[fn(*args, item) for item in items], over jobs processes when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(*args, item) for item in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, *args, item) for item in items]
        return [f.result() for f in futures]


def loo_retrain(
    model: LossModel,
    cfg: TrainConfig,
    objects,
    targets,
    full_result: TrainResult | None = None,
    jobs: int = 1,
    fresh_inits: bool = False,
) -> LooResult:
    """Brute-force leave-one-out: retrain from scratch per dropped object.

    By default every retraining starts from the same initialization as the
    full run, isolating the data's effect; per-object derived seeds cover any
    stochastic schedule, so results do not depend on scheduling order.  With
    fresh_inits each retraining draws its own seeded initialization instead,
    which folds init sensitivity into the ground truth; that is the honest
    protocol for multimodal losses where "retrain from scratch" cannot mean
    "reuse the old starting point".

    When the model batches its drop-one gradients (supports_drop_one_gradients)
    and cfg is full-batch gd or adam, the retrainings run in lockstep groups
    through train_drop_one: one gradient call per epoch for a whole group, and
    each row ends where its own run would, up to rounding.  Groups hold at
    most numkit.BLOCK_ENTRIES // n_objects rows; jobs spreads whole groups (or,
    on the per-retrain path, single retrainings) over processes, so the
    results never depend on jobs.
    """
    ones = PresenceVector.all_ones(model.n_objects)
    init = model.initial_params(cfg.seed)
    if full_result is None:
        full_result = train(model, ones, cfg, init=init)
    if fresh_inits:
        init = None
    base_values = [t.value(full_result.theta) for t in targets]
    objects = object_ids(model, sorted(int(i) for i in objects)).tolist()

    args = (model, cfg, init, base_values, targets)
    lockstep = (
        model.supports_drop_one_gradients
        and cfg.optimizer in ("gd", "adam")
        and cfg.batch_size is None
    )
    if lockstep:
        size = max(1, numkit.BLOCK_ENTRIES // model.n_objects)
        groups = [objects[s : s + size] for s in range(0, len(objects), size)]
        rows = [row for group in _spread(jobs, _loo_lockstep, args, groups) for row in group]
    else:
        groups = []
        rows = _spread(jobs, _loo_one, args, objects)
    return LooResult(
        objects=np.array(objects, dtype=np.int64),
        deltas=np.array([r.deltas for r in rows]).reshape(len(objects), len(targets)),
        grad_norm=np.array([r.grad_norm for r in rows]),
        converged=np.array([r.converged for r in rows], dtype=bool),
        iterations=np.array([r.iterations for r in rows], dtype=np.int64),
        wall_s=np.array([r.wall_s for r in rows]),
        group_rows=np.array([len(g) for g in groups], dtype=np.int64),
    )


@dataclass(frozen=True)
class RepeatResult:
    """Cross-seed agreement of two independent LOO runs."""

    pearson_pooled: float
    pearson_per_test: np.ndarray
    first: LooResult
    second: LooResult


def brute_force_repeat(
    model: LossModel,
    cfg: TrainConfig,
    objects,
    targets,
    seed2: int,
    first: LooResult | None = None,
    jobs: int = 1,
    fresh_inits: bool = False,
) -> RepeatResult:
    """Rerun LOO under a second seed; the correlation between runs is the
    self-agreement ceiling any estimator can be expected to reach."""
    if first is None:
        first = loo_retrain(model, cfg, objects, targets, jobs=jobs, fresh_inits=fresh_inits)
    model2 = model.reseeded(seed2)
    cfg2 = replace(cfg, seed=seed2)
    second = loo_retrain(model2, cfg2, objects, targets, jobs=jobs, fresh_inits=fresh_inits)
    a, c = first.deltas, second.deltas
    per_test = []
    for t in range(a.shape[1]):
        try:
            per_test.append(numkit.pearson(a[:, t], c[:, t]))
        except DegenerateInputError:
            per_test.append(float("nan"))
    return RepeatResult(
        pearson_pooled=numkit.pearson(a.ravel(), c.ravel()),
        pearson_per_test=np.array(per_test),
        first=first,
        second=second,
    )


@dataclass(frozen=True)
class ExperimentReport:
    pearson_r: float
    n_pairs: int
    vif_runtime: float | None
    loo_runtime: float | None
    improvement_ratio: float | None
    config: dict
    package_version: str = __version__


def compare(
    vif: np.ndarray,
    loo: np.ndarray,
    vif_runtime: float | None = None,
    loo_runtime: float | None = None,
    config: dict | None = None,
) -> ExperimentReport:
    """Pearson correlation between VIF scores and LOO ground truth.

    vif and loo are aligned arrays of the same (object, test) cells, NaN where
    a score is missing; only cells where both scores are finite count.  Both
    must be in the influence convention, f(full) - f(drop i), so LOO deltas
    enter negated and identical score arrays correlate at exactly +1.
    """
    vif = np.asarray(vif, dtype=np.float64)
    loo = np.asarray(loo, dtype=np.float64)
    if vif.shape != loo.shape:
        raise ValueError(f"score arrays differ in shape: {vif.shape} != {loo.shape}")
    both = np.isfinite(vif) & np.isfinite(loo)
    n_pairs = int(both.sum())
    if n_pairs < 2:
        raise DegenerateInputError("fewer than two matched (object, test) pairs")
    ratio = None
    if vif_runtime and loo_runtime:
        ratio = loo_runtime / vif_runtime
    return ExperimentReport(
        pearson_r=numkit.pearson(vif[both], loo[both]),
        n_pairs=n_pairs,
        vif_runtime=vif_runtime,
        loo_runtime=loo_runtime,
        improvement_ratio=ratio,
        config=config or {},
    )
