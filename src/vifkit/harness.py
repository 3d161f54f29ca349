"""Experiment harness: brute-force leave-one-out and comparison.

The leave-one-out oracle retrains from scratch per dropped object under the
same configuration (in lockstep groups where the model batches its drop-one
gradients), collects each retraining's or group's rows as a LooResult block
and returns their concatenation, with the objects x targets matrix of deltas
f(theta_-i) - f(theta_full); compare() correlates the negated deltas against
the chain-rule influence score matrix, Table-style, and tracks attribution
wall time on both sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .errors import DegenerateInputError
from .losscore import (
    LossModel,
    PresenceVector,
    TrainConfig,
    TrainResult,
    derive_seed,
    object_ids,
    train,
    train_drop_one,
)
from . import numkit


@dataclass(frozen=True, eq=False)
class LooResult:
    """Leave-one-out retrainings of objects (ascending ids), one row each.

    deltas[r, t] = f_t(theta_-objects[r]) - f_t(theta_full); grad_norm,
    converged, iterations and wall_s hold each retraining's final gradient
    norm, whether it met the training grad_tol, its optimizer steps and its
    wall time in seconds (in lockstep, its group's wall time split evenly
    over the group's rows).  group_rows holds the row count of each lockstep
    group in order, and is empty when every object retrained on its own.
    Each retraining, or lockstep group, returns its rows as one of these.
    """

    objects: np.ndarray
    deltas: np.ndarray
    grad_norm: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    wall_s: np.ndarray
    group_rows: np.ndarray


def _block(objects, deltas, grad_norm, converged, iterations, wall_s, group_rows=()):
    """A LooResult of rows with every field at its dtype; deltas is (rows, targets)."""
    return LooResult(
        np.array(objects, dtype=np.int64),
        deltas,
        np.array(grad_norm, dtype=float),
        np.array(converged, dtype=bool),
        np.array(iterations, dtype=np.int64),
        np.array(wall_s, dtype=float),
        np.array(group_rows, dtype=np.int64),
    )


def _deltas(targets, base_values, thetas) -> np.ndarray:
    """f_t(thetas[r]) - f_t(theta_full), (rows, targets), one values call per target."""
    deltas = np.empty((len(thetas), len(targets)))
    for k, (t, base) in enumerate(zip(targets, base_values)):
        deltas[:, k] = t.values(thetas) - base
    return deltas


def _start(model, cfg, init, i) -> np.ndarray:
    """Where the retraining without object i starts: init, else its own seeded draw."""
    return model.initial_params(derive_seed(cfg.seed, i)) if init is None else init


def _loo_one(model, cfg, init, base_values, targets, i) -> LooResult:
    """The retraining without object i, as a block of one row."""
    start = time.perf_counter()
    b = PresenceVector.all_ones(model.n_objects).without(i)
    cfg_i = replace(cfg, seed=derive_seed(cfg.seed, i))
    res = train(model, b, cfg_i, init=_start(model, cfg, init, i))
    deltas = _deltas(targets, base_values, res.theta[None])
    wall_s = time.perf_counter() - start
    return _block([i], deltas, [res.grad_norm], [res.converged], [res.iterations], [wall_s])


def _loo_lockstep(model, cfg, init, base_values, targets, group) -> LooResult:
    """The retrainings without each object of group, run in lockstep, as one block."""
    start = time.perf_counter()
    inits = np.array([_start(model, cfg, init, i) for i in group])
    thetas, grad_norms = train_drop_one(model, cfg, inits, group)
    deltas = _deltas(targets, base_values, thetas)
    n = len(group)
    wall_s = (time.perf_counter() - start) / n
    return _block(group, deltas, grad_norms, grad_norms <= cfg.grad_tol, [cfg.epochs] * n,
                  [wall_s] * n, [n])


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
    most numkit.BLOCK_ENTRIES // n_objects rows.  Each group, or on the
    per-retrain path each retraining, returns its rows as a LooResult block,
    and the result is the blocks concatenated in object order; jobs spreads
    the blocks over processes, so the results never depend on jobs.
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
        blocks = _spread(jobs, _loo_lockstep, args, groups)
    else:
        blocks = _spread(jobs, _loo_one, args, objects)
    # the empty block gives the result its shapes and dtypes when there are no objects
    blocks.insert(0, _block([], np.empty((0, len(targets))), [], [], [], []))
    return LooResult(
        **{f.name: np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(LooResult)}
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
