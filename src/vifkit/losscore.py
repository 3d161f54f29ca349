"""Presence-masked loss models, targets, and deterministic training.

A loss L(theta, b) maps parameters plus a boolean presence vector b over the
data objects to a scalar; b_i = 0 means object i is excluded.  Everything
downstream (attribution, leave-one-out retraining) is phrased against this
interface, so a model only has to get value/gradient/hessian right under
masking to participate.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, SingularMatrixError
from .numkit import factor_spd, is_int, is_real, require_finite, solve_spd
from .pcg64 import generate_state

log = logging.getLogger("vifkit.losscore")


def derive_seed(master: int, *keys: int) -> int:
    """Stable per-key child seed, independent of scheduling order: numpy's
    SeedSequence([master, *keys]).generate_state(1, np.uint64)[0], taken
    from `pcg64` so that deriving a seed loads neither numpy.random nor
    OpenSSL.  A negative master or key is a ValueError."""
    lo, hi = generate_state([master, *keys], 2)
    return lo | hi << 32


class PresenceVector:
    """Immutable boolean mask over the n data objects."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValueError("presence vector must be 1-d and non-empty")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PresenceVector is immutable")

    @classmethod
    def all_ones(cls, n: int) -> "PresenceVector":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def drop(cls, n: int, i: int) -> "PresenceVector":
        return cls.all_ones(n).without(i)

    def without(self, i: int) -> "PresenceVector":
        if not 0 <= i < self.n:
            raise ValueError(f"object id {i} is outside [0, {self.n})")
        if not self.bits[i]:
            raise ValueError(f"object {i} is already absent")
        bits = self.bits.copy()
        bits[i] = False
        return PresenceVector(bits)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    @property
    def is_full(self) -> bool:
        return bool(self.bits.all())

    def present_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def key(self) -> tuple:
        """Canonical encoding: the tuple of present object ids."""
        return tuple(int(i) for i in np.flatnonzero(self.bits))

    def __eq__(self, other):
        return isinstance(other, PresenceVector) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.n, self.key()))

    def __repr__(self):
        return f"PresenceVector(n={self.n}, present={self.count})"


def presence_cached(cache: dict, b: PresenceVector, build):
    """cache[b.bits.tobytes()], from build(b) on a miss.  The cache keeps the
    full-presence entry plus the most recent other one."""
    key = b.bits.tobytes()
    if key not in cache:
        if not b.is_full:
            full = PresenceVector.all_ones(b.n).bits.tobytes()
            for stale in [k for k in cache if k != full]:
                del cache[stale]
        cache[key] = build(b)
    return cache[key]


class TargetFunction(abc.ABC):
    """Differentiable scalar function of the parameters, f(theta)."""

    @abc.abstractmethod
    def value(self, theta: np.ndarray) -> float: ...

    @abc.abstractmethod
    def gradient(self, theta: np.ndarray) -> np.ndarray: ...


class LossModel(abc.ABC):
    """Presence-masked loss over n_objects data objects.

    Subclasses must keep the parameter dimension fixed for every b: absent
    objects' parameters (if any) are frozen, never removed.
    """

    is_convex: bool = True

    @property
    @abc.abstractmethod
    def n_objects(self) -> int: ...

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @property
    def layout(self) -> dict:
        return {"theta": (0, self.dim)}

    @abc.abstractmethod
    def value(self, theta: np.ndarray, b: PresenceVector) -> float: ...

    @abc.abstractmethod
    def gradient(self, theta: np.ndarray, b: PresenceVector) -> np.ndarray: ...

    @abc.abstractmethod
    def hessian(self, theta: np.ndarray, b: PresenceVector) -> np.ndarray: ...

    def num_terms(self, b: PresenceVector) -> int:
        """Unit loss terms available to per-term samplers; 1 if monolithic."""
        return 1

    @property
    def supports_per_term_hvp(self) -> bool:
        return type(self).per_term_hvp is not LossModel.per_term_hvp

    def per_term_hvp(
        self, j: int, theta: np.ndarray, b: PresenceVector, v: np.ndarray
    ) -> np.ndarray:
        """Hessian product of unit term j (unscaled, undamped) with a vector
        or a (dim, k) block of columns."""
        raise NotImplementedError(f"{type(self).__name__} has no per-term Hessian")

    @property
    def supports_term_gradients(self) -> bool:
        return type(self).term_gradient_sum is not LossModel.term_gradient_sum

    def term_gradient_sum(
        self, theta: np.ndarray, b: PresenceVector, idx: np.ndarray
    ) -> np.ndarray:
        """Gradient summed over the unit terms in idx, for minibatch training."""
        raise NotImplementedError(f"{type(self).__name__} has no per-term gradients")

    @property
    def supports_drop_one_gradients(self) -> bool:
        return type(self).drop_one_gradients is not LossModel.drop_one_gradients

    def drop_one_gradients(self, thetas: np.ndarray, ids) -> np.ndarray:
        """(len(ids), dim): row r is grad L(thetas[r], 1 without ids[r]).

        The default takes one gradient per row; a model that evaluates the
        rows in one batch overrides it, and leave-one-out retraining then
        trains the rows in lockstep (see train_drop_one).
        """
        ones = PresenceVector.all_ones(self.n_objects)
        rows = [self.gradient(t, ones.without(int(i))) for t, i in zip(thetas, ids)]
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.dim)

    def delta_gradients(self, theta: np.ndarray, ids) -> np.ndarray:
        """The drop-one matrix D, (len(ids), dim): row r is
        grad L(theta, 1) - grad L(theta, 1 without ids[r]).

        The default subtracts the drop-one gradients at theta from one
        full-presence gradient; models with exploitable term cancellation
        override it.
        """
        ids = list(ids)
        full = self.gradient(theta, PresenceVector.all_ones(self.n_objects))
        return full - self.drop_one_gradients(np.broadcast_to(theta, (len(ids), self.dim)), ids)

    def initial_params(self, seed: int) -> np.ndarray:
        return np.zeros(self.dim)

    def reseeded(self, seed: int) -> "LossModel":
        """Clone with fresh internal randomness; identity for deterministic losses."""
        return self


class DecomposableLoss(abc.ABC):
    """Capability mixin: the loss is a sum of independent per-object terms."""

    @abc.abstractmethod
    def point_gradients(self, theta: np.ndarray) -> np.ndarray:
        """Per-object gradients grad l_i(theta), one row per object, (n, dim)."""


def object_ids(model: LossModel, objects) -> np.ndarray:
    """objects as int64 ids, each in [0, n_objects): a negative id would alias another."""
    ids = np.array(objects, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= model.n_objects)]
    if bad.size:
        raise ValueError(f"object id {int(bad[0])} is outside [0, {model.n_objects})")
    return ids


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "newton"
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int | None = None
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("newton", "gd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        lr, batch = self.learning_rate, self.batch_size
        for name, ok, rule in (
            ("learning_rate", is_real(lr) and lr > 0, "a positive real"),
            ("epochs", is_int(self.epochs) and self.epochs >= 1, "an int >= 1"),
            ("batch_size", batch is None or is_int(batch) and batch >= 1, "null or an int >= 1"),
            ("grad_tol", is_real(self.grad_tol) and self.grad_tol > 0, "a positive real"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class TrainResult:
    theta: np.ndarray
    grad_norm: float
    converged: bool
    iterations: int
    loss: float


def train(
    model: LossModel,
    b: PresenceVector,
    cfg: TrainConfig,
    init: np.ndarray | None = None,
) -> TrainResult:
    """Minimize L(theta, b) deterministically.

    Newton stops at |grad| <= grad_tol; gd/adam run for cfg.epochs and report
    the final gradient norm, with converged flagging whether it met grad_tol.
    """
    theta = np.array(
        model.initial_params(cfg.seed) if init is None else init, dtype=np.float64
    )
    if theta.shape != (model.dim,):
        raise ValueError(f"init has shape {theta.shape}, expected ({model.dim},)")

    if cfg.optimizer == "newton":
        return _train_newton(model, b, cfg, theta)

    n_terms = None
    if cfg.batch_size is not None:
        if not model.supports_term_gradients:
            raise ValueError(f"batch_size set but {type(model).__name__} has no per-term gradients")
        n_terms = model.num_terms(b)
        if n_terms < 1:
            raise ValueError("batch_size set but b holds no unit terms")

    def gradient(theta, batch):
        if batch is None:
            return model.gradient(theta, b)
        return model.term_gradient_sum(theta, b, batch) * (n_terms / batch.size)

    theta = _train_first_order(cfg, theta, gradient, n_terms)
    loss = model.value(theta, b)
    if not np.isfinite(loss):
        raise NonFiniteError("objective is non-finite after training")
    gn = float(np.linalg.norm(model.gradient(theta, b)))
    return TrainResult(
        theta=theta,
        grad_norm=gn,
        converged=bool(gn <= cfg.grad_tol),
        iterations=cfg.epochs,
        loss=float(loss),
    )


def train_drop_one(
    model: LossModel, cfg: TrainConfig, thetas: np.ndarray, ids
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out retrainings in lockstep, by full-batch gd or Adam.

    Row r of the (len(ids), dim) block thetas starts the retraining that
    minimizes L(theta, 1 without ids[r]).  Every step takes all rows'
    gradients from one drop_one_gradients call, and the update is
    elementwise, so each row ends where train would leave it alone, up to
    the rounding of the batched gradient.  Returns the trained block and
    each row's final gradient norm.
    """
    if cfg.optimizer == "newton" or cfg.batch_size is not None:
        raise ValueError("lockstep training takes full-batch gd or adam")
    ids = object_ids(model, ids)
    thetas = np.array(thetas, dtype=np.float64)
    if thetas.shape != (ids.size, model.dim):
        raise ValueError(f"thetas has shape {thetas.shape}, expected ({ids.size}, {model.dim})")
    thetas = _train_first_order(cfg, thetas, lambda th, _: model.drop_one_gradients(th, ids))
    g = model.drop_one_gradients(thetas, ids)
    require_finite(g, what="gradient after training")
    return thetas, np.linalg.norm(g, axis=1)


def _train_newton(model, b, cfg, theta):
    loss = model.value(theta, b)
    if not np.isfinite(loss):
        raise NonFiniteError("objective is non-finite at the initial point")
    g = model.gradient(theta, b)
    gn = float(np.linalg.norm(g))
    it = 0
    while gn > cfg.grad_tol and it < cfg.epochs:
        step = _newton_step(model.hessian(theta, b), g)
        # Armijo backtracking keeps the iteration safe far from the optimum
        t = 1.0
        descent = float(g @ step)
        while t > 1e-10:
            cand = theta - t * step
            cand_loss = model.value(cand, b)
            if np.isfinite(cand_loss) and cand_loss <= loss - 1e-4 * t * descent:
                break
            t *= 0.5
        else:
            break
        theta, loss = cand, cand_loss
        g = model.gradient(theta, b)
        require_finite(g, what="gradient during Newton")
        gn = float(np.linalg.norm(g))
        it += 1
    return TrainResult(
        theta=theta,
        grad_norm=gn,
        converged=bool(gn <= cfg.grad_tol),
        iterations=it,
        loss=float(loss),
    )


def _newton_step(h, g):
    damping = 0.0
    scale = max(np.abs(np.diag(h)).max(), 1.0)
    for _ in range(20):
        try:
            step = solve_spd(factor_spd(h, damping), g)
        except SingularMatrixError:
            damping = 1e-10 * scale if damping == 0.0 else damping * 100.0
            continue
        if step @ g > 0:
            return step
        damping = 1e-10 * scale if damping == 0.0 else damping * 100.0
    raise SingularMatrixError("could not produce a descent direction")


def _train_first_order(cfg, theta, gradient, n_terms=None):
    """cfg.epochs of gd or Adam from theta, one (dim,) row or a (rows, dim) block.

    The update is elementwise, so each row of a block follows the trajectory
    it would follow alone.  gradient(theta, batch) is one step's gradient,
    with batch None for a full-batch step; given n_terms, each epoch instead
    visits a seeded permutation of the unit terms in batches of
    cfg.batch_size.  Returns the final theta.
    """
    if n_terms is not None:  # full-batch runs draw nothing, so skip numpy.random
        rng = np.random.default_rng(derive_seed(cfg.seed, 0xBA7C4))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0

    for _ in range(cfg.epochs):
        if n_terms is None:
            batches = [None]
        else:
            order = rng.permutation(n_terms)
            batches = [
                order[s : s + cfg.batch_size]
                for s in range(0, n_terms, cfg.batch_size)
            ]
        for batch in batches:
            g = gradient(theta, batch)
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(
                    "non-finite gradient during training (learning rate too high?)"
                )
            step_count += 1
            if cfg.optimizer == "gd":
                theta = theta - cfg.learning_rate * g
            else:
                m = beta1 * m + (1 - beta1) * g
                v = beta2 * v + (1 - beta2) * g * g
                mhat = m / (1 - beta1**step_count)
                vhat = v / (1 - beta2**step_count)
                theta = theta - cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
    return theta


def _difference_error(exact: np.ndarray, f, theta: np.ndarray, h: float) -> float:
    """Max abs deviation of exact from the central differences of f, relative
    to exact's max magnitude (floored at 1e-8).  Entry j of the last axis
    differences f at theta +- h e_j."""
    fd = np.empty_like(exact)
    for j in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[j] = h
        fd[..., j] = (f(theta + e) - f(theta - e)) / (2 * h)
    return float(np.abs(exact - fd).max() / (float(np.abs(exact).max()) + 1e-8))


def check_gradient(
    model: LossModel, theta: np.ndarray, b: PresenceVector, h: float = 1e-5
) -> float:
    """Max abs deviation between analytic and central-difference gradient,
    relative to the gradient's max magnitude (floored at 1e-8)."""
    theta = np.asarray(theta, dtype=np.float64)
    return _difference_error(model.gradient(theta, b), lambda t: model.value(t, b), theta, h)


def check_hessian(
    model: LossModel, theta: np.ndarray, b: PresenceVector, h: float = 1e-5
) -> float:
    """Same as check_gradient but for the Hessian, differencing the gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    return _difference_error(model.hessian(theta, b), lambda t: model.gradient(t, b), theta, h)
