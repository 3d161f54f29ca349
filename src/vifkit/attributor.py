"""Influence estimators: VIF, finite-difference IF, and the classical IF.

The versatile influence of object i at the trained point theta is

    vif(i) = -[(1/n) H + damping I]^{-1} (grad L(theta, 1) - grad L(theta, 1_-i)),

with H the loss Hessian at full presence and n the number of data objects.
For a decomposable loss this reduces exactly to -n H^{-1} grad l_i at an
optimum, n times the classical per-point influence; target attribution
chains a scalar f through it as grad f . vif(i).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnrealizableMixtureError
from .losscore import DecomposableLoss, LossModel, PresenceVector, TargetFunction
from .numkit import cg_solve, factor_spd, lissa_solve, solve_spd

log = logging.getLogger("vifkit.attributor")

GRAD_NORM_WARN = 1e-3


class PointMass(NamedTuple):
    """Perturbation toward the point mass at object i."""

    index: int


class DropOne(NamedTuple):
    """Perturbation toward the empirical distribution without object i."""

    index: int


@dataclass(frozen=True)
class HessianSolver:
    """Inverse-Hessian strategy: explicit factorization, CG, or LiSSA.

    damping is added to the (1/n)-scaled Hessian; it must be positive for
    models that declare themselves non-convex.  LiSSA samples per-unit-term
    Hessian-vector products when the model provides them and falls back to
    the deterministic full-batch recursion otherwise (lissa_batch forces
    either mode).  lissa_scale defaults to 10 * (1 + damping).
    """

    strategy: str = "explicit"
    damping: float = 0.0
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    lissa_steps: int = 100
    lissa_scale: float | None = None
    lissa_batch: str = "auto"
    lissa_seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("explicit", "cg", "lissa"):
            raise ValueError(f"unknown solver strategy {self.strategy!r}")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.lissa_batch not in ("auto", "full", "term"):
            raise ValueError("lissa_batch must be auto, full, or term")


class HessianContext:
    """One assembled (1/n) Hessian at full presence, reused across objects.

    assembly_count tracks how many times the dense Hessian was built; a full
    attribution pass performs exactly one assembly.  The explicit strategy
    also checks the damped Hessian and picks its solver path here, once.
    """

    def __init__(self, model: LossModel, theta: np.ndarray, solver: HessianSolver):
        if not model.is_convex and solver.damping <= 0:
            raise ValueError("non-convex model requires positive damping")
        self.model = model
        self.theta = np.ascontiguousarray(theta, dtype=np.float64)
        self.solver = solver
        self.n = model.n_objects
        self.ones = PresenceVector.all_ones(self.n)
        self.assembly_count = 0
        self._factor = None
        self._h_norm = None

        grad_norm = float(np.linalg.norm(model.gradient(self.theta, self.ones)))
        self.grad_norm = grad_norm
        threshold = GRAD_NORM_WARN * np.sqrt(model.dim)
        if grad_norm > threshold:
            log.warning(
                "gradient norm %.3e at the attribution point exceeds %.3e; "
                "influence estimates assume approximate stationarity",
                grad_norm,
                threshold,
            )

        use_term = (
            solver.strategy == "lissa"
            and solver.lissa_batch in ("auto", "term")
            and model.supports_per_term_hvp
        )
        if solver.lissa_batch == "term" and not model.supports_per_term_hvp:
            raise ValueError("lissa_batch='term' needs per-term Hessian products")
        self._lissa_term_mode = use_term
        if solver.strategy != "lissa" or not use_term:
            self._h_norm = self._assemble()
        if solver.strategy == "explicit":
            self._factor = factor_spd(self._h_norm, solver.damping)

    def _assemble(self):
        h = self.model.hessian(self.theta, self.ones) / self.n
        self.assembly_count += 1
        return h

    @property
    def path(self) -> str:
        """Solver path: cholesky or lu (explicit strategy), cg or lissa."""
        return self._factor.path if self._factor is not None else self.solver.strategy

    @property
    def h_norm(self):
        if self._h_norm is None:
            self._h_norm = self._assemble()
        return self._h_norm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with [(1/n) H + damping I] x = rhs under the chosen strategy."""
        s = self.solver
        if s.strategy == "explicit":
            return solve_spd(self._factor, rhs)
        if s.strategy == "cg":
            h = self.h_norm
            res = cg_solve(
                lambda v: h @ v,
                rhs,
                damping=s.damping,
                tol=s.cg_tol,
                max_iter=s.cg_max_iter,
            )
            if not res.converged:
                log.warning(
                    "CG stopped at iteration %d with residual %.3e",
                    res.iterations,
                    res.residual_norm,
                )
            return res.x
        scale = s.lissa_scale if s.lissa_scale is not None else 10.0 * (1.0 + s.damping)
        if self._lissa_term_mode:
            n_terms = self.model.num_terms(self.ones)
            factor = n_terms / self.n

            def sample(j, v):
                return factor * self.model.per_term_hvp(j, self.theta, self.ones, v)

            return lissa_solve(
                sample, s.lissa_steps, scale, s.damping, rhs, s.lissa_seed, n_terms
            )
        h = self.h_norm
        return lissa_solve(
            lambda j, v: h @ v, s.lissa_steps, scale, s.damping, rhs, s.lissa_seed, 1
        )


def vif_params(
    model: LossModel,
    theta: np.ndarray,
    i: int,
    solver: HessianSolver | None = None,
    context: HessianContext | None = None,
) -> np.ndarray:
    """Versatile influence of object i on the parameters at theta."""
    if context is None:
        context = HessianContext(model, theta, solver or HessianSolver())
    return -context.solve(model.delta_gradient(context.theta, i))


def classical_if(model, theta: np.ndarray, i: int) -> np.ndarray:
    """Classical per-point influence -[H_D]^{-1} grad l_i for decomposable losses.

    Uses the unnormalized Hessian of the summed loss; the versatile influence
    of the same object equals n times this direction at an optimum.
    """
    if not isinstance(model, DecomposableLoss):
        raise TypeError("classical_if requires a decomposable loss")
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    h = model.hessian(theta, PresenceVector.all_ones(model.n_objects))
    return -solve_spd(h, model.point_gradient(theta, i))


def finite_difference_if(
    model: LossModel,
    theta: np.ndarray,
    q,
    eps: float,
    solver: HessianSolver | None = None,
) -> np.ndarray:
    """Finite-difference influence -H_P^{-1} [grad_mix - grad_P] / eps.

    For a decomposable loss the perturbation is evaluated as a reweighted
    mean loss: P carries weight 1/n per point, PointMass(i) puts weight 1 on
    point i, DropOne(i) weight 1/(n-1) off i (requires eps = 1), and q=None
    leaves P unchanged.  At eps = -1/(n-1) a PointMass step reproduces the
    exact deletion influence; scaling a DropOne step by -(n-1) agrees with it.

    A non-decomposable loss realizes only DropOne at eps = 1, evaluated on
    the presence-masked loss itself; anything else raises
    UnrealizableMixtureError.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero")
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    n = model.n_objects
    ones = PresenceVector.all_ones(n)
    damping = solver.damping if solver is not None else 0.0

    if isinstance(model, DecomposableLoss):
        grads = model.point_gradients(theta)
        w_p = np.full(n, 1.0 / n)
        if q is None:
            w_q = w_p
        elif isinstance(q, PointMass):
            w_q = np.zeros(n)
            w_q[q.index] = 1.0
        elif isinstance(q, DropOne):
            if eps != 1:
                raise UnrealizableMixtureError("DropOne mixtures require eps = 1")
            w_q = np.full(n, 1.0 / (n - 1))
            w_q[q.index] = 0.0
        else:
            raise TypeError(f"unsupported perturbation {q!r}")
        w_mix = (1.0 - eps) * w_p + eps * w_q
        diff = (w_mix - w_p) @ grads / eps
        h_p = model.hessian(theta, ones) / n
        return -solve_spd(h_p, diff, damping=damping)

    if not isinstance(q, DropOne) or eps != 1:
        raise UnrealizableMixtureError(
            "non-decomposable losses only realize DropOne at eps = 1"
        )
    diff = -model.delta_gradient(theta, q.index)  # grad L(1_-i) - grad L(1)
    h_norm = model.hessian(theta, ones) / n
    # damping is specified against the (1/n)-scaled Hessian everywhere
    return -solve_spd(h_norm, diff, damping=damping) / n


@dataclass(frozen=True, eq=False)
class Attribution:
    """Influence scores of objects (rows) on targets (columns).

    scores[r, t] = grad f_t(theta) . vif(objects[r]).  grad_norm is the loss
    gradient norm at theta and solver the path the inverse-Hessian solves
    took: cholesky, lu, cg or lissa.
    """

    objects: np.ndarray
    scores: np.ndarray
    grad_norm: float
    solver: str


def attribute_target(
    model: LossModel,
    theta: np.ndarray,
    targets: Sequence[TargetFunction] | TargetFunction,
    objects: Sequence[int],
    solver: HessianSolver | None = None,
) -> Attribution:
    """Chain-rule influence scores V G^T for every (object, target) pair.

    Row r of V is vif(objects[r]) and row t of G is grad f_t(theta).  The
    Hessian is assembled and checked once; each object costs one solve,
    and the scores are one matrix product.
    """
    if isinstance(targets, TargetFunction):
        targets = [targets]
    context = HessianContext(model, theta, solver or HessianSolver())
    ids = np.array(objects, dtype=np.int64)
    v = np.empty((ids.size, model.dim))
    for row, i in enumerate(ids.tolist()):
        v[row] = vif_params(model, context.theta, i, context=context)
    g = np.empty((len(targets), model.dim))
    for t, target in enumerate(targets):
        g[t] = target.gradient(context.theta)
    return Attribution(ids, v @ g.T, context.grad_norm, context.path)
