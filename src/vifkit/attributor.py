"""Influence estimators: VIF, finite-difference IF, and the classical IF.

The versatile influence of object i at the trained point theta is

    vif(i) = -[(1/n) H + damping I]^{-1} (grad L(theta, 1) - grad L(theta, 1_-i)),

with H the loss Hessian at full presence and n the number of data objects.
For a decomposable loss this reduces exactly to -n H^{-1} grad l_i at an
optimum, n times the classical per-point influence.  Target attribution
chains scalars f_t through it, and for every object and target at once it is
one matrix expression,

    scores = -D [(1/n) H + damping I]^{-1} G^T,

with D the drop-one gradients (objects x dim) and G the target gradients
(targets x dim): one delta_gradients call and one block solve give the VIF
rows -D [(1/n) H + damping I]^{-1}, and their product with G^T gives the
scores, formed a block of object rows at a time where they are written.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnrealizableMixtureError
from .losscore import (
    DecomposableLoss,
    LossModel,
    PresenceVector,
    TargetFunction,
    object_ids,
)
from .numkit import as_rhs, cg_solve, factor_spd, is_int, is_real, lissa_solve, solve_spd

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

    damping (a real >= 0) is added to the (1/n)-scaled Hessian; it must be
    positive for models that declare themselves non-convex.  CG stops at a
    relative residual of cg_tol (a positive real) or after cg_max_iter
    iterations (None for 10 * dim, else an int >= 1).  LiSSA runs
    lissa_steps (an int >= 1) steps at lissa_scale (None for
    10 * (1 + damping), else a positive real) over an index stream seeded by
    lissa_seed (an int >= 0).  It samples per-unit-term Hessian-vector
    products when the model provides them (supports_per_term_hvp) and runs
    the deterministic full-batch recursion otherwise.  Every field is
    checked here; a bool is not accepted as a number.
    """

    strategy: str = "explicit"
    damping: float = 0.0
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    lissa_steps: int = 100
    lissa_scale: float | None = None
    lissa_seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("explicit", "cg", "lissa"):
            raise ValueError(f"unknown solver strategy {self.strategy!r}")
        cap, scale = self.cg_max_iter, self.lissa_scale
        for name, ok, rule in (
            ("damping", is_real(self.damping) and self.damping >= 0, "a real >= 0"),
            ("cg_tol", is_real(self.cg_tol) and self.cg_tol > 0, "a positive real"),
            ("cg_max_iter", cap is None or is_int(cap) and cap >= 1, "null or an int >= 1"),
            ("lissa_steps", is_int(self.lissa_steps) and self.lissa_steps >= 1, "an int >= 1"),
            ("lissa_scale", scale is None or is_real(scale) and scale > 0, "null or a positive real"),
            ("lissa_seed", is_int(self.lissa_seed) and self.lissa_seed >= 0, "an int >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


class HessianContext:
    """One assembled (1/n) Hessian at full presence, reused across objects.

    assembly_count tracks how many times the dense Hessian was built; a full
    attribution pass performs exactly one assembly, or none when LiSSA
    samples per-term products (h_norm is then None).  The explicit strategy
    also checks the damped Hessian and picks its solver path here, once,
    and logs a warning when that path is LU (not positive definite).
    solve takes a vector or a (dim, k) block of right-hand sides; CG runs
    are recorded so that details() can report them.
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
        self._cg_runs: list[tuple[int, float, bool]] = []

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

        self._lissa_term_mode = solver.strategy == "lissa" and model.supports_per_term_hvp
        self.h_norm = None if self._lissa_term_mode else self._assemble()
        self._factor = (
            factor_spd(self.h_norm, solver.damping) if solver.strategy == "explicit" else None
        )
        if self.path == "lu":
            log.warning("damped Hessian is not positive definite; solved by LU")

    def _assemble(self):
        h = self.model.hessian(self.theta, self.ones) / self.n
        self.assembly_count += 1
        return h

    @property
    def path(self) -> str:
        """Solver path: cholesky or lu (explicit strategy), cg or lissa."""
        return self._factor.path if self._factor is not None else self.solver.strategy

    @property
    def lissa_scale(self) -> float:
        """The LiSSA scale in effect: lissa_scale, or 10 * (1 + damping) by default."""
        s = self.solver
        return s.lissa_scale if s.lissa_scale is not None else 10.0 * (1.0 + s.damping)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """X with [(1/n) H + damping I] X = rhs under the chosen strategy.

        rhs is a vector or a (dim, k) block.  The explicit strategy takes one
        block solve, CG one run per column, and LiSSA one recursion over the
        block with the seeded index stream of a single-column run.
        """
        s = self.solver
        if s.strategy == "explicit":
            return solve_spd(self._factor, rhs)
        if s.strategy == "cg":
            return self._cg(rhs)
        if self._lissa_term_mode:
            model, theta, ones = self.model, self.theta, self.ones
            # a per-term product may make an (objects x columns) temporary
            n_terms, rows = model.num_terms(ones), self.n
            factor = n_terms / self.n

            def sample(j, v):
                return factor * model.per_term_hvp(j, theta, ones, v)

        else:
            h, n_terms, rows = self.h_norm, 1, None

            def sample(j, v):
                return h @ v

        return lissa_solve(
            sample, s.lissa_steps, self.lissa_scale, s.damping, rhs, s.lissa_seed, n_terms, rows
        )

    def _cg(self, rhs: np.ndarray) -> np.ndarray:
        """One CG run per column; (iterations, relative residual, converged) recorded."""
        s, h = self.solver, self.h_norm
        rhs = as_rhs(rhs)
        b = rhs.reshape(rhs.shape[0], -1)
        x = np.empty_like(b)
        runs = []
        for c, col in enumerate(b.T):
            res = cg_solve(lambda v: h @ v, col, s.damping, s.cg_tol, s.cg_max_iter)
            x[:, c] = res.x
            norm = float(np.linalg.norm(col))
            runs.append((res.iterations, res.residual_norm / norm if norm else 0.0, res.converged))
        self._cg_runs += runs
        stopped = [run for run in runs if not run[2]]
        if stopped:
            log.warning(
                "CG stopped short of cg_tol on %d of %d columns: worst relative "
                "residual %.3e, up to %d iterations",
                len(stopped),
                len(runs),
                max(run[1] for run in stopped),
                max(run[0] for run in stopped),
            )
        return x.reshape(rhs.shape)

    def details(self) -> dict:
        """Strategy settings and outcomes for the run record.

        LiSSA: its steps, the scale in effect, seed and mode (per_term or
        full_batch).  CG: over every column solved so far, the largest
        iteration count, the worst relative residual and the converged count.
        The explicit strategy returns {}: its path says all there is.
        """
        s = self.solver
        if s.strategy == "lissa":
            mode = "per_term" if self._lissa_term_mode else "full_batch"
            return {"lissa": {"steps": s.lissa_steps, "scale": self.lissa_scale,
                              "seed": s.lissa_seed, "mode": mode}}
        if s.strategy == "cg":
            runs = self._cg_runs
            return {"cg": {
                "max_iterations": max((run[0] for run in runs), default=0),
                "worst_relative_residual": max((run[1] for run in runs), default=0.0),
                "n_converged": sum(run[2] for run in runs),
            }}
        return {}

    def vif(self, i: int) -> np.ndarray:
        """Versatile influence of object i: the one-column case of the block solve."""
        ids = object_ids(self.model, [i])
        return -self.solve(self.model.delta_gradients(self.theta, ids).T)[:, 0]


def classical_if(model, theta: np.ndarray, i: int) -> np.ndarray:
    """Classical per-point influence -[H_D]^{-1} grad l_i for decomposable losses.

    Uses the unnormalized Hessian of the summed loss; the versatile influence
    of the same object equals n times this direction at an optimum.
    """
    if not isinstance(model, DecomposableLoss):
        raise TypeError("classical_if requires a decomposable loss")
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    h = model.hessian(theta, PresenceVector.all_ones(model.n_objects))
    return -solve_spd(factor_spd(h), model.point_gradients(theta)[object_ids(model, [i])[0]])


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
    if isinstance(q, (PointMass, DropOne)):
        i = object_ids(model, [q.index])[0]

    if isinstance(model, DecomposableLoss):
        grads = model.point_gradients(theta)
        w_p = np.full(n, 1.0 / n)
        if q is None:
            w_q = w_p
        elif isinstance(q, PointMass):
            w_q = np.zeros(n)
            w_q[i] = 1.0
        elif isinstance(q, DropOne):
            if eps != 1:
                raise UnrealizableMixtureError("DropOne mixtures require eps = 1")
            w_q = np.full(n, 1.0 / (n - 1))
            w_q[i] = 0.0
        else:
            raise TypeError(f"unsupported perturbation {q!r}")
        w_mix = (1.0 - eps) * w_p + eps * w_q
        diff = (w_mix - w_p) @ grads / eps
        h_p = model.hessian(theta, ones) / n
        return -solve_spd(factor_spd(h_p, damping), diff)

    if not isinstance(q, DropOne) or eps != 1:
        raise UnrealizableMixtureError(
            "non-decomposable losses only realize DropOne at eps = 1"
        )
    diff = -model.delta_gradients(theta, [i])[0]  # grad L(1_-i) - grad L(1)
    h_norm = model.hessian(theta, ones) / n
    # damping is specified against the (1/n)-scaled Hessian everywhere
    return -solve_spd(factor_spd(h_norm, damping), diff) / n


@dataclass(frozen=True, eq=False)
class Attribution:
    """Influence of objects (rows) on targets (columns), kept in factored form.

    vif[r] is the versatile influence of objects[r] (HessianContext.vif) and
    target_gradients[t] is grad f_t(theta), so the score of object r on
    target t is their dot product.  The (objects x targets) scores are never
    stored: self[lo:hi] forms the score rows lo..hi-1 from those rows of vif
    alone, and scores forms every row.  grad_norm is the loss gradient norm
    at theta and solver the path the inverse-Hessian solves took: cholesky,
    lu, cg or lissa.  details holds HessianContext.details().

    self[lo:hi], which is what influences.csv holds, can differ in the last
    bit from the same rows of scores: BLAS forms a one-row block with gemv,
    and gemm blocks some row counts differently once dim is about 40 or
    more.  Each is deterministic, so reruns give the same bytes.
    """

    objects: np.ndarray
    vif: np.ndarray
    target_gradients: np.ndarray
    grad_norm: float
    solver: str
    details: dict

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.vif[rows] @ self.target_gradients.T

    @property
    def scores(self) -> np.ndarray:
        """The (objects x targets) score matrix, formed anew on each access."""
        return self[:]


def attribute_target(
    model: LossModel,
    theta: np.ndarray,
    targets: Sequence[TargetFunction] | TargetFunction,
    objects: Sequence[int],
    solver: HessianSolver | None = None,
) -> Attribution:
    """Influence scores -D [(1/n) H + damping I]^{-1} G^T for every (object, target) pair.

    Row r of D is the drop-one gradient of objects[r], from one
    delta_gradients call, and row t of G is grad f_t(theta).  The Hessian is
    assembled and checked once, then one block solve of D^T, whose columns
    are the objects' own solves, gives the VIF rows.  The result holds them
    with G; the scores are their product, formed when they are read.
    """
    if isinstance(targets, TargetFunction):
        targets = [targets]
    ids = object_ids(model, objects)
    context = HessianContext(model, theta, solver or HessianSolver())
    d = model.delta_gradients(context.theta, ids)
    g = np.array([t.gradient(context.theta) for t in targets]).reshape(len(targets), model.dim)
    vif = -context.solve(d.T).T
    return Attribution(ids, vif, g, context.grad_norm, context.path, context.details())
