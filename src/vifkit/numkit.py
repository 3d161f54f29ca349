"""Dense numerical kernels: block SPD solves, conjugate gradient, LiSSA, Pearson r.

Vectors and matrices are plain float64 numpy arrays throughout; the helpers
here validate shape, dtype and finiteness at the boundaries so the callers
can stay terse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateInputError,
    DivergedError,
    NonFiniteError,
    SingularMatrixError,
)
from .pcg64 import PCG64

DenseVector = np.ndarray
DenseMatrix = np.ndarray

COND_LIMIT = 1e14
RESIDUAL_RTOL = 1e-8
SYMMETRY_RTOL = 1e-10
# Entries of the largest temporary in one blocked computation (1 MiB of
# float64): a LiSSA chunk, which replays the index stream so a block of any
# width runs in this bound, and a lockstep leave-one-out group's
# (n_objects, rows) drop-one gradient block.
BLOCK_ENTRIES = 2**17


def as_vector(x) -> DenseVector:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    require_finite(v, what="vector")
    return v


def as_matrix(a) -> DenseMatrix:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    require_finite(m, what="matrix")
    return m


def as_rhs(x) -> np.ndarray:
    """Right-hand sides: a finite vector or a (dim, k) block of columns."""
    b = np.ascontiguousarray(x, dtype=np.float64)
    if b.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a 2-d block, got shape {b.shape}")
    require_finite(b, what="rhs")
    return b


def require_finite(*arrays, what: str = "array") -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"non-finite entries in {what}")


def require_symmetric(a: DenseMatrix) -> None:
    """Check |A - A^T|_inf <= SYMMETRY_RTOL * |A|_inf."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return
    skew = np.abs(a - a.T).max()
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not symmetric: skew {skew:.3e} at scale {scale:.3e}")


def is_int(x) -> bool:
    """An integer setting; bool, which JSON spells true/false, is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A finite real setting: an int or a float, but not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """The validated damped matrix m = A + damping*I and its solver path.

    path is "cholesky" when m is positive definite and "lu" when the Cholesky
    factorization failed but m is not numerically singular.  Either way a
    solve is one pivoted LU solve of m (numpy's gesv).
    """

    matrix: DenseMatrix
    path: str

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve m X = rhs, a vector or a block; a singular pivot raises SingularMatrixError."""
        try:
            return np.linalg.solve(self.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"{self.path} path solve failed: {exc}") from None


def factor_spd(a: DenseMatrix, damping: float = 0.0) -> SpdFactor:
    """Validate A + damping*I once and choose its solver path.

    A must be finite and symmetric.  A Cholesky factorization tests positive
    definiteness; when it fails the LU path is taken unless the damped matrix
    is numerically singular (condition number > 1e14), which raises
    SingularMatrixError.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    require_symmetric(a)
    if damping < 0:
        raise ValueError("damping must be nonnegative")

    m = a if damping == 0.0 else a + damping * np.eye(a.shape[0])
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if np.linalg.cond(m) > COND_LIMIT:
            raise SingularMatrixError(
                f"condition estimate exceeds {COND_LIMIT:.0e}"
            ) from None
        return SpdFactor(m, "lu")
    return SpdFactor(m, "cholesky")


def solve_spd(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve m X = rhs against a factor from factor_spd, rhs a vector or a (dim, k) block.

    The factor carries the damped matrix m = A + damping*I and its solver
    path; a symmetric matrix A is solved as solve_spd(factor_spd(A, damping),
    rhs).  One gesv solves every column.  Each column's residual must come
    under 1e-8 * |its rhs|; the columns that miss it take one step of
    refinement, and a column still above it raises SingularMatrixError.  A
    zero column returns exact zeros.
    """
    m = factor.matrix
    rhs = as_rhs(rhs)
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: A {m.shape}, rhs {rhs.shape}")

    b = rhs.reshape(rhs.shape[0], -1)
    x = factor.solve(b)
    limit = RESIDUAL_RTOL * np.linalg.norm(b, axis=0)
    x[:, limit == 0.0] = 0.0
    resid = np.linalg.norm(b - m @ x, axis=0)
    bad = np.flatnonzero(resid > limit)
    if bad.size:
        # one step of iterative refinement before giving up
        x[:, bad] += factor.solve(b[:, bad] - m @ x[:, bad])
        resid, limit = np.linalg.norm(b[:, bad] - m @ x[:, bad], axis=0), limit[bad]
        over = resid > limit
        if over.any():
            raise SingularMatrixError(
                f"residual {resid[over][0]:.3e} exceeds "
                f"{RESIDUAL_RTOL:.0e} * |rhs| = {limit[over][0]:.3e}"
            )
    require_finite(x, what="solve_spd result")
    return x.reshape(rhs.shape)


@dataclass(frozen=True)
class CgResult:
    """Conjugate gradient outcome; `converged` is advisory, not an error."""

    x: DenseVector
    converged: bool
    iterations: int
    residual_norm: float


def cg_solve(
    apply_a: Callable[[DenseVector], DenseVector],
    rhs: DenseVector,
    damping: float = 0.0,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> CgResult:
    """Conjugate gradient on the damped operator v -> A v + damping * v.

    The operator must be symmetric positive definite after damping; this is
    the caller's responsibility.  Stops when |r| <= tol * |rhs| or after
    max_iter iterations (default 10 * dim), whichever comes first.
    """
    rhs = as_vector(rhs)
    d = rhs.shape[0]
    if max_iter is None:
        max_iter = 10 * d
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return CgResult(np.zeros(d), True, 0, 0.0)

    def op(v):
        out = np.asarray(apply_a(v), dtype=np.float64)
        return out + damping * v if damping != 0.0 else out

    x = np.zeros(d)
    r = rhs.copy()
    p = r.copy()
    rs = r @ r
    it = 0
    while it < max_iter and np.sqrt(rs) > tol * rhs_norm:
        ap = op(p)
        denom = p @ ap
        if denom <= 0 or not np.isfinite(denom):
            # operator is not PD along p; bail out with what we have
            break
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    resid = np.sqrt(rs)
    require_finite(x, what="cg_solve result")
    return CgResult(x, bool(resid <= tol * rhs_norm), it, float(resid))


def lissa_solve(
    sample_hvp: Callable[[int, np.ndarray], np.ndarray],
    num_steps: int,
    scale: float,
    damping: float,
    rhs: np.ndarray,
    rng_seed: int,
    n_terms: int = 1,
    rows: int | None = None,
) -> np.ndarray:
    """Stochastic truncated Neumann solve of (A + damping*I) X = rhs.

    rhs is a vector or a (dim, k) block.  sample_hvp(j, V) must return an
    unbiased per-term estimate of A @ V for a (dim, c) block V and a term
    index j in [0, n_terms); with n_terms == 1 it is called with j = 0 every
    step, which gives the deterministic full-batch recursion.  Runs
    R_{t+1} = rhs + R_t - (sample_hvp(j_t, R_t) + damping * R_t) / scale
    for num_steps steps and returns R_T / scale.  The index stream j_t is
    numpy's default_rng(rng_seed).integers(n_terms), drawn bit for bit by
    the pure-Python `pcg64.PCG64` so that LiSSA never loads numpy.random;
    n_terms == 1 draws nothing.
    rows is the row count of the tallest temporary sample_hvp makes per
    column (dim when None).  The nonzero columns run in chunks of
    max(1, BLOCK_ENTRIES // max(rows, dim)) columns, each replaying the same
    stream, so every column gets the answer of its own single-column run and
    each chunk's temporaries stay within BLOCK_ENTRIES entries whatever k is
    (a single column taller than that is one chunk); a zero column returns
    exact zeros.  Raises DivergedError when a column's iterate exceeds
    1e8 * |its rhs|.
    """
    rhs = as_rhs(rhs)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    b = rhs.reshape(rhs.shape[0], -1)
    out = np.zeros_like(b)
    rhs_norm = np.linalg.norm(b, axis=0)
    live = np.flatnonzero(rhs_norm)
    width = max(1, BLOCK_ENTRIES // max(rows or 0, b.shape[0]))
    for start in range(0, live.size, width):
        cols = live[start : start + width]
        chunk, limit = b[:, cols], 1e8 * rhs_norm[cols]
        rng = PCG64(rng_seed)
        r = chunk.copy()
        for _ in range(num_steps):
            j = rng.integers(n_terms)
            hv = np.asarray(sample_hvp(j, r), dtype=np.float64)
            r = chunk + r - (hv + damping * r) / scale
            norm = np.linalg.norm(r, axis=0)
            over = ~(norm <= limit)  # a NaN norm is over too
            if over.any():
                raise DivergedError(
                    f"LiSSA iterate norm {norm[over][0]:.3e} exceeds 1e8 * |rhs|; "
                    "increase scale or damping"
                )
        out[:, cols] = r / scale
    return out.reshape(rhs.shape)


def pearson(a: DenseVector, b: DenseVector) -> float:
    """Sample Pearson correlation of two equal-length vectors."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("length mismatch")
    if a.shape[0] < 2:
        raise DegenerateInputError("need at least two points")
    ac = a - a.mean()
    bc = b - b.mean()
    na = np.linalg.norm(ac)
    nb = np.linalg.norm(bc)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("constant input has undefined correlation")
    return float((ac / na) @ (bc / nb))
