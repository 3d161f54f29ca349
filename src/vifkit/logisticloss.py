"""Ridge-regularized logistic regression: the decomposable reference loss
and a seeded synthetic problem.  The log loss of a held-out point is
losscore.LossTarget over the unregularized model of that one point."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .losscore import DecomposableLoss, LossModel
from .numkit import is_real


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
        if not (is_real(reg) and reg >= 0):
            raise ValueError(f"reg must be a real >= 0, got {reg!r}")
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
