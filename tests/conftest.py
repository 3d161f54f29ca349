"""Shared fixtures: a closed-form quadratic model and a linear target.

QuadraticModel is the reference problem for everything that needs exact
answers: the minimizer under presence b is the mean of the present centers,
the Hessian is count(b) * I, and dropping object i moves the optimum by
exactly (theta_hat - c_i) / (count - 1).
"""

import os
import pathlib

import numpy as np
import pytest

import vifkit
from vifkit.losscore import (
    DecomposableLoss,
    LossModel,
    PresenceVector,
    TargetFunction,
)


class QuadraticModel(LossModel, DecomposableLoss):
    """L(theta, b) = sum over present i of 0.5 |theta - c_i|^2."""

    is_convex = True

    def __init__(self, centers):
        self.centers = np.ascontiguousarray(centers, dtype=np.float64)

    @property
    def n_objects(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]

    def value(self, theta, b):
        diff = theta[None, :] - self.centers[b.present_indices()]
        return 0.5 * float((diff * diff).sum())

    def gradient(self, theta, b):
        idx = b.present_indices()
        return idx.size * theta - self.centers[idx].sum(axis=0)

    def hessian(self, theta, b):
        return b.count * np.eye(self.dim)

    def point_gradients(self, theta):
        return theta[None, :] - self.centers

    def minimizer(self, b):
        return self.centers[b.present_indices()].mean(axis=0)

    def loo_shift(self, i):
        """Exact theta_{-i} - theta_full at the respective optima."""
        ones = PresenceVector.all_ones(self.n_objects)
        return self.minimizer(ones.without(i)) - self.minimizer(ones)


class LinearTarget(TargetFunction):
    """f(theta) = a . theta, the simplest chain-rule test case."""

    def __init__(self, a):
        self.a = np.ascontiguousarray(a, dtype=np.float64)

    def value(self, theta):
        return float(self.a @ theta)

    def gradient(self, theta):
        return self.a.copy()


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a counting wrapper; return the list of calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def subprocess_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH and
    VIF_LOG unset, for a fresh interpreter that runs it."""
    src = str(pathlib.Path(vifkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "VIF_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def quad_model():
    rng = np.random.default_rng(7)
    return QuadraticModel(rng.standard_normal((12, 3)))


@pytest.fixture
def full12():
    return PresenceVector.all_ones(12)
