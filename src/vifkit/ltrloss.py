"""ListMLE listwise ranking loss with a linear per-item scorer.

Scores are f(x)_l = W[l] . x for an item weight matrix W of shape
(n_items, p); the loss of a query with relevance list (y_1, ..., y_k) is

    sum_j [ logsumexp_{l in C_j} s_l - s_{y_j} ],   C_j = present - {y_1..y_{j-1}}.

Items are the data objects: dropping item i removes it from every relevance
list (later positions shift up) and from every logsumexp; W[i] is frozen.
An optional ridge term keeps the objective strictly convex (the raw loss is
invariant to adding one vector to every row of W).

Every quantity comes from one batched Plackett-Luce pass over S = X W^T and
the padded lists: the candidate softmax P_j and logsumexp of each position.
The value sums logsumexp - s_y, the gradient coefficients are sum_j P_j
minus the list's one-hot, and each query's Hessian item block is
diag(sum_j P_j) - sum_j P_j^T P_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NoPresentItemsError
from .losscore import LossModel, PresenceVector, TargetFunction


@dataclass(frozen=True)
class RankingDataset:
    """Query features (m, p) plus one ordered relevance list per query."""

    features: np.ndarray
    rel_lists: tuple
    n_items: int

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] == 0:
            raise DataError("features must be a nonempty (m, p) array")
        if not np.all(np.isfinite(f)):
            raise DataError("non-finite feature values")
        if self.n_items < 1:
            raise DataError("n_items must be >= 1")
        lists = []
        for qi, lst in enumerate(self.rel_lists):
            ids = tuple(int(v) for v in lst)
            if len(ids) == 0:
                raise DataError(f"query {qi}: empty relevance list")
            if len(set(ids)) != len(ids):
                raise DataError(f"query {qi}: repeated item in relevance list")
            if min(ids) < 0 or max(ids) >= self.n_items:
                raise DataError(f"query {qi}: item id out of range")
            lists.append(ids)
        if len(lists) != f.shape[0]:
            raise DataError("one relevance list per query required")
        f.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "rel_lists", tuple(lists))

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

def _pad(rel_lists):
    """Relevance lists as a left-aligned (m, K) id array plus its validity mask."""
    lens = np.array([len(lst) for lst in rel_lists])
    valid = np.arange(lens.max()) < lens[:, None]
    lists = np.zeros(valid.shape, dtype=np.int64)
    lists[valid] = np.concatenate(rel_lists)
    return lists, valid


def _plackett_luce(s, lists, valid):
    """Candidate softmax and logsumexp at every position of every list.

    s holds (m, n) item scores and lists the (m, K) padded relevance lists
    with mask valid.  Position j of query q draws from the items its list has
    not consumed yet, C_j = all items minus y_1..y_{j-1}.  Returns the
    softmax over C_j as P (m, K, n) and logsumexp_{C_j} s as (m, K), both
    zero at padded positions.
    """
    taken = (lists[..., None] == np.arange(s.shape[1])) & valid[..., None]
    # an item stays a candidate up to and including the position that takes
    # it; padded positions draw from every item so their shift stays finite
    cand = ~np.logical_or.accumulate(taken, axis=1) | taken | ~valid[..., None]
    z = np.where(cand, s[:, None, :], -np.inf)
    shift = z.max(axis=2, keepdims=True)
    z -= shift
    p = np.exp(z, out=z)
    total = p.sum(axis=2, keepdims=True)
    p /= total
    p[~valid] = 0.0
    lse = np.where(valid, np.log(total[..., 0]) + shift[..., 0], 0.0)
    return p, lse


def _list_loss(s, lists, valid, lse):
    """Sum over queries and positions of logsumexp_{C_j} s - s_{y_j}."""
    return float(np.where(valid, lse - np.take_along_axis(s, lists, axis=1), 0.0).sum())


def _coefficients(p, lists, valid):
    """d(list loss)/d(score), (m, n): summed candidate softmax minus list one-hot."""
    coef = p.sum(axis=1)
    q, j = np.nonzero(valid)
    coef[q, lists[q, j]] -= 1.0
    return coef


def _hessian_blocks(p):
    """Per-query item Hessian of the list loss: diag(sum_j P_j) - sum_j P_j^T P_j."""
    blocks = np.matmul(p.transpose(0, 2, 1), -p)
    k = p.shape[2]
    blocks[:, np.arange(k), np.arange(k)] += p.sum(axis=1)
    return blocks


class _Pass(NamedTuple):
    """One Plackett-Luce pass over the present items of the chosen queries."""

    rows: np.ndarray  # which of the chosen queries kept a nonempty list
    items: np.ndarray  # present item ids; column c of s and p is items[c]
    x: np.ndarray  # (m', p) features of the queries kept
    s: np.ndarray  # (m', n') scores
    lists: np.ndarray  # (m', K) lists in column ids
    valid: np.ndarray
    p: np.ndarray
    lse: np.ndarray


class ListMLEModel(LossModel):
    """ListMLE over a fixed item universe, with items as the data objects."""

    is_convex = True

    def __init__(self, data: RankingDataset, l2: float = 0.0):
        if l2 < 0:
            raise ValueError("l2 must be >= 0")
        self.data = data
        self.l2 = float(l2)
        self._lists, self._valid = _pad(data.rel_lists)

    @property
    def n_objects(self) -> int:
        return self.data.n_items

    @property
    def dim(self) -> int:
        return self.data.n_items * self.data.p

    @property
    def layout(self) -> dict:
        return {"W": (0, self.dim)}

    def _pass(self, theta, b, queries=None) -> _Pass:
        """Plackett-Luce pass restricted to present items.

        Absent items leave the score matrix and every list (later entries
        move up) before any arithmetic, and queries whose list empties are
        dropped, so masking an item computes on exactly the arrays that
        deleting it would.
        """
        if b.n != self.data.n_items:
            raise ValueError("presence vector length does not match the item universe")
        if b.count == 0:
            raise NoPresentItemsError("no present items")
        mask = b.bits
        lists, valid, x = self._lists, self._valid, self.data.features
        if queries is not None:
            lists, valid, x = lists[queries], valid[queries], x[queries]
        keep = valid & mask[lists]
        rows = keep.any(axis=1)
        keep, lists = keep[rows], lists[rows]
        lens = keep.sum(axis=1)
        valid = np.arange(lens.max(initial=0)) < lens[:, None]
        compact = np.zeros(valid.shape, dtype=np.int64)
        compact[valid] = (np.cumsum(mask) - 1)[lists[keep]]
        items = np.flatnonzero(mask)
        x = x[rows]
        s = x @ np.asarray(theta, dtype=np.float64).reshape(mask.size, -1)[items].T
        return _Pass(rows, items, x, s, compact, valid, *_plackett_luce(s, compact, valid))

    def _loss_gradient(self, theta, b, queries=None):
        """Gradient of the ListMLE sum without the ridge, as (n_items, p)."""
        pl = self._pass(theta, b, queries)
        g = np.zeros((self.data.n_items, self.data.p))
        g[pl.items] = _coefficients(pl.p, pl.lists, pl.valid).T @ pl.x
        return g

    def _query_coefficients(self, theta, b):
        """(m, n_items) score coefficients of every query, zero where absent."""
        pl = self._pass(theta, b)
        c = np.zeros((self.data.m, self.data.n_items))
        c[np.ix_(pl.rows, pl.items)] = _coefficients(pl.p, pl.lists, pl.valid)
        return c

    def value(self, theta, b):
        theta = np.asarray(theta, dtype=np.float64)
        pl = self._pass(theta, b)
        return 0.5 * self.l2 * float(theta @ theta) + _list_loss(
            pl.s, pl.lists, pl.valid, pl.lse
        )

    def gradient(self, theta, b):
        return self._loss_gradient(theta, b).ravel() + self.l2 * np.asarray(theta)

    def hessian(self, theta, b):
        pl = self._pass(theta, b)
        n, p, k, m = self.data.n_items, self.data.p, pl.items.size, len(pl.x)
        xx = (pl.x[:, :, None] * pl.x[:, None, :]).reshape(m, p * p)
        # sum_q blocks_q (x) x_q x_q^T as one product over queries
        h4 = np.zeros((n, n, p, p))
        h4[np.ix_(pl.items, pl.items)] = (
            _hessian_blocks(pl.p).reshape(m, k * k).T @ xx
        ).reshape(k, k, p, p)
        h = h4.transpose(0, 2, 1, 3).reshape(self.dim, self.dim)
        h.flat[:: self.dim + 1] += self.l2
        return h

    def num_terms(self, b: PresenceVector) -> int:
        return self.data.m

    def term_gradient_sum(self, theta, b, idx):
        chosen = np.zeros(self.data.m, dtype=bool)
        chosen[np.asarray(idx, dtype=np.int64)] = True
        # ridge is part of the full objective; spread evenly over terms
        ridge = self.l2 * chosen.sum() / self.data.m
        return self._loss_gradient(theta, b, chosen).ravel() + ridge * np.asarray(theta)

    def delta_gradient(self, theta, i):
        """grad L(theta, 1) - grad L(theta, 1_-i) from two passes.

        The per-query coefficients are differenced before they are summed
        over queries, so the result keeps the precision of the small
        per-query changes; the ridge is presence-independent and drops out.
        """
        ones = PresenceVector.all_ones(self.data.n_items)
        diff = self._query_coefficients(theta, ones) - self._query_coefficients(
            theta, ones.without(i)
        )
        return (diff.T @ self.data.features).ravel()


class QueryLossTarget(TargetFunction):
    """ListMLE loss of one held-out query over the full item universe."""

    def __init__(self, x_test, y_list, n_items: int, p: int):
        self.x = np.ascontiguousarray(x_test, dtype=np.float64)
        self.y_list = tuple(int(v) for v in y_list)
        self.n_items = int(n_items)
        self.p = int(p)
        if self.x.shape != (self.p,):
            raise ValueError("test features have the wrong dimension")
        if len(set(self.y_list)) != len(self.y_list) or not self.y_list:
            raise ValueError("y_list must be nonempty with distinct items")
        if min(self.y_list) < 0 or max(self.y_list) >= self.n_items:
            raise ValueError("y_list item out of range")
        self._lists, self._valid = _pad((self.y_list,))

    def _pass(self, theta):
        w = np.asarray(theta, dtype=np.float64).reshape(self.n_items, self.p)
        s = (w @ self.x)[None, :]
        return (s, *_plackett_luce(s, self._lists, self._valid))

    def value(self, theta):
        s, _, lse = self._pass(theta)
        return _list_loss(s, self._lists, self._valid, lse)

    def gradient(self, theta):
        _, p, _ = self._pass(theta)
        return np.outer(_coefficients(p, self._lists, self._valid)[0], self.x).ravel()


def query_loss_target(model: ListMLEModel, x_test, y_list) -> QueryLossTarget:
    return QueryLossTarget(x_test, y_list, model.data.n_items, model.data.p)
