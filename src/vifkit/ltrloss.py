"""ListMLE listwise ranking loss with a linear per-item scorer.

Scores are f(x)_l = W[l] . x for an item weight matrix W of shape
(n_items, p); the loss of a query with relevance list (y_1, ..., y_k) is

    sum_j [ logsumexp_{l in C_j} s_l - s_{y_j} ],   C_j = present - {y_1..y_{j-1}}.

Items are the data objects: dropping item i removes it from every relevance
list (later positions shift up) and from every logsumexp, so the list loss
no longer depends on W[i].  The optional ridge term 0.5 * l2 * |W|^2 covers
every row, present or not: an absent row's gradient is l2 * W[i] alone,
and a run trained without item i pulls that row toward 0.  The ridge keeps
the objective strictly convex (the raw loss is invariant to adding one
vector to every row of W).

Every quantity comes from one batched Plackett-Luce pass over S = X W^T and
the padded lists: the candidate softmax P_j and logsumexp of each position.
The value sums logsumexp - s_y, the gradient coefficients are sum_j P_j
minus the list's one-hot, and each query's Hessian item block is
diag(sum_j P_j) - sum_j P_j^T P_j.

What the pass needs besides theta depends on the presence vector alone, so
ListMLEModel builds it once per presence vector, as a _Layout cached by
losscore.presence_cached (the full-presence layout plus the most recent
other one).  The layout holds the queries whose list keeps a present item,
their features, the present items, the lists compacted to those items'
column ids (left-aligned, with a validity mask) and the (queries x
positions x items) candidate mask.  The mask comes from each item's list
position pos[q, l] (the list length K for an item not in the list): item l
is a candidate at position j while pos[q, l] >= j, and every item is a
candidate at a padded position, whose softmax is then zeroed.  A pass is a
row gather from the layout (a minibatch's queries), one score product and
the masked softmax.

The loss of a held-out query is losscore.LossTarget over the ListMLEModel
of that one query (query_loss_target), so the target runs the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NoPresentItemsError
from .losscore import LossModel, LossTarget, PresenceVector, presence_cached
from .numkit import is_real


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


def _candidates(lists, valid, n):
    """(m, K, n) candidate mask of the padded lists over n items.

    Position j of query q draws from the items its list has not consumed
    yet: item l is a candidate while its list position pos[q, l] >= j (K
    for an item not in the list).  Padded positions draw from every item
    so that their shift stays finite.
    """
    m, k = lists.shape
    pos = np.full((m, n), k)
    q, j = np.nonzero(valid)
    pos[q, lists[q, j]] = j
    return (pos[:, None, :] >= np.arange(k)[:, None]) | ~valid[..., None]


def _plackett_luce(s, cand, valid):
    """Candidate softmax and logsumexp at every position of every list.

    s holds (m, n) item scores, cand the (m, K, n) candidate mask and valid
    the (m, K) validity mask of the lists.  Returns the softmax over each
    position's candidates as P (m, K, n) and their logsumexp as (m, K), both
    zero at padded positions.
    """
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


class _Layout(NamedTuple):
    """The lists of one presence vector over its present items."""

    rows: np.ndarray  # ids of the queries whose list keeps a present item
    items: np.ndarray  # present item ids; column c of s and p is items[c]
    x: np.ndarray  # (m', p) features of those queries
    lists: np.ndarray  # (m', K) compacted lists in column ids
    valid: np.ndarray  # (m', K)
    cand: np.ndarray  # (m', K, n') candidate mask

    def take(self, sel) -> "_Layout":
        """The layout of the queries sel selects, positions untrimmed."""
        return self._replace(rows=self.rows[sel], x=self.x[sel], lists=self.lists[sel],
                             valid=self.valid[sel], cand=self.cand[sel])


def _layout(data: RankingDataset, lists, valid, b: PresenceVector) -> _Layout:
    """Absent items leave every list (later entries move up) and queries
    whose list empties are dropped, so masking an item lays out exactly the
    arrays that deleting it would."""
    if b.n != data.n_items:
        raise ValueError("presence vector length does not match the item universe")
    if b.count == 0:
        raise NoPresentItemsError("no present items")
    mask = b.bits
    keep = valid & mask[lists]
    rows = np.flatnonzero(keep.any(axis=1))
    keep, lists = keep[rows], lists[rows]
    lens = keep.sum(axis=1)
    valid = np.arange(lens.max(initial=0)) < lens[:, None]
    compact = np.zeros(valid.shape, dtype=np.int64)
    compact[valid] = (np.cumsum(mask) - 1)[lists[keep]]
    items = np.flatnonzero(mask)
    return _Layout(rows, items, data.features[rows], compact, valid,
                   _candidates(compact, valid, items.size))


class _Pass(NamedTuple):
    """One Plackett-Luce pass over a layout."""

    lay: _Layout
    s: np.ndarray  # (m', n') scores
    p: np.ndarray
    lse: np.ndarray


class ListMLEModel(LossModel):
    """ListMLE over a fixed item universe, with items as the data objects."""

    is_convex = True

    def __init__(self, data: RankingDataset, l2: float = 0.0):
        if not (is_real(l2) and l2 >= 0):
            raise ValueError(f"l2 must be a real >= 0, got {l2!r}")
        self.data = data
        self.l2 = float(l2)
        self._lists, self._valid = _pad(data.rel_lists)
        self._layouts: dict[bytes, _Layout] = {}

    @property
    def n_objects(self) -> int:
        return self.data.n_items

    @property
    def dim(self) -> int:
        return self.data.n_items * self.data.p

    @property
    def layout(self) -> dict:
        return {"W": (0, self.dim)}

    def _layout_of(self, b: PresenceVector) -> _Layout:
        return presence_cached(
            self._layouts, b, lambda b: _layout(self.data, self._lists, self._valid, b)
        )

    def _pass(self, theta, b, queries=None) -> _Pass:
        """Plackett-Luce pass over b's layout, or over the rows of it that
        the boolean (m,) mask queries chooses."""
        lay = self._layout_of(b)
        if queries is not None:
            lay = lay.take(queries[lay.rows])
        w = np.asarray(theta, dtype=np.float64).reshape(self.data.n_items, -1)
        s = lay.x @ w[lay.items].T
        return _Pass(lay, s, *_plackett_luce(s, lay.cand, lay.valid))

    def _loss_gradient(self, theta, b, queries=None):
        """Gradient of the ListMLE sum without the ridge, as (n_items, p)."""
        pl = self._pass(theta, b, queries)
        g = np.zeros((self.data.n_items, self.data.p))
        g[pl.lay.items] = _coefficients(pl.p, pl.lay.lists, pl.lay.valid).T @ pl.lay.x
        return g

    def _query_coefficients(self, theta, b):
        """(m, n_items) score coefficients of every query, zero where absent."""
        pl = self._pass(theta, b)
        c = np.zeros((self.data.m, self.data.n_items))
        c[np.ix_(pl.lay.rows, pl.lay.items)] = _coefficients(pl.p, pl.lay.lists, pl.lay.valid)
        return c

    def value(self, theta, b):
        theta = np.asarray(theta, dtype=np.float64)
        pl = self._pass(theta, b)
        return 0.5 * self.l2 * float(theta @ theta) + _list_loss(
            pl.s, pl.lay.lists, pl.lay.valid, pl.lse
        )

    def gradient(self, theta, b):
        return self._loss_gradient(theta, b).ravel() + self.l2 * np.asarray(theta)

    def hessian(self, theta, b):
        pl = self._pass(theta, b)
        x, items = pl.lay.x, pl.lay.items
        n, p, k, m = self.data.n_items, self.data.p, items.size, len(x)
        xx = (x[:, :, None] * x[:, None, :]).reshape(m, p * p)
        # sum_q blocks_q (x) x_q x_q^T as one product over queries
        h4 = np.zeros((n, n, p, p))
        h4[np.ix_(items, items)] = (
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

    def delta_gradients(self, theta, ids):
        """grad L(theta, 1) - grad L(theta, 1_-i) for each i in ids.

        One pass at full presence serves every object, plus one pass without
        each.  The per-query coefficients are differenced before they are
        summed over queries, so the result keeps the precision of the small
        per-query changes; the ridge is presence-independent and drops out.
        """
        ones = PresenceVector.all_ones(self.data.n_items)
        full = self._query_coefficients(theta, ones)
        out = np.empty((len(ids), self.dim))
        for row, i in enumerate(ids):
            diff = full - self._query_coefficients(theta, ones.without(int(i)))
            out[row] = (diff.T @ self.data.features).ravel()
        return out


def query_loss_target(model: ListMLEModel, x_test, y_list) -> LossTarget:
    """ListMLE loss of one held-out query over the model's item universe."""
    x = np.asarray(x_test, dtype=np.float64)
    if x.shape != (model.data.p,):
        raise ValueError("test features have the wrong dimension")
    return LossTarget(ListMLEModel(RankingDataset(x[None], (y_list,), model.data.n_items)))
