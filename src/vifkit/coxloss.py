"""Cox proportional hazards partial likelihood under presence masking.

The loss is the negative log partial likelihood

    L(theta, b) = -sum_{i present, event} (eta_i - log sum_{j in R_i} exp(eta_j)),

with eta = X theta and at-risk sets R_i = {j present : y_j >= y_i}.  Ties in
the observed times are rejected at load time, so risk sets are unambiguous.

The present records are first put in time order with their features
gathered (the layout, O(n log n), once per presence vector; CoxModel caches
it).  The layout also holds rank, each record id's time-order position,
the one record -> position map.  One reverse sweep over the layout, with a
max-shift on eta for stability, gives each event's at-risk sum s0 and each
record's weight a = w * cumsum_events(1/s0).  The sweep takes one theta or
a block of theta rows, each with one record dropped, so the lockstep
leave-one-out gradients (drop_one_gradients) are its general case.  The
value and the gradient then cost O(n d): the gradient is one GEMV,
-X^T (delta - a), over the Cox martingale residuals.  The Hessian,
O(n d^2), is the weighted Gram matrix X^T diag(a) X minus the outer
products of the event ratios r1 = s1/s0, which only the Hessian-side
callers build.  per_term_hvp (O(n d) per column) and delta_gradients
(O(E d) per record for E events, in blocks of bounded size) reuse one
cached sweep per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NoEventsError
from .losscore import LossModel, PresenceVector, TargetFunction, object_ids, presence_cached
from .numkit import factor_spd, solve_spd

# Entries in one block of delta_gradients' 1/(s0_j - w_i) matrix: 2**15
# doubles, 256 KiB, whatever the number of records (a single record with more
# earlier events than this makes a one-row block of its own).
DELTA_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival records: features x, times y, event flags delta."""

    x: np.ndarray
    y: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        d = np.asarray(self.delta)
        if x.ndim != 2 or y.ndim != 1 or d.ndim != 1:
            raise DataError("x must be (n, d); y and delta must be (n,)")
        n = x.shape[0]
        if y.shape[0] != n or d.shape[0] != n or n == 0:
            raise DataError("x, y, delta must share a nonzero first dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("non-finite values in survival data")
        if np.any(y <= 0):
            raise DataError("observed times must be positive")
        # checked on the values as given: casting a NaN to int warns and yields garbage
        if not np.all((d == 0) | (d == 1)):
            raise DataError("delta must be 0 or 1")
        d = np.ascontiguousarray(d, dtype=np.int64)
        sorted_y = np.sort(y)
        if np.any(sorted_y[1:] == sorted_y[:-1]):
            raise DataError("tied observed times are not supported; jitter the data")
        for name, arr in (("x", x), ("y", y), ("delta", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def without(self, i: int) -> "SurvivalDataset":
        keep = np.ones(self.n, dtype=bool)
        keep[i] = False
        return SurvivalDataset(self.x[keep], self.y[keep], self.delta[keep])


class _Layout(NamedTuple):
    """Present records in time order; depends on the presence vector only."""

    idx: np.ndarray  # original record ids, ascending y
    xs: np.ndarray  # their features, gathered
    ev: np.ndarray  # positions of the events
    dlt: np.ndarray  # event indicator (0.0 or 1.0) at each position
    rank: np.ndarray  # each record id's position, -1 where the record is absent


def _layout(data: SurvivalDataset, b: PresenceVector) -> _Layout:
    """Sort the present records by time and gather their features, O(n log n).

    Only the present records are gathered, so a masked record leaves no
    trace: masking and deleting give the same arrays.
    """
    present = b.present_indices()
    if present.size == 0:
        raise NoEventsError("no present records")
    idx = present[np.argsort(data.y[present], kind="stable")]
    dlt = data.delta[idx]
    ev = np.flatnonzero(dlt == 1)
    if ev.size == 0:
        raise NoEventsError("no uncensored events among present records")
    rank = np.full(data.n, -1)
    rank[idx] = np.arange(idx.size)
    return _Layout(idx, data.x[idx], ev, dlt.astype(np.float64), rank)


class _Sweep(NamedTuple):
    """The risk-set sums of one layout at one theta, or at a block of them.

    At a (rows, dim) block every array gains a trailing rows axis.
    """

    eta: np.ndarray | None
    shift: float | np.ndarray  # max eta; w, s0 and a are scaled by exp(-shift)
    w: np.ndarray
    s0: np.ndarray  # at-risk sum of w at each event
    a: np.ndarray  # w * cumsum_events(1/s0), each record's residual weight


def _sweep(
    lay: _Layout, theta: np.ndarray, pos: np.ndarray | None = None, out: tuple | None = None
) -> _Sweep:
    """At-risk sums s0 = sum w at each event, with w = exp(eta - max eta).

    Record k sits in the at-risk set of every event at or before it, so the
    events' 1/s0 reach it as a_k = w_k * sum_{events j <= k} 1/s0_j, the
    Breslow cumulative hazard at y_k times w_k.  The gradient and the
    Hessian both weigh the records by a.

    theta is one (dim,) point or a (rows, dim) block; a block sweeps all
    rows at once in time order, so every sum along time adds one contiguous
    row of the (n, rows) arrays.  With pos, column r drops the record at
    position pos[r]: its eta is -inf, so its w is 0 and every prefix sum is
    bit-identical to the sum with the record deleted, the max-shift runs
    over the present records, and a dropped event's s0 reads inf, so it
    adds no 1/s0 term.  Such a sweep keeps no eta.

    out, for a block, is four arrays (eta, a, s0, 1/s0), (n, rows) twice
    and then (E, rows) twice for E events, that the sweep fills in place of
    fresh ones; the returned w, s0 and a are then views of them, which the
    next sweep into out overwrites.
    """
    eta, a, s0, inv = (None,) * 4 if out is None else out
    eta = np.matmul(lay.xs, np.transpose(theta), out=eta)
    if pos is not None:
        cols = np.arange(pos.size)
        eta[pos, cols] = -np.inf
    shift = eta.max(axis=0)
    if pos is None:
        w = eta - shift
    else:  # no caller reads a block's eta, so it becomes w in place
        w, eta = np.subtract(eta, shift, out=eta), None
    np.exp(w, out=w)
    # a holds the suffix sums of w, then the weights a; mode "clip" (the
    # events are in range) spares the copy of out that take makes to raise
    a = np.empty(w.shape) if a is None else a
    np.cumsum(w[::-1], axis=0, out=a[::-1])
    s0 = np.take(a, lay.ev, axis=0, out=s0, mode="clip")
    if pos is not None:
        dropped = lay.dlt[pos] == 1.0
        s0[np.searchsorted(lay.ev, pos[dropped]), cols[dropped]] = np.inf
    a.fill(0.0)
    a[lay.ev] = np.reciprocal(s0, out=inv)
    np.cumsum(a, axis=0, out=a)
    a *= w
    return _Sweep(eta, shift, w, s0, a)


def _r1(lay: _Layout, s: _Sweep) -> np.ndarray:
    """s1/s0 at each event, with s1 = sum w x over the at-risk set, (E, d)."""
    s1 = np.cumsum((s.w[:, None] * lay.xs)[::-1], axis=0)[::-1][lay.ev]
    return s1 / s.s0[:, None]


def _value(lay: _Layout, s: _Sweep) -> float:
    return float(-(s.eta[lay.ev] - (s.shift + np.log(s.s0))).sum())


def _gradient(lay: _Layout, s: _Sweep) -> np.ndarray:
    """-X^T (delta - a): one GEMV over the martingale residuals.

    sum over events of r1_j = sum_k a_k x_k, so the gradient
    -sum_events (x_j - r1_j) needs no (n, d) suffix sums.
    """
    return -((lay.dlt - s.a) @ lay.xs)


def _hessian(lay: _Layout, s: _Sweep, r1: np.ndarray) -> np.ndarray:
    """sum over events of s2/s0 - r1 r1^T, as one weighted Gram matrix.

    sum_j s2_j/s0_j = X^T diag(a) X with the same weights a as the gradient.
    """
    h = (lay.xs * s.a[:, None]).T @ lay.xs - r1.T @ r1
    return 0.5 * (h + h.T)


class CoxModel(LossModel):
    """Negative log partial likelihood as a presence-masked LossModel.

    Data objects are the survival records; unit terms (for per-term Hessian
    sampling) are the per-event contributions.  The time-ordered layout is
    cached per presence vector: the full-presence one stays, plus the most
    recent other one, so training sorts once, and lockstep leave-one-out
    (drop_one_gradients) reuses the full layout, and one set of sweep
    buffers for its group's shape.  Value, gradient and Hessian sweep
    afresh at each theta;
    per_term_hvp and delta_gradients, which are called many times at one
    point, share one cached sweep per (theta, b).
    """

    is_convex = True

    def __init__(self, data: SurvivalDataset):
        self.data = data
        self._layouts: dict[bytes, _Layout] = {}
        self._cache_key = None
        self._cache_val = None
        self._drop_one_out = None

    def __getstate__(self):
        # the drop-one buffers are scratch space: a --jobs worker makes its own
        return {**self.__dict__, "_drop_one_out": None}

    @property
    def n_objects(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.d

    def _layout_of(self, b: PresenceVector) -> _Layout:
        return presence_cached(self._layouts, b, lambda b: _layout(self.data, b))

    def value(self, theta, b):
        lay = self._layout_of(b)
        return _value(lay, _sweep(lay, theta))

    def gradient(self, theta, b):
        lay = self._layout_of(b)
        return _gradient(lay, _sweep(lay, theta))

    def hessian(self, theta, b):
        lay = self._layout_of(b)
        s = _sweep(lay, theta)
        return _hessian(lay, s, _r1(lay, s))

    def num_terms(self, b: PresenceVector) -> int:
        return int(self.data.delta[b.present_indices()].sum())

    def _cached_sweep(self, theta, b: PresenceVector):
        """Layout, sweep and r1 at (theta, b)."""
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        key = (theta.tobytes(), b.bits.tobytes())
        if key != self._cache_key:
            lay = self._layout_of(b)
            s = _sweep(lay, theta)
            self._cache_key, self._cache_val = key, (lay, s, _r1(lay, s))
        return self._cache_val

    def per_term_hvp(self, j, theta, b, v):
        """(s2/s0 - r1 r1^T) V at the j-th present event, O(n d k) for k columns."""
        lay, s, r1 = self._cached_sweep(theta, b)
        k = lay.ev[j]
        xs = lay.xs[k:]
        # suffix sum of w * x x^T V starting at position k
        s2v = xs.T @ (s.w[k:] * (xs @ v).T).T
        r1 = r1[j]
        return s2v / s.s0[j] - np.multiply.outer(r1, r1 @ v)

    def term_gradient_sum(self, theta, b, idx):
        lay = self._layout_of(b)
        s = _sweep(lay, theta)
        idx = np.asarray(idx, dtype=np.int64)
        return -(lay.xs[lay.ev[idx]] - _r1(lay, s)[idx]).sum(axis=0)

    def drop_one_gradients(self, thetas, ids):
        """grad L(thetas[r], 1 without ids[r]) for each row r, in one sweep
        over the full-presence layout.

        _sweep weights each row's dropped record out of an (n, rows) block;
        the gradients are then one GEMM over the martingale residuals
        a - delta, with no delta for a dropped event.  The sweep fills two
        (n, rows) and two (E, rows) buffers that the model keeps for the
        last group size it saw, so the epochs of a lockstep group map no
        fresh pages; the caller bounds rows.  The returned (rows, dim) block
        is a fresh array, and equals a sweep into fresh arrays bit for bit.
        """
        lay = self._layout_of(PresenceVector.all_ones(self.data.n))
        pos = lay.rank[object_ids(self, ids)]
        if lay.ev.size == 1 and lay.dlt[pos].any():
            raise NoEventsError("no uncensored events among present records")
        if self._drop_one_out is None or self._drop_one_out[0].shape[1] != pos.size:
            n, e = lay.idx.size, lay.ev.size
            self._drop_one_out = tuple(np.empty((m, pos.size)) for m in (n, n, e, e))
        a = _sweep(lay, thetas, pos, self._drop_one_out).a
        a -= lay.dlt[:, None]
        a[pos, np.arange(pos.size)] = 0.0
        return a.T @ lay.xs

    def delta_gradients(self, theta, ids):
        """grad L(theta, 1) - grad L(theta, 1_-i) for each i in ids, by direct cancellation.

        Dropping record i removes its own event term (if any) and removes
        w_i = exp(eta_i) from the at-risk sums of every earlier event, which
        changes that event's ratio by
        s1/s0 - (s1 - w_i x_i)/(s0 - w_i) = w_i (x_i - s1/s0)/(s0 - w_i):

            delta = -delta_i (x_i - s1/s0|_{y_i})
                    + w_i sum_{events j: y_j < y_i} (x_i - s1/s0|_{y_j}) / (s0 - w_i)|_{y_j}.

        The right-hand form of the change subtracts no nearly equal terms.
        The records are taken in blocks sorted by e_i, the count of events
        before record i; a block's matrix of 1/(s0_j - w_i) is masked to
        j < e_i and holds at most DELTA_BLOCK_ENTRIES entries, or one row of
        e_i entries when e_i alone exceeds that.
        """
        lay, s, r1 = self._cached_sweep(theta, PresenceVector.all_ones(self.data.n))
        pos = lay.rank[object_ids(self, ids)]
        e = np.searchsorted(lay.ev, pos)  # events strictly before each record
        out = np.empty((pos.size, self.dim))
        # the summands x_i - r1_j as one product: c @ [1, r1] = [sum c, c @ r1]
        ones_r1 = np.hstack([np.ones((r1.shape[0], 1)), r1])
        order = np.argsort(e, kind="stable")
        # cut the sorted records into blocks of rows x (last row's e) <= the cap
        cuts = [0] if pos.size else []
        for t, width in enumerate(e[order].tolist()):
            if (t + 1 - cuts[-1]) * width > DELTA_BLOCK_ENTRIES and t > cuts[-1]:
                cuts.append(t)
        for start, stop in zip(cuts, cuts[1:] + [pos.size]):
            blk = order[start:stop]
            p, eb = pos[blk], e[blk]
            x, w = lay.xs[p], s.w[p]
            width = int(eb[-1])
            c = s.s0[:width] - w[:, None]
            c[np.arange(width) >= eb[:, None]] = np.inf  # events at or after i: 1/inf = 0
            sums = np.reciprocal(c, out=c) @ ones_r1[:width]
            d = w[:, None] * (x * sums[:, :1] - sums[:, 1:])
            own = lay.ev[np.minimum(eb, lay.ev.size - 1)] == p  # record i is an event
            d[own] += r1[eb[own]] - x[own]
            out[blk] = d
        return out


def reid_if(theta: np.ndarray, data: SurvivalDataset, i: int) -> np.ndarray:
    """Reid-and-Crepeau-style influence of record i on the Cox estimate.

    With S0, S1 the (1/n)-scaled at-risk sums at theta over the full data,

        IF_i = -[H/n]^{-1} score_i - [H/n]^{-1} C_i,
        score_i = -delta_i (x_i - S1/S0|_{y_i}),
        C_i = exp(eta_i) (1/n) sum_{events j: y_j <= y_i}
                  (x_i - S1/S0|_{y_j}) / S0|_{y_j}.

    A record censored before every event time has IF_i = 0.  An i outside
    [0, n) is a ValueError.
    """
    model = CoxModel(data)
    lay, s, r1 = model._cached_sweep(theta, PresenceVector.all_ones(data.n))
    pos = int(lay.rank[object_ids(model, [i])[0]])
    x_i, w_i = lay.xs[pos], s.w[pos]

    score = np.zeros(data.d)
    upto = int(np.searchsorted(lay.ev, pos, side="right"))  # events at or before i
    if upto and lay.ev[upto - 1] == pos:
        score -= x_i - r1[upto - 1]

    # exp(eta_i)/S0(y_j) = n w_i/s0_j in shift-consistent units, and the
    # leading 1/n cancels it, leaving plain w_i/s0_j per event term.
    weights = w_i / s.s0[:upto]
    c_i = (weights[:, None] * (x_i[None, :] - r1[:upto])).sum(axis=0)
    return -solve_spd(factor_spd(_hessian(lay, s, r1) / data.n), score + c_i)


class RelativeRiskTarget(TargetFunction):
    """f(theta) = exp(theta . x_test), the relative risk of a test profile."""

    def __init__(self, x_test):
        self.x_test = np.ascontiguousarray(x_test, dtype=np.float64)

    def value(self, theta):
        return float(np.exp(theta @ self.x_test))

    def values(self, thetas):
        return np.exp(thetas @ self.x_test)

    def gradient(self, theta):
        return np.exp(theta @ self.x_test) * self.x_test


def relative_risk_target(x_test) -> RelativeRiskTarget:
    return RelativeRiskTarget(x_test)
