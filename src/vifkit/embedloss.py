"""Contrastive node-embedding loss over random-walk co-occurrence pairs.

Dropping a node from the presence vector removes it from the graph before
walks are generated: walks are resampled on the reduced graph under the same
master seed, the node appears in no pair and in no softmax denominator, and
its embedding rows are frozen (zero gradient and Hessian).  The parameter
dimension never changes with b.

The walk stream for a presence vector b is seeded from (master_seed, present
node ids), so every b has its own reproducible corpus and a physically
deleted trailing node yields the same walks as masking it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyGraphError
from .losscore import LossModel, PresenceVector, TargetFunction, presence_cached
from .numkit import is_int

log = logging.getLogger("vifkit.embedloss")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 without self loops or multi-edges."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(self.edges, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise DataError("edges must be an (m, 2) array")
        if self.n < 1:
            raise DataError("graph needs at least one node")
        if e.size:
            if e.min() < 0 or e.max() >= self.n:
                raise DataError("edge endpoint out of range")
            lo = np.minimum(e[:, 0], e[:, 1])
            hi = np.maximum(e[:, 0], e[:, 1])
            if np.any(lo == hi):
                raise DataError("self loops are not allowed")
            e = np.stack([lo, hi], axis=1)
            e = e[np.lexsort((e[:, 1], e[:, 0]))]
            if np.any(np.all(e[1:] == e[:-1], axis=1)):
                raise DataError("duplicate edges are not allowed")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def without_node(self, i: int) -> "Graph":
        """Physically delete node i, renumbering later nodes down by one."""
        keep = ~np.any(self.edges == i, axis=1)
        e = self.edges[keep].copy()
        e[e > i] -= 1
        return Graph(n=self.n - 1, edges=e)


@dataclass(frozen=True)
class WalkParams:
    walks_per_node: int = 10
    walk_length: int = 6
    window: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("walks_per_node", "walk_length", "window"):
            value = getattr(self, name)
            if not (is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def generate_walks(graph: Graph, b: PresenceVector, params: WalkParams) -> np.ndarray:
    """Uniform random walks restricted to present nodes.

    Returns the corpus as one read-only (W, walk_length) int64 array, W =
    present nodes x walks_per_node, stored time-major (the transpose of a
    (walk_length, W) buffer).  Row r is walk r % walks_per_node from the
    (r // walks_per_node)-th present node in ascending id order.  A walk
    from a node with no present neighbor stops after its start; the rest of
    its row is -1.

    Every walk consumes walk_length - 1 uniforms whether or not it stops
    early, drawn in row order as one rng.random((W, walk_length - 1)) call.
    Under PCG64 this is the same stream as one rng.random(walk_length - 1)
    call per walk, so the corpus for a given (seed, present ids) is fixed
    and a physically deleted trailing node yields the same walks.
    """
    if b.n != graph.n:
        raise ValueError("presence vector length does not match the graph")
    present = b.present_indices()
    if present.size < 2:
        raise EmptyGraphError("need at least two present nodes to walk")

    # CSR adjacency of the induced subgraph, neighbors in ascending id order
    e = graph.edges[b.bits[graph.edges].all(axis=1)]
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((dst, src))
    indices = dst[order]
    deg = np.bincount(src, minlength=graph.n)
    indptr = np.concatenate([[0], np.cumsum(deg)])

    rng = np.random.default_rng(
        np.random.SeedSequence([int(params.seed), *(int(i) for i in present)])
    )
    steps = params.walk_length - 1
    n_walks = present.size * params.walks_per_node
    draws = rng.random((n_walks, steps)).T  # step t's draws are row t
    walks = np.empty((params.walk_length, n_walks), dtype=np.int64)
    walks[0] = np.repeat(present, params.walks_per_node)
    # Only a start node can be a dead end: a walk that moved along an edge
    # can always step back along it.  When no start is one, every step reads
    # and writes whole rows; otherwise it gathers the live walks, which also
    # keeps indptr[cur] of an isolated last node (== len(indices)) out of
    # the index.
    if deg[present].all():
        live = slice(None)
    else:
        walks[1:] = -1
        live = np.flatnonzero(deg[walks[0]] > 0)
    cur = walks[0, live]
    for t in range(steps):
        cur = indices[indptr[cur] + (draws[t, live] * deg[cur]).astype(np.int64)]
        walks[t + 1, live] = cur
    walks = walks.T
    walks.setflags(write=False)
    return walks


def walks_to_pairs(walks: np.ndarray, n: int, window: int) -> np.ndarray:
    """Ordered co-occurrence counts within the window, both directions.

    walks is a (W, walk_length) array of node ids, as generate_walks returns.
    Returns an (n, n) count matrix C with C[u, v] = number of ordered pairs
    (anchor u, positive v) emitted by the walks; the counts of a subset of
    walks are walks_to_pairs(walks[rows], n, window).  Entries of -1 in the
    padded walk array are not nodes and pair with nothing: they are counted
    as a sink node n, whose row and column are dropped at the end.  Each
    window offset is one bincount over the (n + 1)^2 grid of the time-major
    walk steps.
    """
    nodes = np.ascontiguousarray(walks.T)  # a view for generated walks
    if nodes.size and nodes.min() < 0:
        nodes = np.where(nodes < 0, n, nodes)
    size = n + 1
    scaled = nodes * size
    forward = np.zeros(size * size, dtype=np.int64)
    for off in range(1, min(window, nodes.shape[0] - 1) + 1):
        forward += np.bincount((scaled[:-off] + nodes[off:]).ravel(), minlength=size * size)
    forward = forward.reshape(size, size)[:n, :n]
    return (forward + forward.T).astype(np.float64)


def _split(theta, n: int, k: int):
    """theta = [emb.ravel(), out.ravel()] as the two (n, k) blocks."""
    theta = np.asarray(theta, dtype=np.float64)
    return theta[: n * k].reshape(n, k), theta[n * k :].reshape(n, k)


def _softmax(e_rows: np.ndarray, w_rows: np.ndarray):
    """Scores s = e_rows @ w_rows^T with their row softmax p and row logsumexp."""
    s = e_rows @ w_rows.T
    shift = s.max(axis=1, keepdims=True)
    ex = np.exp(s - shift)
    total = ex.sum(axis=1, keepdims=True)
    return s, ex / total, np.log(total[:, 0]) + shift[:, 0]


def _anchor_block(counts: np.ndarray, present: np.ndarray):
    """Anchors (rows of C with at least one pair), their pair totals m and
    the (anchors x present) block of C."""
    m_row = counts.sum(axis=1)
    anchors = np.flatnonzero(m_row > 0)
    return anchors, m_row[anchors], counts[np.ix_(anchors, present)]


class _Pairs(NamedTuple):
    """One presence vector's pair counts and their anchor block."""

    counts: np.ndarray  # (n, n) pair counts C
    present: np.ndarray  # present node ids
    anchors: np.ndarray  # nodes with at least one pair
    m: np.ndarray  # the anchors' pair totals
    block: np.ndarray  # (anchors x present) block of C


def _scatter(gs: np.ndarray, emb: np.ndarray, out: np.ndarray, rows, cols) -> np.ndarray:
    """[g_emb, g_out] from dL/dS on the (rows x cols) block of S = emb @ out^T."""
    g_emb = np.zeros_like(emb)
    g_out = np.zeros_like(out)
    g_emb[rows] = gs @ out[cols]
    g_out[cols] = gs.T @ emb[rows]
    return np.concatenate([g_emb.ravel(), g_out.ravel()])


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """Row r is the flattened outer product x[r] x[r]^T, (rows, k * k)."""
    return (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)


def contrastive_value_from_pairs(
    emb: np.ndarray, out: np.ndarray, counts: np.ndarray, present: np.ndarray
) -> float:
    """Softmax cross entropy of the given pair counts.

    loss = sum_{u,v} C[u,v] * (-s_uv + logsumexp_{l present} s_ul), with
    s = emb @ out^T.  Pure function of (parameters, pairs); no regeneration.
    """
    anchors, m, c = _anchor_block(counts, present)
    if anchors.size == 0:
        return 0.0
    s, _, lse = _softmax(emb[anchors], out[present])
    return float((m * lse).sum() - (c * s).sum())


class EmbedModel(LossModel):
    """Two-block node embedding (input rows, output rows) with full softmax.

    theta = [emb.ravel(), out.ravel()] where emb and out are (n, k); the
    score of positive v for anchor u is emb[u] . out[v].  Data objects are
    the graph nodes.  Value, gradient and Hessian read one softmax of the
    anchors' scores over the present nodes; with m_u the pair total of
    anchor u, dL/dS = m p - C on that (anchors x present) block.
    """

    is_convex = False

    def __init__(self, graph: Graph, k: int, walk_params: WalkParams):
        if not (is_int(k) and k >= 1):
            raise ValueError(f"embedding dimension k must be an int >= 1, got {k!r}")
        self.graph = graph
        self.k = k
        self.walk_params = walk_params
        self._pair_cache: dict[bytes, _Pairs] = {}

    @property
    def n_objects(self) -> int:
        return self.graph.n

    @property
    def dim(self) -> int:
        return 2 * self.graph.n * self.k

    @property
    def layout(self) -> dict:
        half = self.graph.n * self.k
        return {"emb": (0, half), "out": (half, half)}

    def pair_counts(self, b: PresenceVector) -> np.ndarray:
        """Pair counts of b's walk corpus."""
        return self._pairs(b).counts

    def _pairs(self, b: PresenceVector) -> _Pairs:
        """b's pair counts and anchor block, built on a presence_cached miss:
        a drop-one sweep builds n + 1 corpora and holds at most two entries."""
        return presence_cached(self._pair_cache, b, self._build_pairs)

    def _build_pairs(self, b: PresenceVector) -> _Pairs:
        walks = generate_walks(self.graph, b, self.walk_params)
        counts = walks_to_pairs(walks, self.graph.n, self.walk_params.window)
        if counts.sum() == 0:
            log.warning("walk corpus produced no co-occurrence pairs")
        present = b.present_indices()
        return _Pairs(counts, present, *_anchor_block(counts, present))

    def _pass(self, theta, b):
        """emb, out, present, anchors, m, C block and the anchors' softmax p."""
        emb, out = _split(theta, self.graph.n, self.k)
        pairs = self._pairs(b)
        _, p, _ = _softmax(emb[pairs.anchors], out[pairs.present])
        return emb, out, pairs.present, pairs.anchors, pairs.m, pairs.block, p

    def value(self, theta, b):
        emb, out = _split(theta, self.graph.n, self.k)
        return contrastive_value_from_pairs(emb, out, self.pair_counts(b), b.present_indices())

    def gradient(self, theta, b):
        emb, out, present, anchors, m, c, p = self._pass(theta, b)
        return _scatter(m[:, None] * p - c, emb, out, anchors, present)

    def hessian(self, theta, b):
        """Three block families, each for every anchor u at once (q_u = p_u W).

        emb-emb (u, u): m (W^T diag(p) W - q q^T);
        emb-out (u, l): (m p_l - C_ul) I + m p_l (w_l - q) e_u^T, and its transpose;
        out-out (l, l'): sum_u m (diag p - p p^T)_ll' e_u e_u^T.
        """
        emb, out, present, anchors, m, c, p = self._pass(theta, b)
        n, k = self.graph.n, self.k
        h = np.zeros((self.dim, self.dim))
        if anchors.size == 0:
            return h
        hb = h.reshape(2, n, k, 2, n, k)  # (block, node, coordinate) twice
        e, w = emb[anchors], out[present]
        mp = m[:, None] * p
        q = p @ w
        n_anchor, n_present = p.shape
        # emb-emb, (anchors, k, k)
        ee = (p @ _outer_rows(w)).reshape(n_anchor, k, k) - q[:, :, None] * q[:, None, :]
        hb[0, anchors, :, 0, anchors, :] = m[:, None, None] * ee
        # emb-out, (anchors, present, k, k)
        eo = (mp[:, :, None] * (w[None, :, :] - q[:, None, :]))[..., None] * e[:, None, None, :]
        eo += (mp - c)[:, :, None, None] * np.eye(k)
        rows, cols = anchors[:, None], present[None, :]
        hb[0, rows, :, 1, cols, :] = eo
        hb[1, cols, :, 0, rows, :] = eo.transpose(0, 1, 3, 2)
        # out-out, (present, present, k, k): the p p^T part is one contraction of
        # m p_l e_u e_u^T with p_l' over the anchors; the diag p part lands on l = l'
        eu = _outer_rows(e)
        weighted = (mp[:, :, None] * eu[:, None, :]).reshape(n_anchor, -1)
        oo = -(weighted.T @ p).reshape(n_present, k, k, n_present).transpose(0, 3, 1, 2)
        diag = np.arange(n_present)
        oo[diag, diag] += (mp.T @ eu).reshape(n_present, k, k)
        hb[1, present[:, None], :, 1, present[None, :], :] = oo
        return h

    def initial_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 0.1, self.dim)

    def reseeded(self, seed: int) -> "EmbedModel":
        return EmbedModel(self.graph, self.k, replace(self.walk_params, seed=seed))


class PairLossTarget(TargetFunction):
    """f(theta) = -log softmax(emb[u] . out[v]) over all nodes of the graph.

    The candidate set is fixed at construction (every node of the full
    graph), so the target stays the same function of theta across retrains.
    """

    def __init__(self, u: int, v: int, n: int, k: int):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("pair endpoints out of range")
        self.u, self.v, self.n, self.k = int(u), int(v), int(n), int(k)

    def value(self, theta):
        emb, out = _split(theta, self.n, self.k)
        s, _, lse = _softmax(emb[[self.u]], out)
        return float(lse[0] - s[0, self.v])

    def gradient(self, theta):
        emb, out = _split(theta, self.n, self.k)
        _, p, _ = _softmax(emb[[self.u]], out)
        p[0, self.v] -= 1.0  # dL/dS = p - e_v on the anchor row u
        return _scatter(p, emb, out, [self.u], slice(None))


def pair_loss_target(model: EmbedModel, u: int, v: int) -> PairLossTarget:
    return PairLossTarget(u, v, model.graph.n, model.k)
