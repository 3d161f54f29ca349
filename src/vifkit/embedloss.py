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

import numpy as np

from .errors import DataError, EmptyGraphError
from .losscore import LossModel, PresenceVector, TargetFunction

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
            canon = lo * self.n + hi
            if np.unique(canon).shape[0] != e.shape[0]:
                raise DataError("duplicate edges are not allowed")
            e = np.stack([lo, hi], axis=1)
            e = e[np.lexsort((e[:, 1], e[:, 0]))]
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
        if self.walks_per_node < 1 or self.walk_length < 1 or self.window < 1:
            raise ValueError("walks_per_node, walk_length, window must be >= 1")


@dataclass(frozen=True)
class WalkCorpus:
    walks: np.ndarray
    params: WalkParams
    present: tuple


def generate_walks(
    graph: Graph, b: PresenceVector, params: WalkParams
) -> WalkCorpus:
    """Uniform random walks restricted to present nodes.

    Returns the corpus as one (W, walk_length) int64 array, W = present
    nodes x walks_per_node.  Row r is walk r % walks_per_node from the
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
    draws = rng.random((present.size * params.walks_per_node, steps))
    walks = np.full((draws.shape[0], params.walk_length), -1, dtype=np.int64)
    walks[:, 0] = np.repeat(present, params.walks_per_node)
    # Only a start node can be a dead end: a walk that moved along an edge
    # can always step back along it.  Gathering on live rows alone also keeps
    # indptr[cur] of an isolated last node (== len(indices)) out of the index.
    live = np.flatnonzero(deg[walks[:, 0]] > 0)
    cur = walks[live, 0]
    for t in range(steps):
        cur = indices[indptr[cur] + (draws[live, t] * deg[cur]).astype(np.int64)]
        walks[live, t + 1] = cur
    return WalkCorpus(walks=walks, params=params, present=tuple(int(i) for i in present))


def walks_to_pairs(corpus: WalkCorpus, n: int) -> np.ndarray:
    """Ordered co-occurrence counts within the window, both directions.

    Returns an (n, n) count matrix C with C[u, v] = number of ordered pairs
    (anchor u, positive v) emitted by the corpus.  Entries of -1 in the
    padded walk array are not nodes and pair with nothing.
    """
    walks = corpus.walks
    forward = np.zeros(n * n, dtype=np.int64)
    for off in range(1, min(corpus.params.window, walks.shape[1] - 1) + 1):
        a, c = walks[:, :-off], walks[:, off:]
        both = (a >= 0) & (c >= 0)
        forward += np.bincount(a[both] * n + c[both], minlength=n * n)
    forward = forward.reshape(n, n)
    return (forward + forward.T).astype(np.float64)


def contrastive_value_from_pairs(
    emb: np.ndarray, out: np.ndarray, counts: np.ndarray, present: np.ndarray
) -> float:
    """Softmax cross entropy of the given pair counts.

    loss = sum_{u,v} C[u,v] * (-s_uv + logsumexp_{l present} s_ul), with
    s = emb @ out^T.  Pure function of (parameters, pairs); no regeneration.
    """
    m_row = counts.sum(axis=1)
    anchors = np.flatnonzero(m_row > 0)
    if anchors.size == 0:
        return 0.0
    scores = emb[anchors] @ out[present].T
    shift = scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scores - shift).sum(axis=1)) + shift[:, 0]
    cross = (counts[np.ix_(anchors, present)] * scores).sum()
    return float((m_row[anchors] * lse).sum() - cross)


class EmbedModel(LossModel):
    """Two-block node embedding (input rows, output rows) with full softmax.

    theta = [emb.ravel(), out.ravel()] where emb and out are (n, k); the
    score of positive v for anchor u is emb[u] . out[v].  Data objects are
    the graph nodes.
    """

    is_convex = False

    def __init__(self, graph: Graph, k: int, walk_params: WalkParams):
        if k < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.graph = graph
        self.k = k
        self.walk_params = walk_params
        self._pair_cache: dict[tuple, np.ndarray] = {}

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

    def _split(self, theta):
        n, k = self.graph.n, self.k
        emb = theta[: n * k].reshape(n, k)
        out = theta[n * k :].reshape(n, k)
        return emb, out

    def pair_counts(self, b: PresenceVector) -> np.ndarray:
        """Pair counts of b's walk corpus, built on a cache miss.

        The cache pins the full-presence counts and keeps one other presence
        vector, so a drop-one sweep builds n + 1 corpora and holds at most
        two n x n matrices.
        """
        key = b.key()
        counts = self._pair_cache.get(key)
        if counts is None:
            corpus = generate_walks(self.graph, b, self.walk_params)
            counts = walks_to_pairs(corpus, self.graph.n)
            if counts.sum() == 0:
                log.warning("walk corpus produced no co-occurrence pairs")
            if not b.is_full:
                # keep only the full-presence entry, whose key lists all n ids
                self._pair_cache = {
                    k: v for k, v in self._pair_cache.items() if len(k) == b.n
                }
            self._pair_cache[key] = counts
        return counts

    def value(self, theta, b):
        counts = self.pair_counts(b)
        emb, out = self._split(np.asarray(theta, dtype=np.float64))
        return contrastive_value_from_pairs(emb, out, counts, b.present_indices())

    def _score_softmax(self, theta, b):
        counts = self.pair_counts(b)
        emb, out = self._split(np.asarray(theta, dtype=np.float64))
        present = b.present_indices()
        m_row = counts.sum(axis=1)
        anchors = np.flatnonzero(m_row > 0)
        scores = emb[anchors] @ out[present].T
        shift = scores.max(axis=1, keepdims=True)
        ex = np.exp(scores - shift)
        probs = ex / ex.sum(axis=1, keepdims=True)
        return counts, emb, out, present, anchors, m_row, probs

    def gradient(self, theta, b):
        counts, emb, out, present, anchors, m_row, probs = self._score_softmax(theta, b)
        n, k = self.graph.n, self.k
        g_emb = np.zeros((n, k))
        g_out = np.zeros((n, k))
        if anchors.size:
            # dL/dS = m_u p_uv - C_uv on the (anchors x present) block
            gs = m_row[anchors, None] * probs - counts[np.ix_(anchors, present)]
            g_emb[anchors] = gs @ out[present]
            g_out[present] = gs.T @ emb[anchors]
        return np.concatenate([g_emb.ravel(), g_out.ravel()])

    def hessian(self, theta, b):
        counts, emb, out, present, anchors, m_row, probs = self._score_softmax(theta, b)
        n, k = self.graph.n, self.k
        d = self.dim
        half = n * k
        h = np.zeros((d, d))
        if anchors.size == 0:
            return h
        w_p = out[present]
        counts_ap = counts[np.ix_(anchors, present)]
        cross = np.zeros((half, half))  # emb rows x out cols
        ww4 = np.zeros((present.size, k, present.size, k))
        eye = np.eye(k)
        out_cols = ((present * k)[:, None] + np.arange(k)[None, :]).ravel()
        for a_idx, u in enumerate(anchors):
            p = probs[a_idx]
            m_u = m_row[u]
            e_u = emb[u]
            q = p @ w_p
            pw = w_p * p[:, None]
            # d2L/de_u de_u = m (sum_l p_l w_l w_l^T - q q^T)
            r0 = u * k
            h[r0 : r0 + k, r0 : r0 + k] += m_u * (w_p.T @ pw - np.outer(q, q))
            # d2L/de_u dw_l = g_ul I + m p_l (w_l - q) e_u^T
            g_row = m_u * p - counts_ap[a_idx]
            blk = np.einsum("l,ab->alb", g_row, eye)
            blk += np.einsum("la,b->alb", (m_u * p)[:, None] * (w_p - q), e_u)
            cross[r0 : r0 + k, out_cols] += blk.reshape(k, present.size * k)
            # d2L/dw_l dw_l' accumulates m (diag p - p p^T) x e_u e_u^T
            a_mat = m_u * (np.diag(p) - np.outer(p, p))
            ww4 += a_mat[:, None, :, None] * np.outer(e_u, e_u)[None, :, None, :]
        h[:half, half:] = cross
        h[half:, :half] = cross.T
        h[np.ix_(half + out_cols, half + out_cols)] += ww4.reshape(
            present.size * k, present.size * k
        )
        return h

    def num_terms(self, b: PresenceVector) -> int:
        return int(self.pair_counts(b).sum())

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

    def _split(self, theta):
        half = self.n * self.k
        return theta[:half].reshape(self.n, self.k), theta[half:].reshape(self.n, self.k)

    def value(self, theta):
        emb, out = self._split(np.asarray(theta, dtype=np.float64))
        scores = out @ emb[self.u]
        shift = scores.max()
        lse = float(np.log(np.exp(scores - shift).sum()) + shift)
        return lse - float(scores[self.v])

    def gradient(self, theta):
        emb, out = self._split(np.asarray(theta, dtype=np.float64))
        scores = out @ emb[self.u]
        ex = np.exp(scores - scores.max())
        p = ex / ex.sum()
        g_emb = np.zeros_like(emb)
        g_out = np.zeros_like(out)
        g_emb[self.u] = p @ out - out[self.v]
        g_out[:] = np.outer(p, emb[self.u])
        g_out[self.v] -= emb[self.u]
        return np.concatenate([g_emb.ravel(), g_out.ravel()])


def pair_loss_target(model: EmbedModel, u: int, v: int) -> PairLossTarget:
    return PairLossTarget(u, v, model.graph.n, model.k)
