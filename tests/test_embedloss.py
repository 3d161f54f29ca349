"""Node embedding loss: graphs, walk corpora, pair counts, softmax algebra."""

import hashlib

import numpy as np
import pytest

from conftest import count_calls
from vifkit.embedloss import (
    EmbedModel,
    Graph,
    WalkParams,
    generate_walks,
    pair_loss_target,
    walks_to_pairs,
)
import vifkit.embedloss as embedloss
from vifkit import files
from vifkit.errors import DataError, EmptyGraphError
from vifkit.losscore import PresenceVector, TrainConfig, check_gradient, check_hessian, train
from vifkit.synth import synth_graph


def path_graph(n):
    return Graph(n=n, edges=np.array([[i, i + 1] for i in range(n - 1)]))


def naive_pair_counts(graph, b, params):
    """Reference corpus: one walk at a time, one np.add.at per window offset.

    Same seeding and one rng.random(walk_length - 1) draw per walk, so its
    counts must equal EmbedModel.pair_counts bit for bit.
    """
    nbrs = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    present = b.present_indices()
    present_nbrs = [np.array([v for v in sorted(a) if b.bits[v]], dtype=np.int64)
                    for a in nbrs]
    rng = np.random.default_rng(
        np.random.SeedSequence([int(params.seed), *(int(i) for i in present)])
    )
    steps = params.walk_length - 1
    counts = np.zeros((graph.n, graph.n))
    for start in present:
        for _ in range(params.walks_per_node):
            draws = rng.random(steps) if steps else None
            walk = [start]
            cur = start
            for t in range(steps):
                options = present_nbrs[cur]
                if options.size == 0:
                    break
                cur = int(options[int(draws[t] * options.size)])
                walk.append(cur)
            walk = np.array(walk, dtype=np.int64)
            for off in range(1, min(params.window, walk.size - 1) + 1):
                np.add.at(counts, (walk[:-off], walk[off:]), 1.0)
                np.add.at(counts, (walk[off:], walk[:-off]), 1.0)
    return counts


def reference_hessian(model, theta, b):
    """The embedding Hessian assembled one anchor at a time, a term per block family."""
    counts = model.pair_counts(b)
    n, k = model.graph.n, model.k
    emb = theta[: n * k].reshape(n, k)
    out = theta[n * k :].reshape(n, k)
    present = b.present_indices()
    m_row = counts.sum(axis=1)
    anchors = np.flatnonzero(m_row > 0)
    half = n * k
    h = np.zeros((2 * half, 2 * half))
    if anchors.size == 0:
        return h
    w_p = out[present]
    scores = emb[anchors] @ w_p.T
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = ex / ex.sum(axis=1, keepdims=True)
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


def walk_lengths(walks):
    return (walks >= 0).sum(axis=1)


@pytest.fixture
def small_model():
    # triangle plus a tail keeps walks branching but cheap
    g = Graph(n=5, edges=np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]]))
    return EmbedModel(g, k=2, walk_params=WalkParams(10, 4, 2, seed=3))


class TestGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(DataError):
            Graph(n=3, edges=np.array([[1, 1]]))

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(DataError):
            Graph(n=3, edges=np.array([[0, 1], [1, 0]]))

    def test_endpoint_range_checked(self):
        with pytest.raises(DataError):
            Graph(n=3, edges=np.array([[0, 3]]))

    def test_edges_canonicalized(self):
        g = Graph(n=4, edges=np.array([[3, 1], [2, 0]]))
        np.testing.assert_array_equal(g.edges, [[0, 2], [1, 3]])

    def test_from_edge_list(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# comment line\n0 1\n\n2 1  # trailing comment\n")
        g = files.read_edges(p)
        assert g.n == 3 and g.n_edges == 2
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])

    def test_from_edge_list_malformed(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 2\n")
        with pytest.raises(DataError):
            files.read_edges(p)

    def test_without_node_renumbers(self):
        g = Graph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3]]))
        cut = g.without_node(1)
        assert cut.n == 3
        np.testing.assert_array_equal(cut.edges, [[1, 2]])


class TestWalks:
    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_walks_per_node_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="walks_per_node must be an int >= 1"):
            WalkParams(walks_per_node=value)

    def test_deterministic_per_seed(self):
        g = path_graph(6)
        b = PresenceVector.all_ones(6)
        wp = WalkParams(5, 4, 2, seed=11)
        w1 = generate_walks(g, b, wp)
        np.testing.assert_array_equal(w1, generate_walks(g, b, wp))
        assert not np.array_equal(w1, generate_walks(g, b, WalkParams(5, 4, 2, seed=12)))

    def test_walks_respect_presence(self):
        g = path_graph(6)
        b = PresenceVector.drop(6, 3)
        walks = generate_walks(g, b, WalkParams(8, 5, 2, seed=0))
        assert walks.shape == (8 * 5, 5) and walks.dtype == np.int64
        assert not np.any(walks == 3)
        assert not walks.flags.writeable

    def test_isolated_node_stops_immediately(self):
        g = Graph(n=3, edges=np.array([[0, 1]]))
        walks = generate_walks(g, PresenceVector.all_ones(3), WalkParams(2, 5, 2, 0))
        from_isolated = walks[:, 0] == 2
        assert from_isolated.sum() == 2
        np.testing.assert_array_equal(walk_lengths(walks)[from_isolated], 1)
        np.testing.assert_array_equal(walk_lengths(walks)[~from_isolated], 5)

    def test_fewer_than_two_present_raises(self):
        g = path_graph(3)
        b = PresenceVector.all_ones(3).without(0).without(1)
        with pytest.raises(EmptyGraphError):
            generate_walks(g, b, WalkParams(1, 2, 1, 0))

    def test_presence_length_checked(self):
        with pytest.raises(ValueError):
            generate_walks(path_graph(3), PresenceVector.all_ones(4),
                           WalkParams(1, 2, 1, 0))


class TestWalksToPairs:
    def test_single_walk_window_counts(self):
        # walk (0,1,2): offsets 1 and 2 give 3 forward pairs, doubled by the
        # reverse direction, 6 ordered pairs total; the stopped walk (1) and
        # its -1 padding add none
        c = walks_to_pairs(np.array([[0, 1, 2], [1, -1, -1]]), 3, 3)
        assert c.sum() == 6
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(c, expected)

    def test_window_truncates(self):
        c = walks_to_pairs(np.array([[0, 1, 2]]), 3, 1)
        assert c.sum() == 4  # only the two adjacent pairs, both directions
        assert c[0, 2] == 0

    def test_read_only_corpus_with_dead_start_left_unchanged(self):
        walks = np.array([[0, 1, 2], [1, -1, -1]])
        walks.setflags(write=False)
        before = walks.copy()
        c = walks_to_pairs(walks, 3, 3)
        np.testing.assert_array_equal(walks, before)
        assert c.sum() == 6

    def test_counts_add_over_a_split_of_the_walks(self):
        params = WalkParams(5, 6, 3, seed=8)
        walks = generate_walks(KARATE, PresenceVector.drop(34, 0), params)
        rows = np.arange(walks.shape[0]) % 3 == 0
        parts = walks_to_pairs(walks[rows], 34, 3) + walks_to_pairs(walks[~rows], 34, 3)
        np.testing.assert_array_equal(parts, walks_to_pairs(walks, 34, 3))

    def test_two_node_alternation_by_hand(self):
        g = Graph(n=2, edges=np.array([[0, 1]]))
        walks = generate_walks(g, PresenceVector.all_ones(2), WalkParams(1, 4, 3, 0))
        c = walks_to_pairs(walks, 2, 3)
        # both walks alternate deterministically; counted by hand
        np.testing.assert_array_equal(c, [[4.0, 8.0], [8.0, 4.0]])


KARATE = synth_graph(preset="karate")
ORACLE_CASES = {
    # node 11's only neighbor is node 0, so its walks stop at the start
    "karate-without-0": (KARATE, PresenceVector.drop(34, 0), WalkParams(4, 6, 3, seed=1)),
    "isolated-last-node": (
        Graph(n=4, edges=np.array([[0, 1], [1, 2]])),
        PresenceVector.all_ones(4),
        WalkParams(3, 5, 2, seed=2),
    ),
    "walk-length-1": (KARATE, PresenceVector.all_ones(34), WalkParams(3, 1, 3, seed=3)),
    "window-beyond-length": (path_graph(7), PresenceVector.drop(7, 2),
                             WalkParams(5, 4, 9, seed=4)),
}


class TestPairCountsOracle:
    """Bulk corpus against the walk-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_edge_cases(self, case):
        graph, b, params = ORACLE_CASES[case]
        model = EmbedModel(graph, k=2, walk_params=params)
        np.testing.assert_array_equal(
            model.pair_counts(b), naive_pair_counts(graph, b, params)
        )

    def test_stranded_node_counted_nowhere(self):
        graph, b, params = ORACLE_CASES["karate-without-0"]
        walks = generate_walks(graph, b, params)
        np.testing.assert_array_equal(walk_lengths(walks)[walks[:, 0] == 11], 1)
        assert EmbedModel(graph, 2, params).pair_counts(b)[11].sum() == 0

    def test_karate_full_and_every_drop_one(self):
        params = WalkParams(3, 6, 3, seed=5)
        model = EmbedModel(KARATE, k=2, walk_params=params)
        ones = PresenceVector.all_ones(34)
        for b in [ones] + [ones.without(i) for i in range(34)]:
            np.testing.assert_array_equal(
                model.pair_counts(b), naive_pair_counts(KARATE, b, params)
            )


# sha256 over the float64 bytes of the 35 karate count matrices at the
# benchmark's walk settings (full presence, then without node 0, 1, ..., 33),
# where the walk-at-a-time oracle is too slow to run; recorded from the
# masked per-offset kernels that preceded the time-major ones
BENCH_SCALE_COUNTS_SHA256 = "bbc5129cadb42f463eb96457038609be3ceb4031987b186825036abe9337af1e"


def test_bench_scale_counts_pinned():
    model = EmbedModel(KARATE, k=2, walk_params=WalkParams(250, 6, 3, seed=42))
    ones = PresenceVector.all_ones(34)
    digest = hashlib.sha256()
    for b in [ones] + [ones.without(i) for i in range(34)]:
        digest.update(model.pair_counts(b).tobytes())
    assert digest.hexdigest() == BENCH_SCALE_COUNTS_SHA256


class TestEmbedModel:
    def test_delta_gradients_are_gradient_differences(self, small_model, monkeypatch):
        theta = np.random.default_rng(3).normal(0.0, 0.2, small_model.dim)
        ones = PresenceVector.all_ones(5)
        g_full = small_model.gradient(theta, ones)
        want = [g_full - small_model.gradient(theta, ones.without(i)) for i in (4, 1, 2)]
        calls = count_calls(monkeypatch, small_model, "gradient")
        d = small_model.delta_gradients(theta, [4, 1, 2])
        assert len(calls) == 3 + 1  # one full-presence gradient serves every row
        assert d.shape == (3, small_model.dim)
        for row in range(3):
            np.testing.assert_array_equal(d[row], want[row])
        assert small_model.delta_gradients(theta, []).shape == (0, small_model.dim)

    def test_value_matches_manual_cross_entropy(self, small_model):
        b = PresenceVector.all_ones(5)
        rng = np.random.default_rng(0)
        theta = rng.normal(0.0, 0.2, small_model.dim)
        counts = small_model.pair_counts(b)
        emb = theta[:10].reshape(5, 2)
        out = theta[10:].reshape(5, 2)
        scores = emb @ out.T
        manual = 0.0
        for u in range(5):
            for v in range(5):
                if counts[u, v]:
                    lse = np.log(np.exp(scores[u]).sum())
                    manual += counts[u, v] * (lse - scores[u, v])
        assert small_model.value(theta, b) == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("case", ["full", "drop-one", "karate-without-0"])
    def test_hessian_matches_per_anchor_reference(self, small_model, case):
        model, b = {
            "full": (small_model, PresenceVector.all_ones(5)),
            "drop-one": (small_model, PresenceVector.drop(5, 2)),
            # node 11's only neighbor is node 0: it is present but anchors nothing
            "karate-without-0": (EmbedModel(KARATE, 3, WalkParams(4, 6, 3, seed=1)),
                                 PresenceVector.drop(34, 0)),
        }[case]
        theta = np.random.default_rng(8).normal(0.0, 0.3, model.dim)
        h = model.hessian(theta, b)
        want = reference_hessian(model, theta, b)
        assert np.abs(h - want).max() <= 1e-13 * np.abs(want).max()

    def test_gradient_and_hessian_check(self, small_model):
        rng = np.random.default_rng(1)
        theta = rng.normal(0.0, 0.2, small_model.dim)
        for b in (PresenceVector.all_ones(5), PresenceVector.drop(5, 1)):
            assert check_gradient(small_model, theta, b) < 1e-6
            assert check_hessian(small_model, theta, b) < 1e-5

    def test_absent_node_rows_frozen(self, small_model):
        rng = np.random.default_rng(2)
        theta = rng.normal(0.0, 0.2, small_model.dim)
        b = PresenceVector.drop(5, 4)
        g = small_model.gradient(theta, b)
        emb_rows = g[:10].reshape(5, 2)
        out_rows = g[10:].reshape(5, 2)
        np.testing.assert_array_equal(emb_rows[4], 0.0)
        np.testing.assert_array_equal(out_rows[4], 0.0)

    def test_mask_equals_delete_for_trailing_node(self, small_model):
        b = PresenceVector.drop(5, 4)
        cut = EmbedModel(small_model.graph.without_node(4), k=2,
                         walk_params=small_model.walk_params)
        rng = np.random.default_rng(3)
        theta = rng.normal(0.0, 0.2, small_model.dim)
        emb = theta[:10].reshape(5, 2)
        out = theta[10:].reshape(5, 2)
        theta_cut = np.concatenate([emb[:4].ravel(), out[:4].ravel()])
        ones4 = PresenceVector.all_ones(4)
        assert small_model.value(theta, b) == cut.value(theta_cut, ones4)
        g_masked = small_model.gradient(theta, b)
        g_cut = cut.gradient(theta_cut, ones4)
        assert (g_masked[:10].reshape(5, 2)[:4].ravel() == g_cut[:8]).all()
        assert (g_masked[10:].reshape(5, 2)[:4].ravel() == g_cut[8:]).all()
        h_kept = small_model.hessian(theta, b).reshape(2, 5, 2, 2, 5, 2)[:, :4, :, :, :4, :]
        np.testing.assert_array_equal(h_kept.reshape(16, 16), cut.hessian(theta_cut, ones4))

    def test_pair_algebra_permutation_invariance(self, small_model):
        """Relabeling nodes consistently in parameters and counts leaves the
        softmax cross entropy of the anchor block unchanged."""
        b = PresenceVector.all_ones(5)
        counts = small_model.pair_counts(b)
        rng = np.random.default_rng(4)
        emb = rng.normal(0.0, 0.3, (5, 2))
        out = rng.normal(0.0, 0.3, (5, 2))
        present = np.arange(5)

        def value(emb, out, counts):
            pairs = embedloss._Pairs(counts, present, *embedloss._anchor_block(counts, present))
            return embedloss._value(emb, out, pairs)

        base = value(emb, out, counts)
        assert base == small_model.value(np.concatenate([emb.ravel(), out.ravel()]), b)
        perm = rng.permutation(5)
        emb_p = np.empty_like(emb)
        out_p = np.empty_like(out)
        counts_p = np.empty_like(counts)
        emb_p[perm] = emb
        out_p[perm] = out
        counts_p[np.ix_(perm, perm)] = counts
        assert value(emb_p, out_p, counts_p) == pytest.approx(base, rel=1e-12)

    def test_drop_one_sweep_cache_is_bounded(self, small_model, monkeypatch):
        builds = []
        real = embedloss.generate_walks

        def counted(graph, b, params):
            builds.append(b.key())
            return real(graph, b, params)

        monkeypatch.setattr(embedloss, "generate_walks", counted)
        rng = np.random.default_rng(7)
        theta = rng.normal(0.0, 0.2, small_model.dim)
        ones = PresenceVector.all_ones(5)
        first = {}
        for b in [ones] + [ones.without(i) for i in range(5)]:
            small_model.gradient(theta, ones)
            small_model.gradient(theta, b)
            first[b.key()] = small_model.pair_counts(b).copy()
            assert len(small_model._pair_cache) <= 2
        assert len(builds) == 5 + 1
        evicted = ones.without(0)
        np.testing.assert_array_equal(small_model.pair_counts(evicted), first[evicted.key()])
        assert len(builds) == 5 + 2 and len(small_model._pair_cache) == 2

    def test_anchor_block_built_once_per_presence_vector(self, small_model, monkeypatch):
        blocks = count_calls(monkeypatch, embedloss, "_anchor_block")
        theta = np.random.default_rng(8).normal(0.0, 0.2, small_model.dim)
        ones, b = PresenceVector.all_ones(5), PresenceVector.drop(5, 1)
        first = small_model.gradient(theta, b)
        for _ in range(3):
            small_model.gradient(theta, ones)
            small_model.hessian(theta, b)
        assert len(blocks) == 2
        np.testing.assert_array_equal(small_model.gradient(theta, b), first)
        assert len(blocks) == 2

    def test_k_must_be_an_int(self):
        with pytest.raises(ValueError, match="k must be an int >= 1, got 2.0"):
            EmbedModel(path_graph(4), k=2.0, walk_params=WalkParams())

    def test_minibatch_training_refused_before_any_walk(self, small_model):
        cfg = TrainConfig(optimizer="adam", batch_size=4)
        with pytest.raises(ValueError, match="no per-term gradients"):
            train(small_model, PresenceVector.all_ones(5), cfg)
        assert small_model._pair_cache == {}

    def test_no_per_term_hvp(self, small_model):
        assert not small_model.supports_per_term_hvp

    def test_reseeded_changes_walks(self, small_model):
        other = small_model.reseeded(99)
        b = PresenceVector.all_ones(5)
        assert not np.array_equal(small_model.pair_counts(b), other.pair_counts(b))
        assert other.walk_params.seed == 99

    def test_declared_non_convex(self, small_model):
        assert small_model.is_convex is False


class TestPairLossTarget:
    def test_value_is_softmax_cross_entropy(self, small_model):
        rng = np.random.default_rng(5)
        theta = rng.normal(0.0, 0.3, small_model.dim)
        t = pair_loss_target(small_model, 1, 3)
        emb = theta[:10].reshape(5, 2)
        out = theta[10:].reshape(5, 2)
        scores = out @ emb[1]
        expected = np.log(np.exp(scores).sum()) - scores[3]
        assert t.value(theta) == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_difference(self, small_model):
        rng = np.random.default_rng(6)
        theta = rng.normal(0.0, 0.3, small_model.dim)
        t = pair_loss_target(small_model, 0, 4)
        g = t.gradient(theta)
        h = 1e-6
        for j in rng.choice(small_model.dim, 6, replace=False):
            e = np.zeros(small_model.dim)
            e[j] = h
            fd = (t.value(theta + e) - t.value(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)

    def test_endpoints_validated(self, small_model):
        with pytest.raises(ValueError):
            pair_loss_target(small_model, 0, 9)
