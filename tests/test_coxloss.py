"""Cox partial likelihood: values, derivatives, deletion algebra, classical IF."""

import pickle

import numpy as np
import pytest

from conftest import count_calls
from vifkit import coxloss, files
from vifkit.coxloss import CoxModel, SurvivalDataset, reid_if, relative_risk_target
from vifkit.errors import DataError, NoEventsError
from vifkit.harness import loo_retrain
from vifkit.losscore import PresenceVector, TrainConfig, train
from vifkit.synth import synth_survival


def risk_sets(data, b):
    """At-risk sets for each present event, as sorted index arrays."""
    present = b.present_indices()
    return [present[data.y[present] >= data.y[i]] for i in present if data.delta[i] == 1]


def naive_cox(theta, data, b):
    """Literal risk-set implementation: value, gradient, Hessian by loops."""
    sets = risk_sets(data, b)
    events = [i for i in b.present_indices() if data.delta[i] == 1]
    val = 0.0
    grad = np.zeros(data.d)
    hess = np.zeros((data.d, data.d))
    for i, members in zip(events, sets):
        w = np.exp(data.x[members] @ theta)
        s0 = w.sum()
        r1 = (w[:, None] * data.x[members]).sum(axis=0) / s0
        r2 = (w[:, None, None] * data.x[members][:, :, None]
              * data.x[members][:, None, :]).sum(axis=0) / s0
        val += np.log(s0) - float(theta @ data.x[i])
        grad += r1 - data.x[i]
        hess += r2 - np.outer(r1, r1)
    return val, grad, hess


def reference_cox_gradient(theta, data, b, dtype=np.float64):
    """-sum over events of (x_j - s1_j/s0_j) from (n, d) suffix sums of w x.

    The suffix-sum form the one-GEMV gradient replaced, kept as its oracle;
    dtype=np.longdouble gives an extended-precision evaluation.
    """
    present = b.present_indices()
    idx = present[np.argsort(data.y[present], kind="stable")]
    xs = data.x[idx].astype(dtype)
    eta = xs @ np.asarray(theta, dtype=dtype)
    w = np.exp(eta - eta.max())
    ev = np.flatnonzero(data.delta[idx] == 1)
    s0 = np.cumsum(w[::-1])[::-1][ev]
    s1 = np.cumsum((w[:, None] * xs)[::-1], axis=0)[::-1][ev]
    return -(xs[ev] - s1 / s0[:, None]).sum(axis=0)


class ReferenceGradientCox(CoxModel):
    def gradient(self, theta, b):
        return reference_cox_gradient(theta, self.data, b)


@pytest.fixture(scope="module")
def survival40():
    return synth_survival(40, 3, theta_star=[1.0, -0.5, 0.25], censor_rate=0.3, seed=5)


class TestSurvivalDataset:
    def test_ties_rejected(self):
        with pytest.raises(DataError):
            SurvivalDataset(x=np.ones((2, 1)), y=np.array([1.0, 1.0]),
                            delta=np.array([1, 1]))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DataError):
            SurvivalDataset(x=np.ones((2, 1)), y=np.array([0.0, 1.0]),
                            delta=np.array([1, 1]))

    def test_bad_delta_rejected(self):
        with pytest.raises(DataError):
            SurvivalDataset(x=np.ones((2, 1)), y=np.array([1.0, 2.0]),
                            delta=np.array([1, 2]))

    def test_csv_round_trip(self, tmp_path, survival40):
        path = tmp_path / "s.csv"
        header = "y,delta," + ",".join(f"x{j+1}" for j in range(survival40.d))
        rows = [header]
        for i in range(survival40.n):
            cells = [repr(float(survival40.y[i])), str(int(survival40.delta[i]))]
            cells += [repr(float(v)) for v in survival40.x[i]]
            rows.append(",".join(cells))
        path.write_text("\n".join(rows) + "\n")
        loaded = files.read_survival(path)
        np.testing.assert_array_equal(loaded.y, survival40.y)
        np.testing.assert_array_equal(loaded.delta, survival40.delta)
        np.testing.assert_array_equal(loaded.x, survival40.x)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,delta,x1\n1.0,1,0.5\n")
        with pytest.raises(DataError):
            files.read_survival(path)

    def test_without_removes_one_record(self, survival40):
        cut = survival40.without(7)
        assert cut.n == survival40.n - 1
        assert survival40.y[7] not in cut.y


class TestCoxValue:
    def test_zero_theta_counts_risk_sets(self):
        # at theta = 0 each event contributes log |at-risk set|
        data = SurvivalDataset(
            x=np.array([[0.5], [-1.0], [2.0]]),
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 1, 1]),
        )
        b = PresenceVector.all_ones(3)
        assert CoxModel(data).value(np.zeros(1), b) == pytest.approx(
            1.791759469228055, abs=1e-14
        )

    def test_matches_naive_reference(self, survival40):
        model = CoxModel(survival40)
        rng = np.random.default_rng(0)
        for trial in range(5):
            theta = rng.normal(0.0, 0.5, survival40.d)
            b = PresenceVector.all_ones(40)
            if trial % 2:
                b = b.without(int(rng.integers(40)))
            val, grad, hess = naive_cox(theta, survival40, b)
            assert model.value(theta, b) == pytest.approx(val, rel=1e-12)
            np.testing.assert_allclose(model.gradient(theta, b), grad, atol=1e-10)
            np.testing.assert_allclose(model.hessian(theta, b), hess, atol=1e-10)

    def test_feature_shift_invariance(self, survival40):
        shifted = SurvivalDataset(
            x=survival40.x + np.array([3.0, -2.0, 0.5]),
            y=survival40.y, delta=survival40.delta,
        )
        theta = np.array([0.4, -0.3, 0.2])
        b = PresenceVector.all_ones(40)
        model, moved = CoxModel(survival40), CoxModel(shifted)
        assert moved.value(theta, b) == pytest.approx(model.value(theta, b), rel=1e-12)
        np.testing.assert_allclose(
            moved.gradient(theta, b), model.gradient(theta, b), atol=1e-10,
        )

    def test_all_censored_raises(self):
        data = SurvivalDataset(
            x=np.ones((3, 1)), y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([0, 0, 0]),
        )
        with pytest.raises(NoEventsError):
            CoxModel(data).value(np.zeros(1), PresenceVector.all_ones(3))


class TestCoxModel:
    def test_mask_equals_delete(self, survival40):
        model = CoxModel(survival40)
        theta = np.array([0.2, 0.1, -0.4])
        for i in (0, 13, 39):
            b = PresenceVector.drop(40, i)
            cut = CoxModel(survival40.without(i))
            ones = PresenceVector.all_ones(39)
            assert model.value(theta, b) == cut.value(theta, ones)
            np.testing.assert_array_equal(
                model.gradient(theta, b), cut.gradient(theta, ones)
            )
            np.testing.assert_array_equal(
                model.hessian(theta, b), cut.hessian(theta, ones)
            )

    def test_delta_gradient_is_exact_difference(self, survival40):
        model = CoxModel(survival40)
        rng = np.random.default_rng(1)
        theta = rng.normal(0.0, 0.4, 3)
        ones = PresenceVector.all_ones(40)
        g_full = model.gradient(theta, ones)
        for i in range(40):
            direct = g_full - model.gradient(theta, ones.without(i))
            np.testing.assert_allclose(
                model.delta_gradients(theta, [i])[0], direct, atol=1e-12
            )

    def test_per_term_hvp_sums_to_hessian(self, survival40):
        model = CoxModel(survival40)
        rng = np.random.default_rng(2)
        theta = rng.normal(0.0, 0.3, 3)
        v = rng.standard_normal(3)
        for b in (PresenceVector.all_ones(40), PresenceVector.drop(40, 11)):
            total = sum(
                model.per_term_hvp(j, theta, b, v)
                for j in range(model.num_terms(b))
            )
            np.testing.assert_allclose(
                total, model.hessian(theta, b) @ v, atol=1e-10
            )

    def test_term_gradient_sum_over_all_events(self, survival40):
        model = CoxModel(survival40)
        theta = np.array([0.1, -0.2, 0.3])
        b = PresenceVector.all_ones(40)
        idx = np.arange(model.num_terms(b))
        np.testing.assert_allclose(
            model.term_gradient_sum(theta, b, idx),
            model.gradient(theta, b), atol=1e-11,
        )

    def test_num_terms_counts_present_events(self, survival40):
        model = CoxModel(survival40)
        ones = PresenceVector.all_ones(40)
        assert model.num_terms(ones) == int(survival40.delta.sum())
        ev = int(np.flatnonzero(survival40.delta == 1)[0])
        assert model.num_terms(ones.without(ev)) == model.num_terms(ones) - 1


def reference_delta_gradient(model, theta, i):
    """One record's drop-one gradient by the per-record loop that the blocked
    delta_gradients replaced: the same formula, one record at a time."""
    lay, s, r1 = model._cached_sweep(theta, PresenceVector.all_ones(model.data.n))
    pos = lay.rank[i]
    x_i, w_i = lay.xs[pos], s.w[pos]
    out = np.zeros(model.dim)
    e = int(np.searchsorted(lay.ev, pos))  # events strictly before record i
    if e < lay.ev.size and lay.ev[e] == pos:
        out -= x_i - r1[e]
    c = 1.0 / (s.s0[:e] - w_i)
    return out + w_i * (x_i * c.sum() - c @ r1[:e])


@pytest.fixture(scope="module")
def survival_tail():
    """n=2000 with a few high-eta records late in time and two records
    before every event: one censored, one an event."""
    data = synth_survival(2000, 4, theta_star=[0.8, -0.4, 0.3, 0.1], censor_rate=0.3, seed=9)
    x, delta = data.x.copy(), data.delta.copy()
    order = np.argsort(data.y)
    x[order[-8:-3]] = [3.0, -1.5, 1.0, 0.5]  # eta far above the rest, at the latest times
    delta[order[0]], delta[order[1]] = 0, 1
    return SurvivalDataset(x, data.y, delta)


class TestDeltaGradients:
    def test_blocked_matches_stacked_and_loop(self, survival_tail, monkeypatch):
        model = CoxModel(survival_tail)
        theta = np.array([0.8, -0.4, 0.3, 0.1])
        ids = np.random.default_rng(4).permutation(2000)
        stacked = np.stack([model.delta_gradients(theta, [i])[0] for i in ids])
        loop = np.stack([reference_delta_gradient(model, theta, i) for i in ids])
        # the default cap, blocks of a few rows with different event counts,
        # and one-row blocks for every record with more than 50 earlier events
        for cap in (coxloss.DELTA_BLOCK_ENTRIES, 5000, 50):
            monkeypatch.setattr(coxloss, "DELTA_BLOCK_ENTRIES", cap)
            d = model.delta_gradients(theta, ids)
            assert d.shape == (2000, 4)
            for want in (stacked, loop):
                assert np.abs(d - want).max() <= 1e-12 * np.abs(want).max()
        tail = np.argsort(survival_tail.y)[-8:-3]
        rows = np.flatnonzero(np.isin(ids, tail))
        assert np.abs(d[rows] - loop[rows]).max() <= 1e-12 * np.abs(loop[rows]).max()
        first, second = np.argsort(survival_tail.y)[:2]
        np.testing.assert_array_equal(d[ids == first][0], np.zeros(4))
        np.testing.assert_array_equal(d[ids == second][0], loop[ids == second][0])

    def test_matches_gradient_difference(self, survival40):
        model = CoxModel(survival40)
        theta = np.array([0.3, -0.1, 0.2])
        ones = PresenceVector.all_ones(40)
        g_full = model.gradient(theta, ones)
        direct = np.stack([g_full - model.gradient(theta, ones.without(i)) for i in range(40)])
        np.testing.assert_allclose(model.delta_gradients(theta, range(40)), direct, atol=1e-12)

    def test_block_per_term_hvp_matches_columns(self, survival40):
        model = CoxModel(survival40)
        rng = np.random.default_rng(7)
        theta = rng.normal(0.0, 0.3, 3)
        v = rng.standard_normal((3, 5))
        for b in (PresenceVector.all_ones(40), PresenceVector.drop(40, 11)):
            for j in range(model.num_terms(b)):
                block = model.per_term_hvp(j, theta, b, v)
                cols = np.stack([model.per_term_hvp(j, theta, b, c) for c in v.T], axis=1)
                assert block.shape == (3, 5)
                np.testing.assert_allclose(block, cols, rtol=1e-12, atol=1e-14)


class TestGradientOracle:
    def test_matches_suffix_sum_reference(self, survival40):
        rng = np.random.default_rng(3)
        ones = PresenceVector.all_ones(40)
        for trial in range(10):
            theta = rng.normal(0.0, 0.5, 3)
            for b in (ones, ones.without(trial)):
                want = reference_cox_gradient(theta, survival40, b)
                got = CoxModel(survival40).gradient(theta, b)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_no_less_accurate_than_reference(self):
        """Against a long-double evaluation, the worst error of the GEMV form
        over a fixed set of points stays within 2x the suffix-sum form's."""
        data = synth_survival(2000, 10, theta_star=np.linspace(1.0, -0.5, 10),
                              censor_rate=0.2, seed=3)
        rng = np.random.default_rng(0)
        model = CoxModel(data)
        ones = PresenceVector.all_ones(2000)
        err_new = err_ref = 0.0
        for _ in range(6):
            theta = rng.normal(0.0, 0.3, 10)
            for b in (ones, ones.without(17)):
                exact = reference_cox_gradient(theta, data, b, dtype=np.longdouble)
                err_new = max(err_new, float(np.abs(model.gradient(theta, b) - exact).max()))
                err_ref = max(err_ref, float(
                    np.abs(reference_cox_gradient(theta, data, b) - exact).max()))
        assert 0.0 < err_ref
        assert err_new <= 2.0 * err_ref

    def test_adam_path_follows_reference(self):
        data = synth_survival(200, 3, theta_star=[1.0, -0.5, 0.25],
                              censor_rate=0.2, seed=42)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=200, seed=42)
        ones = PresenceVector.all_ones(200)
        for b in (ones, ones.without(5)):
            got = train(CoxModel(data), b, cfg).theta
            want = train(ReferenceGradientCox(data), b, cfg).theta
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture(scope="module")
def survival_edges():
    """n=40 with a record censored before every event and an event last in
    time order, whose drop leaves s0 = 0 at that event."""
    data = synth_survival(40, 3, theta_star=[1.0, -0.5, 0.25], censor_rate=0.3, seed=13)
    order = np.argsort(data.y)
    delta = data.delta.copy()
    delta[order[0]], delta[order[-1]] = 0, 1
    return SurvivalDataset(data.x, data.y, delta)


class TestDropOneGradients:
    def per_row(self, model, thetas, ids):
        ones = PresenceVector.all_ones(model.n_objects)
        return np.array([model.gradient(t, ones.without(int(i))) for t, i in zip(thetas, ids)])

    def test_matches_per_row_gradients(self, survival_edges):
        data = survival_edges
        model = CoxModel(data)
        order = np.argsort(data.y)
        first_event = int(order[np.flatnonzero(data.delta[order] == 1)[0]])
        censored = int(np.flatnonzero(data.delta == 0)[-1])
        rng = np.random.default_rng(3)
        thetas = rng.normal(0.0, 0.6, (6, 3))
        ids = [
            first_event,  # a dropped event
            int(order[0]),  # censored before the first event
            int(order[-1]),  # last in time order, an event
            censored,
            int(np.argmax(data.x @ thetas[4])),  # holds the max eta of its row
            int(order[-1]),
        ]
        assert data.delta[order[0]] == 0 and data.delta[order[-1]] == 1
        got = model.drop_one_gradients(thetas, ids)
        want = self.per_row(model, thetas, ids)
        assert got.shape == (6, 3)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()

    def test_every_record_at_one_theta(self, survival_edges):
        model = CoxModel(survival_edges)
        theta = np.array([0.4, -0.3, 0.2])
        ids = np.arange(40)
        thetas = np.tile(theta, (40, 1))
        got = model.drop_one_gradients(thetas, ids)
        want = self.per_row(model, thetas, ids)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the batched gradients give the same drop-one matrix D
        full = model.gradient(theta, PresenceVector.all_ones(40))
        np.testing.assert_allclose(
            full - got, model.delta_gradients(theta, ids), rtol=0, atol=1e-12
        )

    def test_no_rows(self, survival40):
        got = CoxModel(survival40).drop_one_gradients(np.empty((0, 3)), [])
        assert got.shape == (0, 3)

    def test_reused_buffers_give_a_fresh_models_bits(self, survival_edges):
        """The model's sweep buffers carry nothing from one call to the next,
        and no returned block is a view of them."""
        model = CoxModel(survival_edges)
        rng = np.random.default_rng(8)
        calls = []
        for rows in (6, 6, 6, 3, 40, 6):  # 3 and 40 rows need new buffer shapes
            ids = rng.choice(40, size=rows, replace=rows > 40)
            calls.append((rng.normal(0.0, 0.6, (rows, 3)), ids))
        kept = []
        for thetas, ids in calls:
            got = model.drop_one_gradients(thetas, ids)
            want = CoxModel(survival_edges).drop_one_gradients(thetas, ids)
            assert got.tobytes() == want.tobytes()
            assert model._drop_one_out[0].shape == (40, len(ids))
            assert not any(np.shares_memory(got, buf) for buf in model._drop_one_out)
            kept.append((got, got.copy()))
        for got, copy in kept:  # later calls leave earlier blocks alone
            assert got.tobytes() == copy.tobytes()

    def test_pickled_model_carries_no_buffers(self, survival40):
        model = CoxModel(survival40)
        thetas, ids = np.full((4, 3), 0.2), [0, 7, 13, 39]
        got = model.drop_one_gradients(thetas, ids)
        clone = pickle.loads(pickle.dumps(model))
        assert model._drop_one_out is not None and clone._drop_one_out is None
        assert clone.drop_one_gradients(thetas, ids).tobytes() == got.tobytes()

    def test_dropping_the_only_event_raises(self):
        data = SurvivalDataset(
            x=np.array([[1.0], [0.5], [-0.5], [2.0]]),
            y=np.array([0.5, 1.0, 2.0, 3.0]),
            delta=np.array([0, 1, 0, 0]),
        )
        model = CoxModel(data)
        np.testing.assert_allclose(
            model.drop_one_gradients(np.zeros((2, 1)), [0, 3]),
            self.per_row(model, np.zeros((2, 1)), [0, 3]),
            rtol=1e-13,
        )
        with pytest.raises(NoEventsError):
            model.drop_one_gradients(np.zeros((2, 1)), [0, 1])


class TestLayoutCache:
    def test_one_layout_per_presence_vector(self, survival40, monkeypatch):
        builds = count_calls(monkeypatch, coxloss, "_layout")
        model = CoxModel(survival40)
        ones = PresenceVector.all_ones(40)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=50, seed=1)
        full = train(model, ones, cfg)
        assert len(builds) == 1

        # lockstep leave-one-out sweeps the full layout with the dropped
        # records weighted out, so it sorts no layout of its own
        objects = [0, 5, 13, 39]
        loo_retrain(model, cfg, objects, targets=[], full_result=full)
        assert len(builds) == 1
        assert len(model._layouts) <= 2

        theta = full.theta
        first = model.gradient(theta, ones.without(0))
        assert len(builds) == 2
        for i in (1, 2, 0):  # evicts vector 0, then rebuilds it
            model.gradient(theta, ones.without(i))
            assert len(model._layouts) <= 2
        assert len(builds) == 5
        np.testing.assert_array_equal(model.gradient(theta, ones.without(0)), first)
        assert len(builds) == 5


class TestReidInfluence:
    def test_censored_before_all_events_has_zero_influence(self):
        data = SurvivalDataset(
            x=np.array([[1.0], [0.5], [-0.5], [2.0]]),
            y=np.array([0.5, 1.0, 2.0, 3.0]),
            delta=np.array([0, 1, 1, 1]),
        )
        np.testing.assert_array_equal(reid_if(np.array([0.3]), data, 0), np.zeros(1))

    def test_out_of_range_id_rejected(self, survival40):
        """A negative id would alias the record counted from the end."""
        theta = np.array([0.3, -0.1, 0.2])
        for bad in (-1, 40):
            with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                reid_if(theta, survival40, bad)

    def test_tracks_loo_refit(self, survival40):
        model = CoxModel(survival40)
        cfg = TrainConfig(optimizer="newton", epochs=50)
        theta = train(model, PresenceVector.all_ones(40), cfg).theta
        rel_errs = []
        for i in range(40):
            cut = CoxModel(survival40.without(i))
            theta_i = train(cut, PresenceVector.all_ones(39), cfg).theta
            truth = 40.0 * (theta - theta_i)
            if np.linalg.norm(truth) < 1e-9:
                continue
            err = np.linalg.norm(reid_if(theta, survival40, i) - truth)
            rel_errs.append(err / np.linalg.norm(truth))
        assert np.median(rel_errs) < 0.2

    def test_gap_to_vif_shrinks_with_n(self):
        """The versatile and classical influences drift together at rate 1/n."""
        from vifkit.attributor import HessianContext, HessianSolver

        gaps = {}
        for n in (100, 200):
            data = synth_survival(n, 3, theta_star=[1.0, -0.5, 0.25],
                                  censor_rate=0.2, seed=9)
            model = CoxModel(data)
            cfg = TrainConfig(optimizer="newton", epochs=60)
            theta = train(model, PresenceVector.all_ones(n), cfg).theta
            ctx = HessianContext(model, theta, HessianSolver())
            gap = [np.linalg.norm(ctx.vif(i) - reid_if(theta, data, i)) for i in range(n)]
            gaps[n] = float(np.median(gap))
        ratio = gaps[200] / gaps[100]
        assert 0.25 < ratio < 0.85


class TestRelativeRiskTarget:
    def test_value_and_gradient(self):
        t = relative_risk_target([0.5, -1.0])
        theta = np.array([0.2, 0.4])
        assert t.value(theta) == pytest.approx(np.exp(0.2 * 0.5 - 0.4), rel=1e-14)
        h = 1e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (t.value(theta + e) - t.value(theta - e)) / (2 * h)
            assert t.gradient(theta)[j] == pytest.approx(fd, rel=1e-6)

    def test_values_is_one_product_over_the_rows(self):
        t = relative_risk_target([0.5, -1.0, 0.25])
        thetas = np.random.default_rng(5).normal(0.0, 1.0, (30, 3))
        got = t.values(thetas)
        want = np.array([t.value(theta) for theta in thetas])
        assert got.shape == (30,)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert t.values(np.empty((0, 3))).shape == (0,)
