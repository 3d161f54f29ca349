"""Experiment harness: synthetic data, LOO retraining, report assembly."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import LinearTarget, QuadraticModel
from vifkit.attributor import attribute_target
from vifkit.errors import DegenerateInputError
from vifkit.harness import (
    brute_force_repeat,
    compare,
    logistic_fixture,
    loo_retrain,
    synth_graph,
    synth_ranking,
    synth_survival,
)
from vifkit.losscore import PresenceVector, TrainConfig, train


class TestSynthSurvival:
    def test_shapes_and_determinism(self):
        a = synth_survival(50, 3, [1.0, -0.5, 0.25], censor_rate=0.2, seed=4)
        b = synth_survival(50, 3, [1.0, -0.5, 0.25], censor_rate=0.2, seed=4)
        assert a.n == 50 and a.d == 3
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_censor_rate_calibrated(self):
        data = synth_survival(4000, 3, [1.0, -0.5, 0.25], censor_rate=0.3, seed=0)
        frac = 1.0 - data.delta.mean()
        assert 0.25 < frac < 0.35

    def test_no_censoring_means_all_events(self):
        data = synth_survival(30, 2, [0.5, 0.5], censor_rate=0.0, seed=1)
        assert data.delta.sum() == 30

    def test_times_unique_and_positive(self):
        data = synth_survival(500, 2, [0.5, -0.5], censor_rate=0.4, seed=2)
        assert np.unique(data.y).shape[0] == 500
        assert np.all(data.y > 0)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            synth_survival(10, 2, [1.0], seed=0)
        with pytest.raises(ValueError):
            synth_survival(10, 1, [1.0], censor_rate=1.0)


class TestSynthRanking:
    def test_shapes(self):
        data = synth_ranking(m=12, n=9, k=4, p=3, seed=0)
        assert data.m == 12 and data.p == 3 and data.n_items == 9
        assert all(len(lst) == 4 for lst in data.rel_lists)
        assert all(len(set(lst)) == 4 for lst in data.rel_lists)

    def test_planted_scorer_orders_lists(self):
        # same features, same seed: reproducible
        a = synth_ranking(m=6, n=5, k=3, p=2, seed=7)
        b = synth_ranking(m=6, n=5, k=3, p=2, seed=7)
        assert a.rel_lists == b.rel_lists

    def test_k_bounded_by_universe(self):
        with pytest.raises(ValueError):
            synth_ranking(m=3, n=4, k=5, p=2)


class TestSynthGraph:
    def test_karate_preset(self):
        g = synth_graph(preset="karate")
        assert g.n == 34 and g.n_edges == 78

    def test_random_graph_seeded(self):
        a = synth_graph(n=20, edge_prob=0.2, seed=3)
        b = synth_graph(n=20, edge_prob=0.2, seed=3)
        np.testing.assert_array_equal(a.edges, b.edges)
        assert a.n == 20

    def test_args_required_without_preset(self):
        with pytest.raises(ValueError):
            synth_graph(n=10)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            synth_graph(preset="florentine")


class TestLogisticFixture:
    def test_labels_and_determinism(self):
        a = logistic_fixture(25, 3, seed=5)
        b = logistic_fixture(25, 3, seed=5)
        assert set(np.unique(a.labels)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestLooRetrain:
    def test_quadratic_deltas_are_closed_form(self, quad_model):
        rng = np.random.default_rng(0)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(2)]
        cfg = TrainConfig(optimizer="newton")
        results = loo_retrain(quad_model, cfg, range(12), targets)
        assert results.objects.tolist() == list(range(12))
        for i, deltas, converged in zip(results.objects, results.deltas, results.converged):
            shift = quad_model.loo_shift(i)
            for t, target in enumerate(targets):
                assert deltas[t] == pytest.approx(float(target.a @ shift), abs=1e-12)
            assert converged

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_out_of_range_object_rejected(self, quad_model, bad):
        """A negative id would retrain without the object counted from the end."""
        cfg = TrainConfig(optimizer="newton")
        with pytest.raises(ValueError, match=f"object id {bad} is outside"):
            loo_retrain(quad_model, cfg, objects=[bad], targets=[])

    def test_jobs_do_not_change_results(self):
        model = logistic_fixture(12, 3, seed=1)
        targets = [LinearTarget(np.array([1.0, -1.0, 0.5]))]
        cfg = TrainConfig(optimizer="newton", epochs=40)
        seq = loo_retrain(model, cfg, range(12), targets, jobs=1)
        par = loo_retrain(model, cfg, range(12), targets, jobs=2)
        np.testing.assert_array_equal(seq.objects, par.objects)
        np.testing.assert_array_equal(seq.deltas, par.deltas)

    def test_fresh_inits_noop_for_seedless_models(self):
        # logistic initial_params is zeros regardless of seed, so both
        # protocols must agree exactly there
        model = logistic_fixture(10, 3, seed=2)
        targets = [LinearTarget(np.array([1.0, 0.0, 0.0]))]
        cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=5, seed=9)
        warm = loo_retrain(model, cfg, range(10), targets)
        fresh = loo_retrain(model, cfg, range(10), targets, fresh_inits=True)
        np.testing.assert_allclose(warm.deltas, fresh.deltas, atol=1e-12)

    def test_fresh_inits_draws_per_object_starts(self, quad_model):
        class SeededInit(QuadraticModel):
            def initial_params(self, seed):
                return np.random.default_rng(seed).standard_normal(self.dim)

        model = SeededInit(quad_model.centers)
        targets = [LinearTarget(np.array([1.0, -0.5, 2.0]))]
        # undertrained on purpose: the start point must show through
        cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=3, seed=9)
        warm = loo_retrain(model, cfg, range(12), targets)
        fresh1 = loo_retrain(model, cfg, range(12), targets, fresh_inits=True)
        fresh2 = loo_retrain(model, cfg, range(12), targets, fresh_inits=True)
        f1 = fresh1.deltas[:, 0]
        f2 = fresh2.deltas[:, 0]
        w = warm.deltas[:, 0]
        np.testing.assert_array_equal(f1, f2)
        assert not np.allclose(f1, w)


class TestBruteForceRepeat:
    def test_deterministic_loss_reaches_unit_ceiling(self, quad_model):
        rng = np.random.default_rng(3)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(3)]
        rep = brute_force_repeat(quad_model, TrainConfig(), range(12), targets,
                                 seed2=77)
        assert rep.pearson_pooled == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rep.pearson_per_test, 1.0, atol=1e-12)


class TestCompare:
    def test_identical_columns_correlate_exactly(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(20)
        report = compare(scores, scores.copy())
        assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.n_pairs == 20

    def test_end_to_end_sign_convention(self, quad_model):
        """VIF scores and flipped LOO deltas must land on the same side:
        for the quadratic model they differ by the positive factor n-1."""
        rng = np.random.default_rng(5)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(2)]
        cfg = TrainConfig(optimizer="newton")
        theta = train(quad_model, PresenceVector.all_ones(12), cfg).theta
        vif = attribute_target(quad_model, theta, targets, objects=range(12)).scores
        loo = -loo_retrain(quad_model, cfg, range(12), targets).deltas
        report = compare(vif, loo)
        assert report.pearson_r == pytest.approx(1.0, abs=1e-10)
        for v, lo in zip(vif.ravel(), loo.ravel()):
            assert v == pytest.approx(11.0 * lo, abs=1e-10)

    def test_unmatched_records_dropped(self):
        # cells (0, 1, 2, 9) of one target: loo lacks 2, vif lacks 9
        vif = np.array([1.0, 2.0, 3.0, np.nan])
        loo = np.array([1.0, 2.0, np.nan, 9.0])
        assert compare(vif, loo).n_pairs == 2

    def test_too_few_matches_raise(self):
        with pytest.raises(DegenerateInputError):
            compare(np.array([1.0]), np.array([1.0]))

    def test_runtime_ratio_is_symmetric(self):
        scores = np.arange(3.0)
        a = compare(scores, scores, vif_runtime=2.0, loo_runtime=50.0)
        b = compare(scores, scores, vif_runtime=50.0, loo_runtime=2.0)
        assert a.improvement_ratio == pytest.approx(25.0)
        assert a.improvement_ratio == pytest.approx(1.0 / b.improvement_ratio)

    def test_report_serializes(self):
        scores = np.arange(3.0)
        report = compare(scores, scores, config={"scenario": "cox"})
        blob = json.dumps(asdict(report))
        assert json.loads(blob)["config"]["scenario"] == "cox"
