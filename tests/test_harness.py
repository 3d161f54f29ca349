"""Experiment harness: synthetic data, LOO retraining, report assembly."""

import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from dataclasses import replace

from conftest import LinearTarget, QuadraticModel, count_calls, subprocess_env
from vifkit import harness, numkit, synth
from vifkit.attributor import attribute_target
from vifkit.coxloss import CoxModel, RelativeRiskTarget, SurvivalDataset
from vifkit.errors import DegenerateInputError, NoEventsError
from vifkit.harness import brute_force_repeat, compare, loo_retrain
from vifkit.logisticloss import LogisticModel, logistic_fixture
from vifkit.losscore import LossTarget, PresenceVector, TrainConfig, derive_seed, train
from vifkit.ltrloss import ListMLEModel, query_loss_target
from vifkit.synth import synth_graph, synth_ranking, synth_survival


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

    def test_ties_nudged_as_by_unique(self):
        def reference(y):  # the np.unique loop the sort-based one replaced
            while np.unique(y).shape[0] != y.size:
                dup = np.ones(y.size, dtype=bool)
                dup[np.unique(y, return_index=True)[1]] = False
                y[dup] *= 1.0 + 1e-12

        rng = np.random.default_rng(3)
        y = rng.choice([0.5, 1.0, 2.0, 3.0], size=40) * (1.0 + np.repeat([0.0, 1e-12], 20))
        want = y.copy()
        reference(want)
        synth._nudge_ties(y)
        np.testing.assert_array_equal(y, want)
        assert np.unique(y).size == 40

    def test_unmovable_ties_end(self):
        # 0 and inf do not move under a nudge; the loop must still stop
        y = np.array([0.0, 1.0, 0.0, np.inf, 1.0, np.inf])
        synth._nudge_ties(y)
        assert y.tolist() == [0.0, 1.0, 0.0, np.inf, 1.0 + 1e-12, np.inf]

    def test_unmovable_ties_end_in_data_error(self):
        # rates of 0 and inf would give times inf and 0, which no nudge
        # separates; in a child process, so a hang fails by timeout
        code = (
            "import numpy as np\n"
            "from vifkit.errors import DataError\n"
            "from vifkit.synth import synth_survival\n"
            "try:\n"
            "    with np.errstate(over='ignore', divide='ignore'):\n"
            "        synth_survival(10, 1, [1e6], censor_rate=0.0, seed=0)\n"
            "except DataError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == (
            "non-finite values in survival data: theta_star puts a planted rate "
            "exp(x . theta_star) or an event time out of floating-point range"
        )

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

    def test_jobs_send_loss_targets_unchanged(self):
        # a LossTarget holds its model and a PresenceVector; both cross to
        # the workers by pickle
        data = synth_ranking(m=15, n=8, k=3, p=4, seed=2)
        held_out = synth_ranking(m=3, n=8, k=3, p=4, seed=3)
        model = ListMLEModel(data, l2=1e-3)
        targets = [query_loss_target(model, x, lst)
                   for x, lst in zip(held_out.features, held_out.rel_lists)]
        targets.append(LossTarget(LogisticModel(np.ones((1, model.dim)), [1.0], reg=0.0)))
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=20, batch_size=8)
        seq = loo_retrain(model, cfg, range(8), targets, jobs=1)
        par = loo_retrain(model, cfg, range(8), targets, jobs=2)
        assert par.deltas.tobytes() == seq.deltas.tobytes()
        assert par.grad_norm.tobytes() == seq.grad_norm.tobytes()

    def test_spread_starts_at_most_one_worker_per_item(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InlinePool:
            """Records its size and runs each call in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert harness._spread(64, pow, (2,), [1, 2, 3]) == [2, 4, 8]
        assert harness._spread(2, pow, (2,), [1, 2, 3]) == [2, 4, 8]
        assert sizes == [3, 2]

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


class TestLockstepLoo:
    @pytest.fixture(scope="class")
    def cox(self):
        pool = synth_survival(48, 3, [1.0, -0.5, 0.25], censor_rate=0.3, seed=21)
        data = SurvivalDataset(pool.x[:40], pool.y[:40], pool.delta[:40])
        targets = [RelativeRiskTarget(x) for x in pool.x[40:]]
        return CoxModel(data), targets

    def per_retrain(self, model, cfg, objects, targets):
        """The per-retrain protocol, one train call per dropped object."""
        init = model.initial_params(cfg.seed)
        full = train(model, PresenceVector.all_ones(model.n_objects), cfg, init=init)
        rows = []
        for i in objects:
            cfg_i = replace(cfg, seed=derive_seed(cfg.seed, i))
            res = train(model, PresenceVector.drop(model.n_objects, i), cfg_i, init=init)
            deltas = [t.value(res.theta) - t.value(full.theta) for t in targets]
            rows.append((deltas, res.grad_norm, res.converged))
        return full, rows

    # each grad_tol lies inside its optimizer's spread of final gradient norms
    @pytest.mark.parametrize("optimizer,grad_tol", [("gd", 0.0015), ("adam", 3.0)])
    def test_matches_per_retrain_reference(self, cox, optimizer, grad_tol):
        model, targets = cox
        cfg = TrainConfig(optimizer=optimizer, learning_rate=0.01, epochs=60,
                          grad_tol=grad_tol, seed=4)
        full, rows = self.per_retrain(model, cfg, range(40), targets)
        got = loo_retrain(model, cfg, range(40), targets, full_result=full)
        want = np.array([r[0] for r in rows])
        assert np.abs(got.deltas - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(got.grad_norm, [r[1] for r in rows], rtol=0, atol=1e-12)
        assert got.converged.tolist() == [r[2] for r in rows]
        assert 0 < got.converged.sum() < 40  # grad_tol splits the rows
        assert got.group_rows.tolist() == [40]
        assert got.iterations.tolist() == [60] * 40
        assert np.all(got.wall_s == got.wall_s[0]) and got.wall_s[0] > 0.0

    def test_groups_and_jobs_leave_results_unchanged(self, cox, monkeypatch):
        model, targets = cox
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=20, seed=4)
        one = loo_retrain(model, cfg, range(40), targets)
        monkeypatch.setattr(numkit, "BLOCK_ENTRIES", 15 * model.n_objects)
        seq = loo_retrain(model, cfg, range(40), targets, jobs=1)
        par = loo_retrain(model, cfg, range(40), targets, jobs=2)
        assert seq.group_rows.tolist() == par.group_rows.tolist() == [15, 15, 10]
        for field in ("objects", "deltas", "grad_norm", "converged", "iterations"):
            np.testing.assert_array_equal(getattr(seq, field), getattr(par, field))
        # a row's trajectory does not depend on the rows beside it
        np.testing.assert_allclose(seq.deltas, one.deltas, rtol=0,
                                   atol=1e-12 * np.abs(one.deltas).max())

    @pytest.mark.parametrize("optimizer", ["newton", "adam"])
    def test_deltas_take_one_values_call_per_target_and_group(self, cox, optimizer, monkeypatch):
        model, targets = cox
        calls = count_calls(monkeypatch, RelativeRiskTarget, "values")
        cfg = TrainConfig(optimizer=optimizer, epochs=5, seed=4)
        got = loo_retrain(model, cfg, range(10), targets[:3])
        groups = 1 if optimizer == "adam" else 10  # newton retrains one by one
        assert len(calls) == 3 * groups
        assert got.deltas.shape == (10, 3)
        assert loo_retrain(model, cfg, range(10), []).deltas.shape == (10, 0)

    @pytest.mark.parametrize("optimizer", ["newton", "adam"])
    def test_dropping_the_only_event_raises(self, optimizer):
        model = CoxModel(SurvivalDataset(
            x=np.array([[1.0], [0.5], [-0.5], [2.0]]),
            y=np.array([0.5, 1.0, 2.0, 3.0]),
            delta=np.array([0, 1, 0, 0]),
        ))
        cfg = TrainConfig(optimizer=optimizer, epochs=5)
        assert loo_retrain(model, cfg, [0, 2, 3], []).objects.tolist() == [0, 2, 3]
        with pytest.raises(NoEventsError):
            loo_retrain(model, cfg, [0, 1, 2, 3], [])

    @pytest.mark.parametrize("cfg", [
        TrainConfig(optimizer="newton", epochs=10),
        TrainConfig(optimizer="adam", epochs=5, batch_size=8),
    ])
    def test_newton_and_minibatches_retrain_one_by_one(self, cox, cfg):
        model, targets = cox
        got = loo_retrain(model, cfg, range(4), targets)
        assert got.group_rows.tolist() == []
        assert len(got.iterations) == 4

    def test_models_without_batched_gradients_retrain_one_by_one(self):
        model = logistic_fixture(10, 3, seed=2)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=5)
        got = loo_retrain(model, cfg, range(10), [LinearTarget(np.ones(3))])
        assert got.group_rows.tolist() == []
        assert got.iterations.tolist() == [5] * 10

    DTYPES = {"objects": np.int64, "deltas": np.float64, "grad_norm": np.float64,
              "converged": np.bool_, "iterations": np.int64, "wall_s": np.float64,
              "group_rows": np.int64}

    @pytest.mark.parametrize("optimizer", ["newton", "adam"])
    def test_no_objects_give_an_empty_result(self, cox, optimizer):
        # adam runs in lockstep, newton one by one; neither returns a block
        model, targets = cox
        cfg = TrainConfig(optimizer=optimizer, epochs=5, seed=4)
        got = loo_retrain(model, cfg, [], targets[:3])
        assert got.deltas.shape == (0, 3)
        for field, dtype in self.DTYPES.items():
            value = getattr(got, field)
            assert value.dtype == dtype, field
            assert len(value) == 0, field

    def test_both_paths_give_the_same_dtypes(self, cox):
        model, targets = cox
        results = [loo_retrain(model, TrainConfig(optimizer=opt, epochs=5, seed=4), range(4),
                               targets[:2]) for opt in ("newton", "adam")]
        assert [r.group_rows.tolist() for r in results] == [[], [4]]
        for field, dtype in self.DTYPES.items():
            assert [getattr(r, field).dtype for r in results] == [dtype, dtype], field
        for r in results:
            assert r.objects.tolist() == [0, 1, 2, 3] and r.deltas.shape == (4, 2)


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
