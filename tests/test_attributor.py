"""Influence computation: VIF, classical IF, finite differences, solvers."""

import logging

import numpy as np
import pytest

import vifkit.attributor
from conftest import LinearTarget, QuadraticModel, count_calls
from vifkit.attributor import (
    DropOne,
    HessianContext,
    HessianSolver,
    PointMass,
    attribute_target,
    classical_if,
    finite_difference_if,
)
from vifkit.coxloss import CoxModel
from vifkit.embedloss import EmbedModel, Graph, WalkParams
from vifkit.errors import UnrealizableMixtureError
from vifkit.logisticloss import logistic_fixture
from vifkit.synth import synth_survival
from vifkit.losscore import LossModel, PresenceVector, TrainConfig, train
from vifkit.numkit import cg_solve, factor_spd, lissa_solve, solve_spd


@pytest.fixture(scope="module")
def logistic_opt():
    model = logistic_fixture(30, 4, seed=0)
    res = train(model, PresenceVector.all_ones(30),
                TrainConfig(optimizer="newton", epochs=50, grad_tol=1e-11))
    assert res.converged
    return model, res.theta


@pytest.fixture(scope="module")
def cox_opt():
    data = synth_survival(35, 3, theta_star=[1.0, -0.5, 0.25],
                          censor_rate=0.2, seed=3)
    model = CoxModel(data)
    res = train(model, PresenceVector.all_ones(35),
                TrainConfig(optimizer="newton", epochs=60))
    return model, res.theta


class TestQuadraticIdentities:
    def test_vif_is_n_times_classical_everywhere(self, quad_model):
        rng = np.random.default_rng(0)
        for _ in range(3):
            theta = rng.standard_normal(3)
            ctx = HessianContext(quad_model, theta, HessianSolver())
            for i in (0, 5, 11):
                np.testing.assert_allclose(
                    ctx.vif(i),
                    12.0 * classical_if(quad_model, theta, i),
                    atol=1e-12,
                )

    def test_vif_matches_exact_deletion_shift(self, quad_model, full12):
        theta_hat = quad_model.minimizer(full12)
        ctx = HessianContext(quad_model, theta_hat, HessianSolver())
        for i in range(12):
            shift = quad_model.loo_shift(i)
            np.testing.assert_allclose(ctx.vif(i), -11.0 * shift, atol=1e-12)


class TestLogisticIdentities:
    def test_vif_equals_n_classical_at_optimum(self, logistic_opt):
        model, theta = logistic_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in range(30):
            v = ctx.vif(i)
            c = 30.0 * classical_if(model, theta, i)
            denom = max(np.abs(c).max(), 1e-12)
            assert np.abs(v - c).max() / denom < 1e-8

    def test_pointmass_step_equals_vif_at_optimum(self, logistic_opt):
        model, theta = logistic_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in (0, 7, 29):
            fd = finite_difference_if(model, theta, PointMass(i), eps=-1.0 / 29.0)
            np.testing.assert_allclose(fd, ctx.vif(i), rtol=1e-6, atol=1e-10)

    def test_dropone_scaling_identity_off_optimum(self, logistic_opt):
        """-(n-1) * DropOne step = PointMass step, an algebraic identity that
        holds away from stationarity too."""
        model, _ = logistic_opt
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(4)
        for i in (2, 18):
            pm = finite_difference_if(model, theta, PointMass(i), eps=0.5)
            do = finite_difference_if(model, theta, DropOne(i), eps=1.0)
            np.testing.assert_allclose(-29.0 * do, pm, atol=1e-9)

    def test_dropone_requires_unit_eps(self, logistic_opt):
        model, theta = logistic_opt
        with pytest.raises(UnrealizableMixtureError):
            finite_difference_if(model, theta, DropOne(0), eps=0.5)

    def test_zero_eps_rejected(self, logistic_opt):
        model, theta = logistic_opt
        with pytest.raises(ValueError):
            finite_difference_if(model, theta, PointMass(0), eps=0.0)

    def test_out_of_range_ids_rejected(self, logistic_opt):
        """A negative id would alias the object counted from the end."""
        model, theta = logistic_opt
        for bad in (-1, model.n_objects):
            with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                classical_if(model, theta, bad)
            for q, eps in ((PointMass(bad), 0.5), (DropOne(bad), 1.0)):
                with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                    finite_difference_if(model, theta, q, eps)


class TestNonDecomposable:
    def test_pointmass_unrealizable(self, cox_opt):
        model, theta = cox_opt
        with pytest.raises(UnrealizableMixtureError):
            finite_difference_if(model, theta, PointMass(0), eps=1.0)

    def test_dropone_matches_vif(self, cox_opt):
        model, theta = cox_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in (0, 10, 34):
            fd = finite_difference_if(model, theta, DropOne(i), eps=1.0)
            np.testing.assert_allclose(-35.0 * fd, ctx.vif(i), rtol=1e-10, atol=1e-13)

    def test_out_of_range_ids_rejected(self, cox_opt):
        model, theta = cox_opt
        for bad in (-1, model.n_objects):
            with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                finite_difference_if(model, theta, DropOne(bad), eps=1.0)

    def test_classical_if_refused(self, cox_opt):
        model, theta = cox_opt
        with pytest.raises(TypeError):
            classical_if(model, theta, 0)


class TestAttributeTarget:
    def test_scores_are_chain_rule_products(self, logistic_opt):
        model, theta = logistic_opt
        rng = np.random.default_rng(2)
        targets = [LinearTarget(rng.standard_normal(4)) for _ in range(3)]
        result = attribute_target(model, theta, targets, objects=[4, 9])
        assert result.scores.size == 6
        ctx = HessianContext(model, theta, HessianSolver())
        for o, row in zip(result.objects.tolist(), result.scores.tolist()):
            for t, vif in enumerate(row):
                expected = float(targets[t].gradient(theta) @ ctx.vif(o))
                assert vif == pytest.approx(expected, rel=1e-12)

    def test_single_target_accepted(self, logistic_opt):
        model, theta = logistic_opt
        result = attribute_target(model, theta, LinearTarget(np.ones(4)), objects=range(5))
        assert result.objects.tolist() == list(range(5))
        assert result.scores.shape == (5, 1)

    def test_scores_are_one_matrix_product(self, cox_opt):
        model, theta = cox_opt
        rng = np.random.default_rng(6)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(4)]
        objects = [7, 2, 30]
        result = attribute_target(model, theta, targets, objects=objects)
        np.testing.assert_array_equal(result.objects, objects)
        # -D [(1/n) H]^{-1} G^T against stacked per-object vif rows
        g = np.stack([t.gradient(theta) for t in targets])
        ctx = HessianContext(model, theta, HessianSolver())
        want = np.stack([ctx.vif(o) for o in objects]) @ g.T
        np.testing.assert_allclose(result.scores, want, rtol=1e-12, atol=0.0)
        ones = PresenceVector.all_ones(model.n_objects)
        assert result.grad_norm == np.linalg.norm(model.gradient(theta, ones))
        assert result.solver == "cholesky"

    def test_solver_path_reported(self, cox_opt):
        model, theta = cox_opt
        target = LinearTarget(np.ones(3))
        for strategy in ("cg", "lissa"):
            solver = HessianSolver(strategy=strategy)
            assert attribute_target(model, theta, target, [0], solver).solver == strategy

    def test_explicit_attribution_factors_once(self, logistic_opt, monkeypatch):
        model, theta = logistic_opt
        cho = count_calls(monkeypatch, np.linalg, "cholesky")
        cond = count_calls(monkeypatch, np.linalg, "cond")
        solves = count_calls(monkeypatch, vifkit.attributor, "solve_spd")
        result = attribute_target(model, theta, LinearTarget(np.ones(4)), range(30))
        assert result.scores.shape == (30, 1)
        assert result.solver == "cholesky"
        assert (len(cho), len(cond), len(solves)) == (1, 0, 1)

    def test_indefinite_damped_hessian_takes_lu_once(self, quad_model, monkeypatch, caplog):
        class SaddleModel(QuadraticModel):
            is_convex = False

            def hessian(self, theta, b):
                return b.count * np.diag([1.0, -1.0, 1.0])

        model = SaddleModel(quad_model.centers)
        theta = model.minimizer(PresenceVector.all_ones(12))
        cho = count_calls(monkeypatch, np.linalg, "cholesky")
        cond = count_calls(monkeypatch, np.linalg, "cond")
        solves = count_calls(monkeypatch, vifkit.attributor, "solve_spd")
        with caplog.at_level(logging.WARNING, logger="vifkit.attributor"):
            result = attribute_target(model, theta, LinearTarget(np.ones(3)), range(12),
                                      solver=HessianSolver(damping=0.1))
        assert result.solver == "lu"
        assert caplog.messages == ["damped Hessian is not positive definite; solved by LU"]
        assert (len(cho), len(cond), len(solves)) == (1, 1, 1)

    def test_one_hessian_assembly_for_many_objects(self, logistic_opt):
        model, theta = logistic_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in range(30):
            ctx.vif(i)
        assert ctx.assembly_count == 1

    def test_warns_away_from_stationarity(self, logistic_opt, caplog):
        model, _ = logistic_opt
        with caplog.at_level(logging.WARNING, logger="vifkit.attributor"):
            HessianContext(model, np.full(4, 5.0), HessianSolver())
        assert any("gradient norm" in m for m in caplog.messages)


def per_object_scores(model, theta, targets, objects, solve):
    """The loop that batched attribution replaced: per object, one drop-one
    gradient, one single-vector solve and one row of scores."""
    g = np.stack([t.gradient(theta) for t in targets])
    return np.stack([-solve(model.delta_gradients(theta, [i])[0]) @ g.T for i in objects])


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestBatchedAttribution:
    """attribute_target against the per-object loop; the batch reorders sums,
    so agreement is to rounding, bounded at 1e-12 of the largest score."""

    @pytest.mark.parametrize("n_targets", [40, 3])  # more targets than objects, fewer
    def test_explicit_matches_per_object(self, cox_opt, n_targets):
        model, theta = cox_opt
        rng = np.random.default_rng(20)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(n_targets)]
        objects = rng.permutation(35)
        result = attribute_target(model, theta, targets, objects)
        assert result.details == {}
        ones = PresenceVector.all_ones(35)
        factor = factor_spd(model.hessian(theta, ones) / 35)
        want = per_object_scores(model, theta, targets, objects,
                                 lambda r: solve_spd(factor, r))
        assert rel_err(result.scores, want) < 1e-12

    def test_cg_matches_per_object(self, logistic_opt):
        model, theta = logistic_opt
        rng = np.random.default_rng(21)
        targets = [LinearTarget(rng.standard_normal(4)) for _ in range(2)]
        result = attribute_target(model, theta, targets, range(30),
                                  HessianSolver(strategy="cg"))
        h = model.hessian(theta, PresenceVector.all_ones(30)) / 30
        runs = []

        def solve(r):
            runs.append(cg_solve(lambda v: h @ v, r))
            return runs[-1].x

        want = per_object_scores(model, theta, targets, range(30), solve)
        assert rel_err(result.scores, want) < 1e-12
        rel = [run.residual_norm / np.linalg.norm(d) for run, d in
               zip(runs, model.delta_gradients(theta, range(30)))]
        assert result.details == {"cg": {
            "max_iterations": max(run.iterations for run in runs),
            "worst_relative_residual": max(rel),
            "n_converged": 30,
        }}

    def test_cg_cap_warns_once_and_is_recorded(self, logistic_opt, caplog):
        model, theta = logistic_opt
        with caplog.at_level(logging.WARNING, logger="vifkit.attributor"):
            result = attribute_target(model, theta, LinearTarget(np.ones(4)), range(30),
                                      HessianSolver(strategy="cg", cg_max_iter=1))
        stopped = [m for m in caplog.messages if m.startswith("CG stopped short")]
        assert len(stopped) == 1 and "on 30 of 30 columns" in stopped[0]
        cg = result.details["cg"]
        assert (cg["max_iterations"], cg["n_converged"]) == (1, 0)
        assert cg["worst_relative_residual"] > 1e-8

    def test_lissa_matches_per_object(self, cox_opt):
        model, theta = cox_opt
        rng = np.random.default_rng(22)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(2)]
        solver = HessianSolver(strategy="lissa", damping=0.01, lissa_seed=5)
        result = attribute_target(model, theta, targets, range(35), solver)
        assert result.details == {"lissa": {
            "steps": 100, "scale": 10.0 * 1.01, "seed": 5, "mode": "per_term",
        }}
        ones = PresenceVector.all_ones(35)
        n_terms = model.num_terms(ones)

        def sample(j, v):
            return n_terms / 35 * model.per_term_hvp(j, theta, ones, v)

        def solve(r):
            return lissa_solve(sample, 100, 10.1, 0.01, r, 5, n_terms)

        want = per_object_scores(model, theta, targets, range(35), solve)
        assert rel_err(result.scores, want) < 1e-12

    def test_lissa_chunks_follow_the_object_count(self, cox_opt, monkeypatch):
        # a Cox per-term product makes (at-risk records) x columns temporaries,
        # so LiSSA chunks are sized by n = 35, not by dim = 3
        model, theta = cox_opt
        monkeypatch.setattr(vifkit.numkit, "BLOCK_ENTRIES", 350)
        widths = []
        hvp = CoxModel.per_term_hvp

        def spy(self, j, theta, b, v):
            widths.append(v.shape[1])
            return hvp(self, j, theta, b, v)

        monkeypatch.setattr(CoxModel, "per_term_hvp", spy)
        solver = HessianSolver(strategy="lissa", lissa_steps=2)
        result = attribute_target(model, theta, LinearTarget(np.ones(3)), range(35), solver)
        live = np.count_nonzero(np.abs(model.delta_gradients(theta, range(35))).sum(axis=1))
        assert max(widths) == 10 and sum(widths) == 2 * live
        assert np.isfinite(result.scores).all()

    def test_lissa_full_batch_details(self):
        g = Graph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        model = EmbedModel(g, k=2, walk_params=WalkParams(4, 3, 2, seed=0))
        theta = model.initial_params(0)
        solver = HessianSolver(strategy="lissa", damping=0.1, lissa_scale=100.0)
        result = attribute_target(model, theta, LinearTarget(np.ones(model.dim)), [0, 2],
                                  solver)
        assert result.details["lissa"] == {
            "steps": 100, "scale": 100.0, "seed": 0, "mode": "full_batch",
        }

    def test_vif_is_the_one_column_case(self, cox_opt):
        model, theta = cox_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in (0, 17, 34):
            d = model.delta_gradients(theta, [i])
            np.testing.assert_array_equal(ctx.vif(i), -ctx.solve(d.T)[:, 0])

    def test_no_objects_gives_empty_scores(self, logistic_opt, cox_opt):
        for model, theta in (logistic_opt, cox_opt):
            target = LinearTarget(np.ones(model.dim))
            for strategy in ("explicit", "cg", "lissa"):
                result = attribute_target(model, theta, target, [], HessianSolver(strategy))
                assert result.scores.shape == (0, 1)

    def test_out_of_range_ids_rejected(self, logistic_opt, cox_opt):
        """A negative id would alias the object counted from the end."""
        for model, theta in (logistic_opt, cox_opt):
            n, target = model.n_objects, LinearTarget(np.ones(model.dim))
            ctx = HessianContext(model, theta, HessianSolver())
            for bad in (-1, n):
                with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                    attribute_target(model, theta, target, [bad, n - 1])
                with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                    ctx.vif(bad)
                with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                    model.delta_gradients(theta, [bad])
                with pytest.raises(ValueError, match=f"object id {bad} is outside"):
                    model.drop_one_gradients(theta[None], [bad])


class TestFactoredAttribution:
    """The result keeps the VIF rows and G; the scores are formed on demand."""

    def test_scores_are_the_vif_rows_times_the_target_gradients(self, cox_opt):
        model, theta = cox_opt
        rng = np.random.default_rng(30)
        targets = [LinearTarget(rng.standard_normal(3)) for _ in range(6)]
        result = attribute_target(model, theta, targets, rng.permutation(35))
        g = np.stack([t.gradient(theta) for t in targets])
        np.testing.assert_array_equal(result.target_gradients, g)
        assert result.vif.shape == (35, 3)
        np.testing.assert_array_equal(result.scores, result.vif @ result.target_gradients.T)
        assert result.scores is not result.scores  # formed anew, not stored
        np.testing.assert_array_equal(result[4:9], result.vif[4:9] @ g.T)

    @pytest.mark.parametrize("strategy", ["explicit", "cg", "lissa"])
    def test_vif_rows_are_the_objects_vifs(self, cox_opt, strategy):
        # one block solve against one solve per object: equal up to rounding
        model, theta = cox_opt
        solver = HessianSolver(strategy=strategy)
        objects = [30, 2, 17, 0]
        result = attribute_target(model, theta, LinearTarget(np.ones(3)), objects, solver)
        ctx = HessianContext(model, theta, solver)
        for row, o in zip(result.vif, objects):
            assert rel_err(row, ctx.vif(o)) < 1e-12


class TestSolverStrategies:
    def test_cg_matches_explicit(self, cox_opt):
        model, theta = cox_opt
        ex = HessianContext(model, theta, HessianSolver()).vif(3)
        cg = HessianContext(model, theta, HessianSolver(strategy="cg")).vif(3)
        np.testing.assert_allclose(cg, ex, rtol=1e-7, atol=1e-12)

    def test_lissa_full_batch_deterministic_limit(self, cox_opt):
        class WholeCox(CoxModel):
            per_term_hvp = LossModel.per_term_hvp  # no per-term products

        model, theta = cox_opt
        whole = WholeCox(model.data)
        assert not whole.supports_per_term_hvp
        ex = HessianContext(model, theta, HessianSolver()).vif(3)
        li = HessianContext(
            whole, theta,
            HessianSolver(strategy="lissa", lissa_steps=3000, lissa_scale=1.0),
        ).vif(3)
        np.testing.assert_allclose(li, ex, rtol=1e-6, atol=1e-10)

    def test_lissa_per_term_sampling_close(self, cox_opt):
        model, theta = cox_opt
        assert model.supports_per_term_hvp
        ex = HessianContext(model, theta, HessianSolver()).vif(5)
        li = HessianContext(model, theta, HessianSolver(strategy="lissa")).vif(5)
        cos = (li @ ex) / (np.linalg.norm(li) * np.linalg.norm(ex))
        assert cos > 0.95

    def test_nonconvex_requires_damping(self):
        g = Graph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        model = EmbedModel(g, k=2, walk_params=WalkParams(4, 3, 2, seed=0))
        theta = model.initial_params(0)
        with pytest.raises(ValueError):
            HessianContext(model, theta, HessianSolver())
        ctx = HessianContext(model, theta, HessianSolver(damping=0.1))
        assert np.all(np.isfinite(ctx.solve(np.ones(model.dim))))

    def test_lissa_without_per_term_products_runs_full_batch(self):
        g = Graph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        model = EmbedModel(g, k=2, walk_params=WalkParams(4, 3, 2, seed=0))
        assert not model.supports_per_term_hvp
        theta = model.initial_params(0)
        ctx = HessianContext(model, theta, HessianSolver(strategy="lissa", damping=0.1))
        assert ctx.assembly_count == 1
        assert ctx.path == "lissa"
        assert np.all(np.isfinite(ctx.solve(np.ones(model.dim))))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "newton"},
            {"damping": -0.1},
            {"cg_tol": "x"},
            {"cg_tol": 0.0},
            {"cg_max_iter": 0},
            {"cg_max_iter": 2.5},
            {"lissa_steps": -5},
            {"lissa_steps": "100"},
            {"lissa_steps": True},
            {"lissa_scale": 0.0},
            {"lissa_scale": float("nan")},
            {"lissa_seed": 1.5},
            {"lissa_seed": -1},
            {"damping": float("inf")},
        ],
    )
    def test_solver_validation(self, kwargs):
        with pytest.raises(ValueError):
            HessianSolver(**kwargs)
