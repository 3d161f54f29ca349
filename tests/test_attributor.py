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
    vif_params,
)
from vifkit.coxloss import CoxModel
from vifkit.embedloss import EmbedModel, Graph, WalkParams
from vifkit.errors import UnrealizableMixtureError
from vifkit.harness import logistic_fixture, synth_survival
from vifkit.losscore import PresenceVector, TrainConfig, train


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
            for i in (0, 5, 11):
                np.testing.assert_allclose(
                    vif_params(quad_model, theta, i),
                    12.0 * classical_if(quad_model, theta, i),
                    atol=1e-12,
                )

    def test_vif_matches_exact_deletion_shift(self, quad_model, full12):
        theta_hat = quad_model.minimizer(full12)
        for i in range(12):
            shift = quad_model.loo_shift(i)
            np.testing.assert_allclose(
                vif_params(quad_model, theta_hat, i), -11.0 * shift, atol=1e-12
            )


class TestLogisticIdentities:
    def test_vif_equals_n_classical_at_optimum(self, logistic_opt):
        model, theta = logistic_opt
        for i in range(30):
            v = vif_params(model, theta, i)
            c = 30.0 * classical_if(model, theta, i)
            denom = max(np.abs(c).max(), 1e-12)
            assert np.abs(v - c).max() / denom < 1e-8

    def test_pointmass_step_equals_vif_at_optimum(self, logistic_opt):
        model, theta = logistic_opt
        for i in (0, 7, 29):
            fd = finite_difference_if(model, theta, PointMass(i), eps=-1.0 / 29.0)
            np.testing.assert_allclose(fd, vif_params(model, theta, i), rtol=1e-6,
                                       atol=1e-10)

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


class TestNonDecomposable:
    def test_pointmass_unrealizable(self, cox_opt):
        model, theta = cox_opt
        with pytest.raises(UnrealizableMixtureError):
            finite_difference_if(model, theta, PointMass(0), eps=1.0)

    def test_dropone_matches_vif(self, cox_opt):
        model, theta = cox_opt
        for i in (0, 10, 34):
            fd = finite_difference_if(model, theta, DropOne(i), eps=1.0)
            np.testing.assert_allclose(-35.0 * fd, vif_params(model, theta, i),
                                       rtol=1e-10, atol=1e-13)

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
        for o, row in zip(result.objects.tolist(), result.scores.tolist()):
            for t, vif in enumerate(row):
                expected = float(targets[t].gradient(theta) @ vif_params(model, theta, o))
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
        v = np.stack([vif_params(model, theta, i) for i in objects])
        g = np.stack([t.gradient(theta) for t in targets])
        np.testing.assert_array_equal(result.scores, v @ g.T)
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
        assert (len(cho), len(cond), len(solves)) == (1, 0, 30)

    def test_indefinite_damped_hessian_takes_lu_once(self, quad_model, monkeypatch):
        class SaddleModel(QuadraticModel):
            is_convex = False

            def hessian(self, theta, b):
                return b.count * np.diag([1.0, -1.0, 1.0])

        model = SaddleModel(quad_model.centers)
        theta = model.minimizer(PresenceVector.all_ones(12))
        cho = count_calls(monkeypatch, np.linalg, "cholesky")
        cond = count_calls(monkeypatch, np.linalg, "cond")
        solves = count_calls(monkeypatch, vifkit.attributor, "solve_spd")
        result = attribute_target(model, theta, LinearTarget(np.ones(3)), range(12),
                                  solver=HessianSolver(damping=0.1))
        assert result.solver == "lu"
        assert (len(cho), len(cond), len(solves)) == (1, 1, 12)

    def test_one_hessian_assembly_for_many_objects(self, logistic_opt):
        model, theta = logistic_opt
        ctx = HessianContext(model, theta, HessianSolver())
        for i in range(30):
            vif_params(model, theta, i, context=ctx)
        assert ctx.assembly_count == 1

    def test_warns_away_from_stationarity(self, logistic_opt, caplog):
        model, _ = logistic_opt
        with caplog.at_level(logging.WARNING, logger="vifkit.attributor"):
            HessianContext(model, np.full(4, 5.0), HessianSolver())
        assert any("gradient norm" in m for m in caplog.messages)


class TestSolverStrategies:
    def test_cg_matches_explicit(self, cox_opt):
        model, theta = cox_opt
        ex = vif_params(model, theta, 3, solver=HessianSolver())
        cg = vif_params(model, theta, 3, solver=HessianSolver(strategy="cg"))
        np.testing.assert_allclose(cg, ex, rtol=1e-7, atol=1e-12)

    def test_lissa_full_batch_deterministic_limit(self, cox_opt):
        model, theta = cox_opt
        ex = vif_params(model, theta, 3, solver=HessianSolver())
        li = vif_params(
            model, theta, 3,
            solver=HessianSolver(strategy="lissa", lissa_steps=3000,
                                 lissa_scale=1.0, lissa_batch="full"),
        )
        np.testing.assert_allclose(li, ex, rtol=1e-6, atol=1e-10)

    def test_lissa_per_term_sampling_close(self, cox_opt):
        model, theta = cox_opt
        assert model.supports_per_term_hvp
        ex = vif_params(model, theta, 5, solver=HessianSolver())
        li = vif_params(
            model, theta, 5,
            solver=HessianSolver(strategy="lissa", lissa_batch="term"),
        )
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

    def test_term_mode_needs_per_term_products(self):
        g = Graph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        model = EmbedModel(g, k=2, walk_params=WalkParams(4, 3, 2, seed=0))
        theta = model.initial_params(0)
        solver = HessianSolver(strategy="lissa", damping=0.1, lissa_batch="term")
        with pytest.raises(ValueError):
            HessianContext(model, theta, solver)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "newton"},
            {"damping": -0.1},
            {"lissa_batch": "half"},
        ],
    )
    def test_solver_validation(self, kwargs):
        with pytest.raises(ValueError):
            HessianSolver(**kwargs)
