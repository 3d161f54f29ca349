"""Core abstractions: presence vectors, training, derivative checkers."""

import pickle

import numpy as np
import pytest

from conftest import LinearTarget, QuadraticModel, count_calls
from vifkit.coxloss import CoxModel, SurvivalDataset
from vifkit.errors import NonFiniteError
from vifkit.logisticloss import LogisticModel, logistic_fixture
from vifkit.losscore import (
    LossTarget,
    PresenceVector,
    TrainConfig,
    check_gradient,
    check_hessian,
    derive_seed,
    train,
    train_drop_one,
)


class TestPresenceVector:
    def test_all_ones(self):
        b = PresenceVector.all_ones(5)
        assert b.n == 5 and b.count == 5 and b.is_full
        np.testing.assert_array_equal(b.present_indices(), np.arange(5))

    def test_drop_equals_without(self):
        assert PresenceVector.drop(5, 2) == PresenceVector.all_ones(5).without(2)
        assert hash(PresenceVector.drop(5, 2)) == hash(
            PresenceVector.all_ones(5).without(2)
        )

    def test_without_leaves_original(self):
        b = PresenceVector.all_ones(4)
        c = b.without(1)
        assert b.count == 4 and c.count == 3
        assert not c.is_full
        np.testing.assert_array_equal(c.present_indices(), [0, 2, 3])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_id_rejected(self, bad):
        """A negative id would clear the bit counted from the end."""
        with pytest.raises(ValueError, match=f"object id {bad} is outside"):
            PresenceVector.all_ones(5).without(bad)
        with pytest.raises(ValueError, match=f"object id {bad} is outside"):
            PresenceVector.drop(5, bad)

    def test_immutable(self):
        b = PresenceVector.all_ones(3)
        with pytest.raises(AttributeError):
            b.bits = np.zeros(3, dtype=bool)

    def test_key_distinguishes_masks(self):
        assert PresenceVector.drop(4, 0).key() != PresenceVector.drop(4, 1).key()
        assert PresenceVector.drop(4, 0).key() == PresenceVector.drop(4, 0).key()

    @pytest.mark.parametrize("b", [PresenceVector.all_ones(3), PresenceVector.drop(5, 2)],
                             ids=["full", "drop"])
    def test_pickle_round_trip(self, b):
        # a --jobs worker receives every model and target, with the
        # presence vectors they hold, by pickle
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and hash(copy) == hash(b)
        assert not copy.bits.flags.writeable
        with pytest.raises(AttributeError):
            copy.bits = np.zeros(copy.n, dtype=bool)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)

    def test_sensitive_to_all_inputs(self):
        seeds = {derive_seed(42, 1), derive_seed(42, 2), derive_seed(43, 1)}
        assert len(seeds) == 3


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"optimizer": "sgd"},
            {"epochs": 0},
            {"batch_size": 0},
            {"grad_tol": 0.0},
            {"learning_rate": -0.1},
            {"learning_rate": 0.0},
            {"learning_rate": "0.1"},
            {"learning_rate": True},
            {"epochs": 2.5},
            {"epochs": True},
            {"batch_size": True},
            {"batch_size": 4.0},
            {"grad_tol": "1e-8"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestNewton:
    def test_quadratic_one_step_to_mean(self, quad_model, full12):
        res = train(quad_model, full12, TrainConfig(optimizer="newton"))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(
            res.theta, quad_model.minimizer(full12), atol=1e-12
        )

    def test_masked_optimum_excludes_dropped_center(self, quad_model, full12):
        b = full12.without(3)
        res = train(quad_model, b, TrainConfig(optimizer="newton"))
        np.testing.assert_allclose(res.theta, quad_model.minimizer(b), atol=1e-12)

    def test_init_invariance(self):
        model = logistic_fixture(60, 3, seed=0)
        b = PresenceVector.all_ones(60)
        cfg = TrainConfig(optimizer="newton", epochs=50)
        a = train(model, b, cfg)
        z = train(model, b, cfg, init=np.full(3, 5.0))
        assert a.converged and z.converged
        np.testing.assert_allclose(a.theta, z.theta, atol=1e-7)

    def test_init_shape_rejected(self, quad_model, full12):
        with pytest.raises(ValueError):
            train(quad_model, full12, TrainConfig(), init=np.zeros(7))


class TestFirstOrder:
    def test_gd_reaches_quadratic_optimum(self, quad_model, full12):
        cfg = TrainConfig(optimizer="gd", learning_rate=0.05, epochs=400)
        res = train(quad_model, full12, cfg)
        np.testing.assert_allclose(
            res.theta, quad_model.minimizer(full12), atol=1e-6
        )

    def test_adam_reaches_quadratic_optimum(self, quad_model, full12):
        cfg = TrainConfig(optimizer="adam", learning_rate=0.1, epochs=600)
        res = train(quad_model, full12, cfg)
        np.testing.assert_allclose(
            res.theta, quad_model.minimizer(full12), atol=1e-4
        )

    def test_gd_divergence_raises(self, quad_model, full12):
        cfg = TrainConfig(optimizer="gd", learning_rate=1.0, epochs=500)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            train(quad_model, full12, cfg)

    def test_minibatch_deterministic(self):
        model = logistic_fixture(50, 4, seed=1)
        b = PresenceVector.all_ones(50)
        cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=30,
                          batch_size=16, seed=3)
        a = train(model, b, cfg)
        z = train(model, b, cfg)
        np.testing.assert_array_equal(a.theta, z.theta)

    def test_minibatch_seed_changes_trajectory(self):
        model = logistic_fixture(50, 4, seed=1)
        b = PresenceVector.all_ones(50)
        base = dict(optimizer="adam", learning_rate=0.05, epochs=5, batch_size=16)
        a = train(model, b, TrainConfig(seed=3, **base))
        z = train(model, b, TrainConfig(seed=4, **base))
        assert not np.array_equal(a.theta, z.theta)

    def test_minibatch_needs_unit_terms(self, quad_model, full12):
        cfg = TrainConfig(optimizer="adam", batch_size=4)
        with pytest.raises(ValueError):
            train(quad_model, full12, cfg)

    def one_event_cox(self):
        return CoxModel(SurvivalDataset(
            x=np.array([[1.0], [0.5], [-0.5], [2.0]]),
            y=np.array([0.5, 1.0, 2.0, 3.0]),
            delta=np.array([0, 1, 0, 0]),
        ))

    def test_minibatch_of_the_one_unit_term(self):
        model = self.one_event_cox()
        b = PresenceVector.all_ones(4)
        base = dict(optimizer="adam", learning_rate=0.05, epochs=20)
        batched = train(model, b, TrainConfig(batch_size=1, **base))
        full = train(model, b, TrainConfig(**base))
        np.testing.assert_allclose(batched.theta, full.theta, rtol=1e-12)

    def test_minibatch_refuses_zero_unit_terms(self):
        model = self.one_event_cox()
        b = PresenceVector.all_ones(4).without(1)
        with pytest.raises(ValueError, match="no unit terms"):
            train(model, b, TrainConfig(optimizer="adam", batch_size=1))

    def test_reported_grad_norm_matches_final_point(self):
        model = logistic_fixture(40, 3, seed=2)
        b = PresenceVector.all_ones(40)
        res = train(model, b, TrainConfig(optimizer="gd", learning_rate=0.01, epochs=20))
        gn = float(np.linalg.norm(model.gradient(res.theta, b)))
        assert res.grad_norm == pytest.approx(gn, rel=1e-12)
        assert res.converged == (gn <= 1e-8)


class TestTrainDropOne:
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_rows_follow_their_own_runs(self, quad_model, optimizer):
        """Through the default per-row drop_one_gradients, each row is bit
        for bit the theta that train reaches without that object."""
        cfg = TrainConfig(optimizer=optimizer, learning_rate=0.05, epochs=30)
        ids = [0, 4, 11]
        rng = np.random.default_rng(8)
        inits = rng.standard_normal((3, 3))
        thetas, grad_norms = train_drop_one(quad_model, cfg, inits, ids)
        for theta, gn, init, i in zip(thetas, grad_norms, inits, ids):
            alone = train(quad_model, PresenceVector.drop(12, i), cfg, init=init)
            np.testing.assert_array_equal(theta, alone.theta)
            assert gn == pytest.approx(alone.grad_norm, rel=1e-14)

    def test_one_diverging_row_raises(self, quad_model):
        class Steep(QuadraticModel):
            def gradient(self, theta, b):
                return (10.0 if b.bits[3] else 1.0) * super().gradient(theta, b)

        cfg = TrainConfig(optimizer="gd", learning_rate=0.1, epochs=500)
        model = Steep(quad_model.centers)
        train_drop_one(model, cfg, np.zeros((1, 3)), [3])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            train_drop_one(model, cfg, np.zeros((2, 3)), [3, 5])

    @pytest.mark.parametrize("kwargs", [{"optimizer": "newton"}, {"optimizer": "adam", "batch_size": 4}])
    def test_refuses_newton_and_minibatches(self, quad_model, kwargs):
        with pytest.raises(ValueError, match="full-batch"):
            train_drop_one(quad_model, TrainConfig(**kwargs), np.zeros((1, 3)), [0])

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_out_of_range_id_rejected(self, quad_model, bad):
        with pytest.raises(ValueError, match=f"object id {bad} is outside"):
            train_drop_one(quad_model, TrainConfig(optimizer="gd"), np.zeros((1, 3)), [bad])

    def test_init_shape_rejected(self, quad_model):
        with pytest.raises(ValueError, match="shape"):
            train_drop_one(quad_model, TrainConfig(optimizer="gd"), np.zeros((2, 3)), [0])


class TestTargetValues:
    def test_default_is_the_value_loop(self):
        target = LinearTarget([0.3, -1.2, 2.0])
        thetas = np.random.default_rng(2).standard_normal((9, 3))
        got = target.values(thetas)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([target.value(t) for t in thetas]).tobytes()
        empty = target.values(np.empty((0, 3)))
        assert empty.shape == (0,) and empty.dtype == np.float64


class TestLossTarget:
    def test_logistic_point_is_the_log_loss(self):
        data = logistic_fixture(8, 3, seed=6)
        rng = np.random.default_rng(7)
        for x, y in zip(data.x, data.labels):
            t = LossTarget(LogisticModel(x[None], [y], reg=0.0))
            theta = rng.standard_normal(3)
            z = y * (theta @ x)
            assert t.value(theta) == pytest.approx(np.log1p(np.exp(-z)), rel=1e-13)
            np.testing.assert_allclose(t.gradient(theta), -y * x / (1.0 + np.exp(z)),
                                       rtol=1e-13, atol=0)


class TestDerivativeCheckers:
    def test_clean_model_passes(self, quad_model, full12):
        theta = np.array([0.3, -0.2, 0.9])
        assert check_gradient(quad_model, theta, full12) < 1e-8
        assert check_hessian(quad_model, theta, full12) < 1e-8

    def test_broken_gradient_detected(self, quad_model, full12):
        class Broken(QuadraticModel):
            def gradient(self, theta, b):
                return 1.5 * super().gradient(theta, b)

        broken = Broken(quad_model.centers)
        assert check_gradient(broken, np.array([0.3, -0.2, 0.9]), full12) > 1e-2

    def test_broken_hessian_detected(self, quad_model, full12):
        class Broken(QuadraticModel):
            def hessian(self, theta, b):
                h = super().hessian(theta, b)
                return h + 0.25 * np.eye(h.shape[0])

        broken = Broken(quad_model.centers)
        assert check_hessian(broken, np.array([0.3, -0.2, 0.9]), full12) > 1e-3


class TestLogisticBlocks:
    def test_delta_gradients_are_gradient_differences(self):
        model = logistic_fixture(20, 3, seed=4)
        theta = np.array([0.3, -0.2, 0.1])
        ones = PresenceVector.all_ones(20)
        d = model.delta_gradients(theta, [7, 3, 19])
        for row, i in enumerate((7, 3, 19)):
            np.testing.assert_array_equal(
                d[row], model.gradient(theta, ones) - model.gradient(theta, ones.without(i))
            )

    def test_delta_gradients_take_one_full_presence_gradient(self, monkeypatch):
        model = logistic_fixture(20, 3, seed=4)
        calls = count_calls(monkeypatch, model, "gradient")
        model.delta_gradients(np.array([0.3, -0.2, 0.1]), [7, 3, 19])
        assert len(calls) == 3 + 1

    def test_block_per_term_hvp_matches_columns(self):
        model = logistic_fixture(20, 3, seed=4)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(3)
        v = rng.standard_normal((3, 4))
        b = PresenceVector.drop(20, 6)
        for j in range(model.num_terms(b)):
            block = model.per_term_hvp(j, theta, b, v)
            cols = np.stack([model.per_term_hvp(j, theta, b, c) for c in v.T], axis=1)
            assert block.shape == (3, 4)
            np.testing.assert_allclose(block, cols, rtol=1e-14, atol=1e-15)
