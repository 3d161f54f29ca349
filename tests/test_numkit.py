"""Linear algebra kernels: SPD solves, CG, LiSSA, Pearson correlation."""

import numpy as np
import pytest
import scipy.linalg

from conftest import count_calls
from vifkit import numkit
from vifkit.errors import (
    DegenerateInputError,
    DivergedError,
    NonFiniteError,
    SingularMatrixError,
)
from vifkit.numkit import cg_solve, factor_spd, lissa_solve, pearson, solve_spd


def random_spd(rng, d, lo=0.5, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


class TestSolveSpd:
    def test_residual_contract(self):
        """|Ax - b| <= 1e-8 |b| across random well-conditioned systems."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 30))
            a = random_spd(rng, d)
            rhs = rng.standard_normal(d)
            x = solve_spd(factor_spd(a), rhs)
            assert np.linalg.norm(a @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_damping_shifts_spectrum(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        rhs = rng.standard_normal(6)
        x = solve_spd(factor_spd(a, 0.3), rhs)
        np.testing.assert_allclose((a + 0.3 * np.eye(6)) @ x, rhs, atol=1e-10)

    def test_indefinite_but_solvable(self):
        # exercises the LU fallback behind the Cholesky fast path
        a = np.diag([1.0, -1.0])
        x = solve_spd(factor_spd(a), np.array([2.0, 3.0]))
        np.testing.assert_allclose(x, [2.0, -3.0], atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_spd(factor_spd(np.zeros((3, 3))), np.ones(3))

    def test_rank_deficient_raises(self):
        a = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            solve_spd(factor_spd(a), np.array([1.0, 1.0]))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_spd(factor_spd(a), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(factor_spd(np.eye(3)), np.ones(2))


class TestFactorSpd:
    def test_factor_solve_matches_scipy_oracle(self):
        rng = np.random.default_rng(4)
        for n in (10, 240):
            spd = random_spd(rng, n)
            # eigenvalues of spd lie in [0.5, 5]; a diagonal entry below zero is indefinite
            indefinite = spd - 6.0 * np.diag(np.arange(n) % 2.0)
            for a, path, factor_fn, solve_fn in (
                (spd, "cholesky", scipy.linalg.cho_factor, scipy.linalg.cho_solve),
                (indefinite, "lu", scipy.linalg.lu_factor, scipy.linalg.lu_solve),
            ):
                factor = factor_spd(a, 0.1)
                assert factor.path == path
                oracle = factor_fn(factor.matrix)
                for _ in range(3):
                    rhs = rng.standard_normal(n)
                    want = solve_fn(oracle, rhs)
                    got = factor.solve(rhs)
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_indefinite_system_factored_once(self, monkeypatch):
        cho = count_calls(monkeypatch, np.linalg, "cholesky")
        cond = count_calls(monkeypatch, np.linalg, "cond")
        solves = count_calls(monkeypatch, np.linalg, "solve")
        factor = factor_spd(np.diag([1.0, -2.0, 3.0]), 0.5)
        assert factor.path == "lu"
        for j in range(10):
            solve_spd(factor, np.arange(3.0) + j)
        assert (len(cho), len(cond), len(solves)) == (1, 1, 10)

    def test_solve_failure_is_singular_matrix_error(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        for a, path in ((np.eye(3), "cholesky"), (np.diag([1.0, -2.0, 3.0]), "lu")):
            factor = factor_spd(a)
            assert factor.path == path
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", singular)
                with pytest.raises(SingularMatrixError):
                    factor.solve(np.ones(3))
                with pytest.raises(SingularMatrixError):
                    solve_spd(factor, np.ones(3))

    def test_per_rhs_checks_kept(self):
        factor = factor_spd(np.eye(3))
        with pytest.raises(ValueError):
            solve_spd(factor, np.ones(2))
        with pytest.raises(NonFiniteError):
            solve_spd(factor, np.array([1.0, np.nan, 0.0]))
        np.testing.assert_array_equal(solve_spd(factor, np.zeros(3)), np.zeros(3))

    def test_singular_factor_raises(self):
        with pytest.raises(SingularMatrixError):
            factor_spd(np.diag([1.0, 0.0]))


class TestBlockSolve:
    """solve_spd on a (dim, k) block: one gesv, column-wise checks."""

    def test_columns_match_single_solves_on_both_paths(self, monkeypatch):
        rng = np.random.default_rng(12)
        spd = random_spd(rng, 12)
        for a, path in ((spd, "cholesky"), (spd - 6.0 * np.diag(np.arange(12) % 2.0), "lu")):
            factor = factor_spd(a, 0.1)
            assert factor.path == path
            rhs = rng.standard_normal((12, 7))
            rhs[:, 3] = 0.0
            single = np.stack([solve_spd(factor, col) for col in rhs.T], axis=1)
            with monkeypatch.context() as m:
                solves = count_calls(m, np.linalg, "solve")
                block = solve_spd(factor, rhs)
            assert len(solves) == 1
            assert block.shape == (12, 7)
            assert np.abs(block - single).max() <= 1e-13 * np.abs(single).max()
            assert np.all(block[:, 3] == 0.0) and not np.signbit(block[:, 3]).any()
            m = factor.matrix
            resid = np.linalg.norm(m @ block - rhs, axis=0)
            assert np.all(resid <= 1e-8 * np.linalg.norm(rhs, axis=0))

    def test_block_checks(self):
        factor = factor_spd(np.eye(3))
        with pytest.raises(ValueError):
            solve_spd(factor, np.ones((2, 4)))
        with pytest.raises(ValueError):
            solve_spd(factor, np.ones((3, 2, 2)))
        bad = np.ones((3, 4))
        bad[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            solve_spd(factor, bad)
        np.testing.assert_array_equal(solve_spd(factor, np.zeros((3, 0))), np.zeros((3, 0)))


class TestCgSolve:
    def test_matches_direct_solve(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 25))
            a = random_spd(rng, d)
            rhs = rng.standard_normal(d)
            res = cg_solve(lambda v: a @ v, rhs)
            assert res.converged
            np.testing.assert_allclose(res.x, np.linalg.solve(a, rhs), atol=1e-6)

    def test_damping_applied_to_operator(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 8)
        rhs = rng.standard_normal(8)
        res = cg_solve(lambda v: a @ v, rhs, damping=0.7)
        np.testing.assert_allclose(
            res.x, np.linalg.solve(a + 0.7 * np.eye(8), rhs), atol=1e-6
        )

    def test_zero_rhs_short_circuits(self):
        res = cg_solve(lambda v: v, np.zeros(4))
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.x, np.zeros(4))

    def test_iteration_cap_reported_not_raised(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 20, lo=0.01, hi=100.0)
        res = cg_solve(lambda v: a @ v, rng.standard_normal(20), max_iter=2)
        assert not res.converged
        assert res.iterations == 2
        assert res.residual_norm > 0


class TestLissaSolve:
    def test_deterministic_limit_converges(self):
        """Full-batch recursion is a damped Neumann series; with the scale
        above the top eigenvalue it converges geometrically to A^{-1} rhs."""
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        rhs = rng.standard_normal(5)
        x = lissa_solve(
            lambda j, v: a @ v, num_steps=800, scale=10.0, damping=0.0,
            rhs=rhs, rng_seed=0,
        )
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), atol=1e-8)

    def test_damped_target(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        rhs = rng.standard_normal(5)
        x = lissa_solve(
            lambda j, v: a @ v, num_steps=800, scale=10.0, damping=0.5,
            rhs=rhs, rng_seed=0,
        )
        np.testing.assert_allclose(
            x, np.linalg.solve(a + 0.5 * np.eye(5), rhs), atol=1e-8
        )

    def test_longer_prefix_is_closer(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 6)
        rhs = rng.standard_normal(6)
        truth = np.linalg.solve(a, rhs)
        errs = []
        for steps in (10, 60, 300):
            x = lissa_solve(
                lambda j, v: a @ v, num_steps=steps, scale=10.0, damping=0.0,
                rhs=rhs, rng_seed=0,
            )
            errs.append(np.linalg.norm(x - truth))
        assert errs[0] > errs[1] > errs[2]

    def test_per_term_sampling_tracks_mean_operator(self):
        """sample_hvp(j, .) returning term j's matrix-vector product is an
        unbiased estimate of the mean operator; the seeded iterate should
        land near the damped solve."""
        rng = np.random.default_rng(6)
        terms = [random_spd(rng, 4) for _ in range(8)]
        mean_op = sum(terms) / len(terms)
        rhs = rng.standard_normal(4)
        truth = np.linalg.solve(mean_op + 0.1 * np.eye(4), rhs)
        x = lissa_solve(
            lambda j, v: terms[j] @ v, num_steps=4000, scale=12.0, damping=0.1,
            rhs=rhs, rng_seed=7, n_terms=8,
        )
        cos = (x @ truth) / (np.linalg.norm(x) * np.linalg.norm(truth))
        assert cos > 0.99

    def test_identical_terms_reduce_to_deterministic(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 4)
        rhs = rng.standard_normal(4)
        det = lissa_solve(
            lambda j, v: a @ v, num_steps=200, scale=10.0, damping=0.0,
            rhs=rhs, rng_seed=0,
        )
        sampled = lissa_solve(
            lambda j, v: a @ v, num_steps=200, scale=10.0, damping=0.0,
            rhs=rhs, rng_seed=123, n_terms=5,
        )
        np.testing.assert_array_equal(det, sampled)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(9)
        terms = [random_spd(rng, 3) for _ in range(4)]
        rhs = rng.standard_normal(3)
        args = dict(num_steps=50, scale=10.0, damping=0.0, rhs=rhs)
        a1 = lissa_solve(lambda j, v: terms[j] @ v, rng_seed=1, n_terms=4, **args)
        a2 = lissa_solve(lambda j, v: terms[j] @ v, rng_seed=1, n_terms=4, **args)
        b = lissa_solve(lambda j, v: terms[j] @ v, rng_seed=2, n_terms=4, **args)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_divergence_raises(self):
        a = np.diag([40.0])
        with pytest.raises(DivergedError):
            lissa_solve(
                lambda j, v: a @ v, num_steps=50, scale=1.0, damping=0.0,
                rhs=np.array([1.0]), rng_seed=0,
            )

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            lissa_solve(
                lambda j, v: v, num_steps=5, scale=0.0, damping=0.0,
                rhs=np.ones(2), rng_seed=0,
            )


class TestLissaBlock:
    """lissa_solve on a (dim, k) block: one recursion, per-column answers."""

    def test_columns_match_single_runs_across_chunks(self, monkeypatch):
        rng = np.random.default_rng(13)
        terms = [random_spd(rng, 5) for _ in range(6)]
        rhs = rng.standard_normal((5, 7))
        args = dict(num_steps=80, scale=12.0, damping=0.1, rng_seed=3, n_terms=6)
        # chunks of 3 columns: each replays the seed, so chunking changes nothing
        monkeypatch.setattr(numkit, "BLOCK_ENTRIES", 15)
        block = lissa_solve(lambda j, v: terms[j] @ v, rhs=rhs, **args)
        for c in range(7):
            single = lissa_solve(lambda j, v: terms[j] @ v, rhs=rhs[:, c], **args)
            assert single.shape == (5,)
            assert np.abs(block[:, c] - single).max() <= 1e-13 * np.abs(single).max()

    def test_chunks_bound_the_block_entries(self, monkeypatch):
        monkeypatch.setattr(numkit, "BLOCK_ENTRIES", 8)

        def widths(**kw):
            seen = []

            def hvp(j, v):
                seen.append(v.shape[1])
                return v

            lissa_solve(hvp, num_steps=3, scale=2.0, damping=0.0,
                        rhs=np.ones((2, 10)), rng_seed=0, **kw)
            return seen

        # dim 2: 4 columns of 2 rows per chunk
        assert widths() == [4] * 3 + [4] * 3 + [2] * 3
        # temporaries of 3 rows per column: 2 columns per chunk
        assert widths(rows=3) == [2] * 15
        # a column taller than the bound is a chunk of its own
        assert widths(rows=100) == [1] * 30

    def test_zero_column_is_exact_zero_and_never_sampled(self):
        rng = np.random.default_rng(14)
        a = random_spd(rng, 4)
        rhs = rng.standard_normal((4, 3))
        rhs[:, 1] = 0.0
        widths = []

        def hvp(j, v):
            widths.append(v.shape[1])
            return a @ v

        x = lissa_solve(hvp, num_steps=20, scale=10.0, damping=0.0, rhs=rhs, rng_seed=0)
        assert set(widths) == {2}
        assert np.all(x[:, 1] == 0.0) and not np.signbit(x[:, 1]).any()
        np.testing.assert_array_equal(
            lissa_solve(hvp, num_steps=20, scale=10.0, damping=0.0,
                        rhs=np.zeros((4, 2)), rng_seed=0),
            np.zeros((4, 2)),
        )

    def test_one_diverging_column_raises(self):
        a = np.diag([40.0, 1.0])
        args = dict(num_steps=50, scale=1.0, damping=0.0, rng_seed=0)
        calm = np.array([[0.0], [1.0]])  # the eigenvalue-1 direction converges
        lissa_solve(lambda j, v: a @ v, rhs=calm, **args)
        with pytest.raises(DivergedError):
            lissa_solve(lambda j, v: a @ v, rhs=np.hstack([calm, [[1.0], [0.0]]]), **args)


class TestPearson:
    def test_pinned_value(self):
        a = np.array([1.0, 2.0, 4.0, 5.0, 8.0])
        b = np.array([2.0, 3.0, 3.0, 6.0, 9.0])
        assert pearson(a, b) == pytest.approx(0.9505863757867169, abs=1e-13)

    def test_affine_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        r = pearson(a, b)
        assert pearson(a, 3.0 * b + 2.0) == pytest.approx(r, abs=1e-12)
        assert pearson(a, -b) == pytest.approx(-r, abs=1e-12)

    def test_perfect_correlation(self):
        a = np.arange(10.0)
        assert pearson(a, 2.0 * a + 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson(np.ones(5), np.arange(5.0))

    def test_too_short_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson(np.arange(3.0), np.arange(4.0))
