import numpy as np
import pytest

from randiter import linalg, oracle
from randiter.ridge import (
    RcdRidgeState,
    RidgeState,
    rcd_ridge_run,
    rcd_ridge_step,
    rcd_ridge_weights,
    rk_ridge_run,
    rk_ridge_step,
    rk_ridge_weights,
)
from randiter.sampling import RngState, build_sampler
from randiter.solvers import RunConfig


def zero_ridge_state(n, p, lam, seed=0):
    return RidgeState(np.zeros(n), np.zeros(p), 0, RngState(seed), lam)


def scaled_instance(n, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = linalg.dense_matrix(rng.standard_normal((n, p)) / np.sqrt(n))
    y = linalg.dense_vector(rng.standard_normal(n))
    return X, y


class TestRkRidgeStep:
    def test_scalar_fixed_point(self):
        X = linalg.dense_matrix([[1.0]])
        y = np.array([2.0])
        st = zero_ridge_state(1, 1, lam=1.0)
        rk_ridge_step(st, X, y, 0)
        assert st.alpha[0] == pytest.approx(1.0)
        assert st.beta[0] == pytest.approx(1.0)
        rk_ridge_step(st, X, y, 0)  # already at the fixed point
        assert st.alpha[0] == pytest.approx(1.0)
        beta_rr = oracle.ridge_solution(X, y, 1.0)[0]
        assert st.beta[0] == pytest.approx(beta_rr[0])

    def test_zero_correction_leaves_state(self):
        X, y = scaled_instance(6, 3, seed=1)
        lam = 0.2
        alpha_star = oracle.ridge_alpha_star(X, y, lam)
        st = RidgeState(alpha_star.copy(), X.T @ alpha_star, 0, RngState(0), lam)
        for row in range(6):
            before_a, before_b = st.alpha.copy(), st.beta.copy()
            rk_ridge_step(st, X, y, row)
            assert np.max(np.abs(st.alpha - before_a)) < 1e-12
            assert np.max(np.abs(st.beta - before_b)) < 1e-12

    def test_duality_link(self):
        X, y = scaled_instance(12, 5, seed=2)
        st = zero_ridge_state(12, 5, lam=0.3, seed=4)
        sampler = build_sampler(rk_ridge_weights(X, 0.3))
        for _ in range(400):
            rk_ridge_step(st, X, y, sampler.draw(st.rng))
            link = np.max(np.abs(st.beta - X.T @ st.alpha))
            assert link <= 1e-10 * (1.0 + np.max(np.abs(st.beta)))

    def test_matches_generic_psd_coordinate_step(self):
        # same move as x_i += (b_i - <A_i, x>) / A_ii on A = XX^T + lam I
        X, y = scaled_instance(7, 4, seed=3)
        lam = 0.5
        A = oracle.outer_gram(X) + lam * np.eye(7)
        rng = np.random.default_rng(5)
        alpha = rng.standard_normal(7)
        st = RidgeState(alpha.copy(), X.T @ alpha, 0, RngState(0), lam)
        for i in range(7):
            expected = alpha.copy()
            expected[i] += (y[i] - float(A[i] @ alpha)) / A[i, i]
            st.alpha = alpha.copy()
            st.beta = X.T @ alpha
            rk_ridge_step(st, X, y, i)
            assert np.max(np.abs(st.alpha - expected)) <= 1e-12

    def test_converges_to_ridge_solution(self):
        X, y = scaled_instance(30, 10, seed=3)
        lam = 0.1
        beta_rr = oracle.ridge_solution(X, y, lam)[0]
        st = zero_ridge_state(30, 10, lam, seed=3)
        sampler = build_sampler(rk_ridge_weights(X, lam))
        for _ in range(100000):
            rk_ridge_step(st, X, y, sampler.draw(st.rng))
        assert np.linalg.norm(st.beta - beta_rr) <= 1e-8


class TestRcdRidgeStep:
    def test_diagonal_case(self):
        X = linalg.dense_matrix(np.eye(2))
        y = np.array([2.0, 2.0])
        st = RcdRidgeState(np.zeros(2), y.copy(), 0, RngState(0), 1.0)
        rcd_ridge_step(st, X, y, 0)
        assert np.allclose(st.beta, [1.0, 0.0])
        rcd_ridge_step(st, X, y, 1)
        assert np.allclose(st.beta, oracle.ridge_solution(X, y, 1.0)[0])

    def test_no_op_when_optimal(self):
        X = linalg.dense_matrix(np.eye(2))
        st = RcdRidgeState(np.zeros(2), np.zeros(2), 0, RngState(0), 0.7)
        rcd_ridge_step(st, X, np.zeros(2), 0)
        assert np.all(st.beta == 0.0)

    def test_regularized_optimality_per_step(self):
        X, y = scaled_instance(12, 5, seed=6)
        lam = 0.3
        st = RcdRidgeState(np.zeros(5), y.copy(), 0, RngState(8), lam)
        sampler = build_sampler(rcd_ridge_weights(X, lam))
        tol = 1e-10 * (1.0 + np.max(np.abs(y)))
        for _ in range(400):
            c = sampler.draw(st.rng)
            rcd_ridge_step(st, X, y, c)
            grad_c = float(X[:, c] @ (y - X @ st.beta)) - lam * st.beta[c]
            assert abs(grad_c) <= tol

    def test_shrinkage_two_form_identity(self):
        # closed update equals S_{lam/||Xc||^2}(beta_c + <Xc, r>/||Xc||^2)
        rng = np.random.default_rng(9)
        X, y = scaled_instance(10, 4, seed=7)
        lam = 0.25
        for trial in range(20):
            beta = rng.standard_normal(4)
            r = y - X @ beta
            c = trial % 4
            nrm = float(X[:, c] @ X[:, c])
            st = RcdRidgeState(beta.copy(), r.copy(), 0, RngState(0), lam)
            rcd_ridge_step(st, X, y, c)
            z = beta[c] + float(X[:, c] @ r) / nrm
            alt = z / (1.0 + lam / nrm)
            assert abs(st.beta[c] - alt) <= 1e-14 * (1.0 + abs(alt))

    def test_converges_to_ridge_solution(self):
        X, y = scaled_instance(30, 10, seed=8)
        lam = 0.1
        beta_rr = oracle.ridge_solution(X, y, lam)[0]
        st = RcdRidgeState(np.zeros(10), y.copy(), 0, RngState(2), lam)
        sampler = build_sampler(rcd_ridge_weights(X, lam))
        for k in range(100000):
            rcd_ridge_step(st, X, y, sampler.draw(st.rng))
            if (k + 1) % 1000 == 0:
                st.residual = y - X @ st.beta
        assert np.linalg.norm(st.beta - beta_rr) <= 1e-8


class TestRidgeRuns:
    def test_lambda_zero_rejected(self):
        X, y = scaled_instance(6, 3, seed=10)
        with pytest.raises(ValueError):
            rk_ridge_run(X, y, 0.0, RunConfig(max_iters=10), np.zeros(3), np.zeros(6), 0.9)
        with pytest.raises(ValueError):
            rcd_ridge_run(X, y, 0.0, RunConfig(max_iters=10), np.zeros(3), 0.9)

    def test_rk_ridge_rejects_beta0(self):
        # the row loop keeps beta = X^T alpha from alpha = 0; a primal
        # start would break that, so it is refused, not dropped
        X, y = scaled_instance(6, 3, seed=10)
        config = RunConfig(max_iters=10, beta0=np.ones(3))
        with pytest.raises(ValueError, match="beta0"):
            rk_ridge_run(X, y, 0.1, config, np.zeros(3), np.zeros(6), 0.9)

    def test_rk_ridge_trace_energy_decreases(self):
        X, y = scaled_instance(20, 6, seed=11)
        lam = 0.2
        beta_rr = oracle.ridge_solution(X, y, lam)[0]
        alpha_star = oracle.ridge_alpha_star(X, y, lam)
        rate = oracle.theoretical_rate(oracle.outer_gram(X) + lam * np.eye(20))
        trace = rk_ridge_run(X, y, lam, RunConfig(max_iters=4000, seed=12),
                             beta_rr, alpha_star, rate)
        energy = trace.column("energy_err_sq")
        assert energy[-1] < 1e-6 * energy[0]


class TestRidgeStopsAtTol:
    def setup_method(self):
        self.X, self.y = scaled_instance(20, 6, seed=14)
        self.lam = 0.2
        self.beta_rr = oracle.ridge_solution(self.X, self.y, self.lam)[0]

    def test_rk_ridge(self, assert_stops_at_tol):
        X, y, lam = self.X, self.y, self.lam
        alpha_star = oracle.ridge_alpha_star(X, y, lam)
        rate = oracle.theoretical_rate(oracle.outer_gram(X) + lam * np.eye(20))
        assert_stops_at_tol(lambda tol: rk_ridge_run(
            X, y, lam, RunConfig(max_iters=8000, tol=tol, seed=15, checkpoint_every=20),
            self.beta_rr, alpha_star, rate))

    def test_rcd_ridge(self, assert_stops_at_tol):
        X, y, lam = self.X, self.y, self.lam
        rate = oracle.theoretical_rate(oracle.gram(X) + lam * np.eye(6))
        assert_stops_at_tol(lambda tol: rcd_ridge_run(
            X, y, lam, RunConfig(max_iters=8000, tol=tol, seed=16, checkpoint_every=6),
            self.beta_rr, rate))
