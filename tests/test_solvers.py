import numpy as np
import pytest

from randiter import linalg, oracle
from randiter.errors import ZeroNormColumn, ZeroNormRow
from randiter.sampling import build_sampler
from randiter.solvers import (
    ConvergenceTrace,
    Regime,
    RunConfig,
    TraceRecord,
    rcd_step,
    rk_step,
    run,
)

from conftest import null_space_leakage, pcg, traced_peak


class TestRkStep:
    def test_projection_onto_axis(self):
        X = linalg.dense_matrix(np.eye(2))
        y = np.array([1.0, 2.0])
        beta = np.zeros(2)
        assert rk_step(beta, X, y, 0) is None
        assert np.allclose(beta, [1.0, 0.0])

    def test_forced_row(self):
        X = linalg.dense_matrix([[3.0, 4.0]])
        y = np.array([10.0])
        beta = np.zeros(2)
        rk_step(beta, X, y, 0)
        assert np.allclose(beta, [1.2, 1.6])
        assert float(X[0] @ beta) == pytest.approx(10.0, abs=1e-12)

    def test_zero_norm_row_raises(self):
        X = linalg.dense_matrix([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ZeroNormRow):
            rk_step(np.zeros(2), X, np.zeros(2), 0)

    def test_projection_identity_random_steps(self):
        inst = oracle.gen_consistent(12, 5, seed=3)
        X, y = inst.X, inst.y
        beta, rng = np.zeros(5), pcg(0)
        sampler = build_sampler(linalg.row_norms_sq(X))
        for _ in range(500):
            r = sampler.draw(rng)
            rk_step(beta, X, y, r)
            assert abs(float(X[r] @ beta) - y[r]) <= 1e-10 * (1.0 + abs(y[r]))

    def test_converges_to_oracle_solution(self):
        inst = oracle.gen_consistent(8, 3, seed=21)
        X, y = inst.X, inst.y
        beta_star = linalg.solve_spd(X.T @ X, X.T @ y)  # closed form
        beta, rng = np.zeros(3), pcg(7)
        sampler = build_sampler(linalg.row_norms_sq(X))
        for _ in range(20000):
            rk_step(beta, X, y, sampler.draw(rng))
        assert np.linalg.norm(beta - beta_star) <= 1e-8


class TestRcdStep:
    def test_axis_column(self):
        X = linalg.dense_matrix(np.eye(2))
        y = np.array([1.0, 2.0])
        beta, residual = np.zeros(2), y.copy()
        assert rcd_step(beta, residual, X, 0) is None
        assert np.allclose(beta, [1.0, 0.0])
        assert np.allclose(residual, [0.0, 2.0])

    def test_single_column_least_squares(self):
        X = linalg.dense_matrix([[3.0], [4.0]])
        y = np.array([10.0, 10.0])
        beta = np.zeros(1)
        rcd_step(beta, y.copy(), X, 0)
        assert beta[0] == pytest.approx(70.0 / 25.0)

    def test_zero_norm_column_raises(self):
        X = linalg.dense_matrix([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroNormColumn):
            rcd_step(np.zeros(2), np.zeros(2), X, 1)

    def test_coordinate_optimality_random_steps(self):
        inst = oracle.gen_inconsistent(12, 5, 0.5, seed=4)
        X, y = inst.X, inst.y
        beta, residual, rng = np.zeros(5), y.copy(), pcg(0)
        sampler = build_sampler(linalg.col_norms_sq(X))
        tol = 1e-10 * (1.0 + np.max(np.abs(y)))
        for _ in range(500):
            c = sampler.draw(rng)
            rcd_step(beta, residual, X, c)
            assert abs(float(X[:, c] @ (y - X @ beta))) <= tol

    def test_converges_to_least_squares(self):
        inst = oracle.gen_inconsistent(10, 3, 0.5, seed=5)
        X, y = inst.X, inst.y
        beta_ls = linalg.solve_spd(X.T @ X, X.T @ y)
        beta, residual, rng = np.zeros(3), y.copy(), pcg(11)
        sampler = build_sampler(linalg.col_norms_sq(X))
        for k in range(30000):
            rcd_step(beta, residual, X, sampler.draw(rng))
            if (k + 1) % 1000 == 0:
                residual[:] = y - X @ beta
        assert np.linalg.norm(beta - beta_ls) <= 1e-7


class TestPythagorasAndMonotonicity:
    def test_rk_pythagoras_consistent(self):
        inst = oracle.gen_consistent(20, 8, seed=6)
        X, y, ref = inst.X, inst.y, inst.reference
        beta, rng = np.zeros(8), pcg(1)
        sampler = build_sampler(linalg.row_norms_sq(X))
        for _ in range(300):
            prev = beta.copy()
            e_prev = float((prev - ref) @ (prev - ref))
            rk_step(beta, X, y, sampler.draw(rng))
            e_new = float((beta - ref) @ (beta - ref))
            move = float((beta - prev) @ (beta - prev))
            assert abs(e_prev - e_new - move) <= 1e-9 * max(e_prev, 1e-300)
            assert e_new <= e_prev * (1.0 + 1e-12)

    def test_rcd_pythagoras_even_inconsistent(self):
        inst = oracle.gen_inconsistent(20, 8, 0.5, seed=7)
        X, y, ref = inst.X, inst.y, inst.reference
        beta, residual, rng = np.zeros(8), y.copy(), pcg(2)
        sampler = build_sampler(linalg.col_norms_sq(X))
        fit_ref = X @ ref
        for _ in range(300):
            prev_fit = X @ beta
            e_prev = float((prev_fit - fit_ref) @ (prev_fit - fit_ref))
            rcd_step(beta, residual, X, sampler.draw(rng))
            fit = X @ beta
            e_new = float((fit - fit_ref) @ (fit - fit_ref))
            move = float((fit - prev_fit) @ (fit - prev_fit))
            assert abs(e_prev - e_new - move) <= 1e-9 * max(e_prev, 1e-300)
            assert e_new <= e_prev * (1.0 + 1e-12)

    def test_rk_row_space_confinement(self):
        inst = oracle.gen_underdetermined(6, 15, seed=8)
        X, y = inst.X, inst.y
        basis = oracle.null_space_basis(X)
        beta, rng = np.zeros(15), pcg(3)
        sampler = build_sampler(linalg.row_norms_sq(X))
        for _ in range(400):
            rk_step(beta, X, y, sampler.draw(rng))
            leak = null_space_leakage(X, beta, basis)
            assert leak <= 1e-10 * max(np.linalg.norm(beta), 1e-300)


class TestRun:
    def test_identity_system_converges_immediately(self):
        X = linalg.dense_matrix(np.eye(2))
        y = np.array([1.0, 1.0])
        trace = run(method="rk", X=X, y=y, regime=Regime.CONSISTENT_UNIQUE,
                    config=RunConfig(max_iters=10, checkpoint_every=1),
                    reference=y.copy(), rate=0.5)
        final = trace.final()
        assert final.err_sq <= 1e-20
        assert final.energy_err_sq <= 1e-20

    @pytest.mark.parametrize("method", ["rk", "rcd"])
    def test_overflowed_start_records_inf_not_nan(self, method):
        # ||beta0 - reference||^2 overflows: at lam = 0 no lam ||v||^2 term
        # may turn it into 0 * inf = nan
        inst = oracle.gen_consistent(15, 6, seed=9)
        config = RunConfig(max_iters=100, seed=4)
        with np.errstate(over="ignore"):
            trace = run(method, inst.X, inst.y, inst.regime, config, inst.reference, 0.9,
                        np.full(6, 1e200))
        first = trace.records[0]
        assert (first.err_sq, first.energy_err_sq, first.residual_sq) == (np.inf,) * 3

    def test_trace_is_strictly_increasing_and_finite(self):
        inst = oracle.gen_consistent(15, 6, seed=9)
        rate = oracle.theoretical_rate(oracle.gram(inst.X))
        trace = run("rcd", inst.X, inst.y, inst.regime, RunConfig(max_iters=500, seed=4),
                    inst.reference, rate)
        iters = trace.column("iter")
        assert np.all(np.diff(iters) > 0)
        for name in ("err_sq", "energy_err_sq", "residual_sq", "bound"):
            col = trace.column(name)
            assert np.all(np.isfinite(col)) and np.all(col >= 0.0)

    def test_underdetermined_rcd_leaves_min_norm_gap(self):
        inst = oracle.gen_underdetermined(10, 40, seed=10)
        rate = oracle.theoretical_rate(oracle.gram(inst.X), positive_only=True)
        trace = run("rcd", inst.X, inst.y, inst.regime,
                    RunConfig(max_iters=60000, seed=5, tol=1e-13), inst.reference, rate)
        final = trace.final()
        assert final.residual_sq <= 1e-12
        assert final.err_sq > 0.01 ** 2

    @pytest.mark.parametrize("method", ["rk", "rcd"])
    def test_run_holds_three_n_vectors(self, method):
        # rk: the sampler's cumulative sums and a checkpoint's one
        # n-vector, and no alpha (see test_rk_keeps_no_alpha); rcd: r,
        # its step buffer and that n-vector
        n, p = 20000, 10
        inst = oracle.gen_consistent(n, p, seed=12)
        config = RunConfig(max_iters=2000, seed=13)  # UNKNOWN: runs to max_iters
        trace, peak = traced_peak(run, method, inst.X, inst.y, Regime.UNKNOWN, config,
                                  inst.reference, 0.9)
        assert trace.final().iter == 2000
        assert peak < 4 * 8 * n

    def test_rk_keeps_no_alpha(self):
        # alpha is read only as lam alpha, so at lam = 0 rk holds two
        # n-vectors: the sampler's cumulative sums and a checkpoint's one
        n, p = 20000, 10
        inst = oracle.gen_consistent(n, p, seed=12)
        config = RunConfig(max_iters=2000, seed=13)
        trace, peak = traced_peak(run, "rk", inst.X, inst.y, Regime.UNKNOWN, config,
                                  inst.reference, 0.9)
        assert trace.final().iter == 2000
        assert peak < 2.5 * 8 * n

    def test_trace_record_rejects_nonincreasing_iter(self):
        trace = ConvergenceTrace()
        trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 1.0))


class TestSeedContract:
    # RunConfig.seed takes what numpy's SeedSequence took for an int seed
    INST = oracle.gen_inconsistent(30, 10, 0.1, seed=3)

    def trace(self, seed):
        config = RunConfig(max_iters=90, seed=seed, checkpoint_every=10)  # to max_iters
        return run("rk", self.INST.X, self.INST.y, Regime.UNKNOWN, config,
                   self.INST.reference, 0.9).column("err_sq").tolist()

    def test_negative_seed_raises_value_error(self):
        with pytest.raises(ValueError):
            self.trace(-1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
    def test_non_integer_seed_raises_type_error(self, seed):
        with pytest.raises(TypeError):
            self.trace(seed)

    def test_integer_likes_run_as_their_int(self):
        assert self.trace(np.int64(7)) == self.trace(np.uint64(7)) == self.trace(7)
        assert self.trace(True) == self.trace(1) != self.trace(7)

    def test_seeds_past_64_bits_run(self):
        assert self.trace(2**64 + 1) != self.trace(1)

    def test_no_seed_draws_fresh_entropy(self):
        first, second = self.trace(None), self.trace(None)
        assert first != second and first[0] == second[0]

    def test_int_list_seed_runs(self):
        assert self.trace([1, 2**40]) == self.trace([1, 0, 256]) != self.trace(1)
