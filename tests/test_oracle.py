import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randiter
from randiter import cli, linalg, oracle
from randiter.errors import DegenerateMatrix, NotPositiveDefinite, OracleInconsistency
from randiter.kernel import KernelSpec
from randiter.solvers import Regime

from conftest import null_space_leakage


class TestLsSolution:
    def test_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        assert np.allclose(oracle.ls_solution(np.eye(3), y), y)

    def test_mean_of_observations(self):
        X = linalg.dense_matrix([[1.0], [1.0]])
        assert oracle.ls_solution(X, np.array([1.0, 2.0]))[0] == pytest.approx(1.5)

    def test_normal_equation_orthogonality(self):
        rng = np.random.default_rng(1)
        X = linalg.dense_matrix(rng.standard_normal((20, 5)))
        y = rng.standard_normal(20)
        beta = oracle.ls_solution(X, y)
        assert np.max(np.abs(X.T @ (y - X @ beta))) <= 1e-9

    def test_rank_deficiency(self):
        X = linalg.dense_matrix([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            oracle.ls_solution(X, np.ones(3))


class TestMinNormSolution:
    def test_symmetric_split(self):
        X = linalg.dense_matrix([[1.0, 1.0]])
        assert np.allclose(oracle.min_norm_solution(X, np.array([2.0])), [1.0, 1.0])

    def test_identity(self):
        y = np.array([3.0, 4.0])
        assert np.allclose(oracle.min_norm_solution(np.eye(2), y), y)

    def test_norm_minimality_spot_check(self):
        rng = np.random.default_rng(2)
        X = linalg.dense_matrix(rng.standard_normal((5, 12)))
        y = rng.standard_normal(5)
        beta = oracle.min_norm_solution(X, y)
        assert np.max(np.abs(X @ beta - y)) <= 1e-9
        basis = oracle.null_space_basis(X)
        for _ in range(100):
            z = basis @ rng.standard_normal(basis.shape[1])
            assert np.linalg.norm(beta) <= np.linalg.norm(beta + z) + 1e-12


class TestRidgeSolution:
    def test_diagonal(self):
        assert np.allclose(oracle.ridge_solution(np.eye(2), np.array([2.0, 4.0]), 1.0)[0],
                           [1.0, 2.0])

    def test_large_lambda_shrinkage_bound(self):
        rng = np.random.default_rng(3)
        X = linalg.dense_matrix(rng.standard_normal((10, 4)))
        y = rng.standard_normal(10)
        lam = 1e6
        beta = oracle.ridge_solution(X, y, lam)[0]
        assert np.linalg.norm(beta) <= np.linalg.norm(X.T @ y) / lam

    def test_dual_forms_agree_across_shapes_and_seeds(self):
        shapes = [(15, 6), (8, 3), (12, 12), (5, 11), (20, 2)]
        for n, p in shapes:
            for seed in range(5):
                rng = np.random.default_rng(1000 * n + 10 * p + seed)
                X = linalg.dense_matrix(rng.standard_normal((n, p)))
                y = rng.standard_normal(n)
                beta = oracle.ridge_solution(X, y, 0.3)[0]
                primal = np.linalg.solve(X.T @ X + 0.3 * np.eye(p), X.T @ y)
                assert np.max(np.abs(beta - primal)) < 1e-10 * (1.0 + np.max(np.abs(primal)))

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            oracle.ridge_solution(np.eye(2), np.ones(2), 0.0)

    @pytest.mark.parametrize("n,p", [(15, 6), (9, 9), (6, 15)])
    def test_alpha_star_is_the_dual_solution(self, n, p):
        rng = np.random.default_rng(n + p)
        X = linalg.dense_matrix(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        beta, alpha = oracle.ridge_solution(X, y, 0.3)
        dual = np.linalg.solve(X @ X.T + 0.3 * np.eye(n), y)
        assert np.max(np.abs(alpha - dual)) < 1e-10 * (1.0 + np.max(np.abs(dual)))
        assert np.max(np.abs(beta - X.T @ alpha)) < 1e-10 * (1.0 + np.max(np.abs(beta)))

    @pytest.mark.parametrize("n,p", [(60, 5), (5, 60)])
    @pytest.mark.parametrize("lam", [1e-6, 1e-9])
    def test_small_lambda_passes_the_check(self, n, p, lam):
        # The check is relative to X^T y, so rounding that 1/lambda
        # amplifies in alpha does not fail it.
        rng = np.random.default_rng(n + p)
        X = linalg.dense_matrix(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        beta = oracle.ridge_solution(X, y, lam)[0]
        stacked = np.vstack([X, np.sqrt(lam) * np.eye(p)])
        expected = np.linalg.lstsq(stacked, np.concatenate([y, np.zeros(p)]), rcond=None)[0]
        assert np.max(np.abs(beta - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n,p", [(15, 6), (6, 15)])
    def test_unused_link_failing_raises(self, monkeypatch, n, p):
        # A solve that is off by 1e-6 relative still gives one vector from
        # the other exactly; the normal equation is what it breaks.
        rng = np.random.default_rng(n * p)
        X = linalg.dense_matrix(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        oracle.ridge_solution(X, y, 0.3)
        solve = linalg.solve_spd
        monkeypatch.setattr(linalg, "solve_spd", lambda A, b: solve(A, b) * (1.0 + 1e-6))
        with pytest.raises(OracleInconsistency):
            oracle.ridge_solution(X, y, 0.3)


class TestKrrAlphaStar:
    def test_scalar(self):
        data = linalg.dense_matrix([[1.0]])
        alpha = oracle.krr_alpha_star(data, np.array([1.0]), KernelSpec("linear"), 1.0)
        assert alpha[0] == pytest.approx(0.5)

    def test_linear_kernel_equals_dual_solve(self):
        rng = np.random.default_rng(4)
        data = linalg.dense_matrix(rng.standard_normal((9, 3)))
        y = rng.standard_normal(9)
        alpha = oracle.krr_alpha_star(data, y, KernelSpec("linear"), 0.2)
        expected = linalg.solve_spd(data @ data.T + 0.2 * np.eye(9), y)
        assert np.max(np.abs(alpha - expected)) < 1e-10

    def test_gaussian_residual(self):
        rng = np.random.default_rng(5)
        data = linalg.dense_matrix(rng.standard_normal((20, 2)))
        y = rng.standard_normal(20)
        spec = KernelSpec("gaussian", gamma=0.5)
        alpha = oracle.krr_alpha_star(data, y, spec, 0.1)
        K = oracle.gram_matrix(spec, data)
        assert np.max(np.abs((K + 0.1 * np.eye(20)) @ alpha - y)) <= 1e-8

    def test_passed_A_gives_the_bits_of_the_default(self):
        rng = np.random.default_rng(6)
        data = linalg.dense_matrix(rng.standard_normal((20, 2)))
        y = rng.standard_normal(20)
        spec = KernelSpec("gaussian", gamma=0.5)
        A = oracle.gram_matrix(spec, data) + 0.1 * np.eye(20)
        alpha = oracle.krr_alpha_star(data, y, spec, 0.1, A)
        assert alpha.tobytes() == oracle.krr_alpha_star(data, y, spec, 0.1).tobytes()


class TestTheoreticalRate:
    def test_identity(self):
        assert oracle.theoretical_rate(np.eye(2)) == pytest.approx(0.5)

    def test_diag(self):
        assert oracle.theoretical_rate(np.diag([1.0, 4.0])) == pytest.approx(0.8)

    def test_positive_only_flag(self):
        assert oracle.theoretical_rate(np.diag([0.0, 1.0, 3.0]), positive_only=True) \
            == pytest.approx(0.75)

    def test_zero_trace(self):
        with pytest.raises(DegenerateMatrix):
            oracle.theoretical_rate(np.zeros((2, 2)))

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_planted_spectrum(self, positive, zeros, seed):
        # M = Q diag(d) Q^T with a random orthogonal Q and known d
        d = np.array(positive + [0.0] * zeros)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((d.size, d.size)))
        M = (Q * d) @ Q.T
        expected = 1.0 - min(positive) / float(np.sum(d))
        got = oracle.theoretical_rate(M, positive_only=zeros > 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_flag_is_noop_for_full_rank(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((6, 6))
        sigma = M.T @ M + 0.1 * np.eye(6)
        assert oracle.theoretical_rate(sigma) == pytest.approx(
            oracle.theoretical_rate(sigma, positive_only=True))


class TestNullSpaceBasis:
    @pytest.mark.parametrize("n,p", [(1, 2), (3, 8), (10, 11), (20, 50), (40, 80)])
    @pytest.mark.parametrize("seed", range(5))
    def test_wide_matrix_has_full_orthonormal_null_basis(self, n, p, seed):
        X = linalg.dense_matrix(np.random.default_rng(seed).standard_normal((n, p)))
        B = oracle.null_space_basis(X)
        assert B.shape == (p, p - n)
        assert np.max(np.abs(B.T @ B - np.eye(p - n))) <= 1e-10
        assert np.linalg.norm(X @ B) <= 1e-10

    def test_full_column_rank_has_empty_basis(self):
        X = linalg.dense_matrix(np.random.default_rng(9).standard_normal((12, 5)))
        assert oracle.null_space_basis(X).shape == (5, 0)


class TestOracleOncePerInstance:
    def test_compare_computes_each_methods_rate_once(self, tmp_path, monkeypatch):
        prob = str(tmp_path / "prob")
        assert cli.main(["generate", "consistent", "30", "10", "--seed", "1",
                         "--out", prob]) == 0
        calls = []
        rate = oracle.theoretical_rate

        def counting(*args, **kwargs):
            calls.append(args)
            return rate(*args, **kwargs)

        monkeypatch.setattr(oracle, "theoretical_rate", counting)
        assert cli.main(["compare", prob, "--method", "rk", "--method", "rcd",
                         "--method", "rk-ridge", "--lambda", "0.1", "--iters", "200",
                         "--trials", "3", "--out", str(tmp_path / "cmp.csv")]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("regime,n,p", [("underdetermined", "40", "80"),
                                            ("consistent", "50", "20")])
    @pytest.mark.parametrize("method", ["rk-ridge", "rcd-ridge"])
    def test_ridge_methods_make_one_solve_of_the_smaller_size(self, tmp_path, monkeypatch,
                                                              regime, n, p, method):
        prob = str(tmp_path / "prob")
        assert cli.main(["generate", regime, n, p, "--seed", "1", "--out", prob]) == 0
        shapes = []
        solve = linalg.solve_spd

        def counting(A, b):
            shapes.append(A.shape)
            return solve(A, b)

        monkeypatch.setattr(linalg, "solve_spd", counting)
        assert cli.main(["solve", prob, "--method", method, "--lambda", "0.1", "--iters", "200",
                         "--out", str(tmp_path / "t.csv")]) in (0, 3)
        size = min(int(n), int(p))
        assert shapes == [(size, size)]

    def test_solver_modules_never_call_the_oracles_factorizations(self):
        # The oracle checks the solvers, so they must share no eigen-solve,
        # SVD or Cholesky code path with it.
        oracle_only = {"eigh", "eigvalsh", "sym_eigh", "sym_eigs", "svd", "cholesky",
                       "solve_spd"}
        package = Path(randiter.__file__).parent
        for name in ("solvers.py", "ridge.py", "kernel.py", "sampling.py"):
            words = set(re.findall(r"[A-Za-z_]\w*", (package / name).read_text()))
            assert not words & oracle_only, name


class TestGenerators:
    def test_consistent_construction_identity(self):
        inst = oracle.gen_consistent(2, 1, seed=0)
        assert np.max(np.abs(inst.X @ inst.reference - inst.y)) <= 1e-10
        assert inst.regime == Regime.CONSISTENT_UNIQUE

    def test_inconsistent_projection(self):
        inst = oracle.gen_inconsistent(12, 5, 0.5, seed=1)
        X = inst.X
        assert np.max(np.abs(X.T @ inst.z)) <= 1e-9
        assert np.linalg.norm(inst.z) == pytest.approx(0.5, abs=1e-10)
        resid = inst.y - X @ inst.reference
        assert np.max(np.abs(X.T @ resid)) <= 1e-9

    def test_underdetermined_reference(self):
        inst = oracle.gen_underdetermined(3, 8, seed=2)
        X, y, ref = inst.X, inst.y, inst.reference
        assert np.max(np.abs(X @ ref - y)) <= 1e-10
        assert null_space_leakage(X, ref, oracle.null_space_basis(X)) <= 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            oracle.gen_consistent(3, 5, seed=0)
        with pytest.raises(ValueError):
            oracle.gen_underdetermined(5, 3, seed=0)


class TestSpectralIdentities:
    def test_gram_eigenvalues_match_outer_gram(self):
        # nonzero spectrum of X^T X equals that of X X^T
        rng = np.random.default_rng(7)
        X = linalg.dense_matrix(rng.standard_normal((9, 4)))
        inner = linalg.sym_eigs(oracle.gram(X))
        outer = linalg.sym_eigs(oracle.outer_gram(X))
        nonzero_outer = outer[outer > 1e-8 * outer[-1]]
        assert np.max(np.abs(np.sort(inner) - np.sort(nonzero_outer))) <= 1e-8

    @pytest.mark.parametrize("n,p", [(30, 8), (12, 12), (8, 30)])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("full", ["gram", "outer_gram"])
    def test_rate_from_small_gram_is_rate_of_either_gram(self, n, p, lam, full):
        # The full Gram + lambda I has small_gram's eigenvalues + lambda, and
        # lambda size - min(n, p) more times; at lambda 0 those are zeros,
        # which the positive-part rate leaves out.
        X = linalg.dense_matrix(np.random.default_rng(n + 2 * p).standard_normal((n, p)))
        M = getattr(oracle, full)(X)
        size = len(M)
        positive_only = lam == 0.0
        expected = oracle.theoretical_rate(M + lam * np.eye(size), positive_only)
        small = oracle.small_gram(X) + lam * np.eye(min(n, p))
        got = oracle.theoretical_rate(small, positive_only, size, lam)
        assert 1.0 - got == pytest.approx(1.0 - expected, rel=1e-12)
