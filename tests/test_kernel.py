import math
import tracemalloc

import numpy as np
import pytest

from randiter import linalg, oracle
from randiter.errors import DimensionError
from randiter.kernel import (
    GRAM_TILE_ELEMS,
    KernelSpec,
    KrrState,
    _Gram,
    apply_gram,
    kernel_column,
    krr_predict,
    krr_run,
    krr_step,
    krr_weights,
)
from randiter.sampling import RngState, build_sampler
from randiter.solvers import RunConfig


def gaussian_points(n, d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return linalg.dense_matrix(rng.standard_normal((n, d)))


def pair_value(spec, x, x2):
    """k(x, x2) written out for one pair of points."""
    if spec.family == "linear":
        return float(x @ x2)
    if spec.family == "gaussian":
        return math.exp(-spec.gamma * sum((a - b) ** 2 for a, b in zip(x, x2)))
    return (float(x @ x2) + spec.offset) ** spec.degree


class TestKernelEval:
    def test_gaussian_zero_distance(self):
        spec = KernelSpec("gaussian", gamma=2.0)
        data = linalg.dense_matrix([[0.5, 3.0], [1.0, -2.0]])
        assert kernel_column(spec, data, data[1])[1] == 1.0

    def test_gaussian_half(self):
        spec = KernelSpec("gaussian", gamma=1.0)
        data = linalg.dense_matrix([[0.0]])
        x2 = np.array([math.sqrt(math.log(2.0))])
        assert kernel_column(spec, data, x2)[0] == pytest.approx(0.5)

    def test_linear_matches_outer_product(self):
        data = gaussian_points(8, 3, seed=1)
        spec = KernelSpec("linear")
        K = oracle.gram_matrix(spec, data)
        expected = data @ data.T  # explicit product, desk scale
        assert np.max(np.abs(K - expected)) < 1e-12

    def test_polynomial_and_symmetry(self):
        spec = KernelSpec("polynomial", degree=3, offset=1.0)
        x = np.array([1.0, 2.0])
        x2 = np.array([0.5, -1.0])
        value = kernel_column(spec, linalg.dense_matrix([x]), x2)[0]
        assert value == pytest.approx((x @ x2 + 1.0) ** 3)
        assert value == kernel_column(spec, linalg.dense_matrix([x2]), x)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_column(KernelSpec("linear"), np.zeros((4, 2)), np.zeros(3))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("unknown")
        with pytest.raises(ValueError):
            KernelSpec("gaussian", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)

    def test_column_and_diag_consistent_with_eval(self):
        # kernel_column (the oracle's form) and the solvers' column, the
        # one krr_step uses, against the pairwise values
        data = gaussian_points(6, 2, seed=2)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", gamma=0.7),
                     KernelSpec("polynomial", degree=2, offset=0.5)):
            expected = [pair_value(spec, data[j], data[3]) for j in range(6)]
            col = kernel_column(spec, data, data[3])
            assert np.max(np.abs(col - expected)) < 1e-12
            col = _Gram(spec, data).column(3, np.empty(6))
            assert np.max(np.abs(col - expected)) < 1e-12
            diag = krr_weights(spec, data, 0.0)
            expected_d = [pair_value(spec, data[j], data[j]) for j in range(6)]
            assert np.max(np.abs(diag - expected_d)) < 1e-12


class TestKrrStep:
    def test_single_point_fixed_point(self):
        data = linalg.dense_matrix([[1.0]])
        spec = KernelSpec("linear")
        y = np.array([1.0])
        st = KrrState(np.zeros(1), np.zeros(1), 0, RngState(0), lam=1.0)
        krr_step(st, data, y, spec, 0)
        assert st.alpha[0] == pytest.approx(0.5)
        krr_step(st, data, y, spec, 0)
        assert st.alpha[0] == pytest.approx(0.5)

    def test_linear_kernel_matches_generic_psd_step(self):
        data = gaussian_points(7, 3, seed=3)
        spec = KernelSpec("linear")
        lam = 0.4
        y = np.random.default_rng(4).standard_normal(7)
        A = data @ data.T + lam * np.eye(7)
        alpha = np.random.default_rng(5).standard_normal(7)
        for i in range(7):
            st = KrrState(alpha.copy(), (data @ data.T) @ alpha, 0, RngState(0), lam)
            krr_step(st, data, y, spec, i)
            expected = alpha.copy()
            expected[i] += (y[i] - float(A[i] @ alpha)) / A[i, i]
            assert np.max(np.abs(st.alpha - expected)) <= 1e-12

    def test_converges_to_oracle_alpha(self):
        data = gaussian_points(40, 3, seed=6)
        spec = KernelSpec("gaussian", gamma=0.5)
        lam = 0.1
        y = np.random.default_rng(7).standard_normal(40)
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        st = KrrState(np.zeros(40), np.zeros(40), 0, RngState(5), lam)
        sampler = build_sampler(krr_weights(spec, data, lam))
        for _ in range(100000):
            krr_step(st, data, y, spec, sampler.draw(st.rng))
        assert np.linalg.norm(st.alpha - alpha_star) <= 1e-6

    def test_gaussian_diagonal_is_exactly_one(self):
        # in 50 dimensions 2 gamma ||z||^2 is about 50, and the exponent
        # the product gives at zero distance is off by its rounding
        data = gaussian_points(20, 50, seed=25)
        spec = KernelSpec("gaussian", gamma=0.5)
        gram = _Gram(spec, data)
        for i in range(20):
            assert gram.column(i, np.empty(20))[i] == 1.0
            assert apply_gram(spec, data, np.eye(20)[i])[i] == 1.0

    def test_s_consistency(self):
        data = gaussian_points(15, 2, seed=8)
        spec = KernelSpec("gaussian", gamma=0.3)
        y = np.random.default_rng(9).standard_normal(15)
        st = KrrState(np.zeros(15), np.zeros(15), 0, RngState(6), lam=0.2)
        sampler = build_sampler(krr_weights(spec, data, 0.2))
        for _ in range(500):
            krr_step(st, data, y, spec, sampler.draw(st.rng))
        rebuilt = apply_gram(spec, data, st.alpha)
        assert np.max(np.abs(rebuilt - st.s)) <= 1e-9 * (1.0 + np.max(np.abs(y)))


class TestKrrPredict:
    def test_basis_alpha(self):
        data = gaussian_points(5, 2, seed=10)
        spec = KernelSpec("gaussian", gamma=1.0)
        alpha = np.zeros(5)
        alpha[0] = 1.0
        assert krr_predict(alpha, data, spec, data[0]) == pytest.approx(1.0)

    def test_zero_alpha(self):
        data = gaussian_points(5, 2, seed=11)
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        assert krr_predict(np.zeros(5), data, spec, np.ones(2)) == 0.0

    def test_linear_kernel_duality(self):
        data = gaussian_points(6, 3, seed=12)
        spec = KernelSpec("linear")
        rng = np.random.default_rng(13)
        alpha = rng.standard_normal(6)
        x = rng.standard_normal(3)
        expected = float((data.T @ alpha) @ x)
        assert krr_predict(alpha, data, spec, x) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        data = gaussian_points(5, 2, seed=14)
        with pytest.raises(DimensionError):
            krr_predict(np.zeros(4), data, KernelSpec("linear"), np.ones(2))


class TestKrrRun:
    def test_two_point_trace_decreases_to_zero(self):
        data = linalg.dense_matrix([[2.0, 0.0], [0.0, 2.0]])
        spec = KernelSpec("linear")
        y = np.array([1.0, -1.0])
        lam = 1.0
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        M = oracle.gram_matrix(spec, data) + lam * np.eye(2)
        trace = krr_run(data, y, spec, lam,
                        RunConfig(max_iters=400, seed=1, checkpoint_every=10),
                        alpha_star, oracle.theoretical_rate(M), energy_matrix=M)
        errs = trace.column("err_sq")
        assert errs[-1] < 1e-20
        assert np.all(np.diff(errs[:10]) <= 0.0)

    def test_rejects_beta0(self):
        # krr_run iterates on alpha from 0; a primal start has no meaning
        data = gaussian_points(4, 2, seed=15)
        config = RunConfig(max_iters=10, beta0=np.ones(2))
        with pytest.raises(ValueError, match="beta0"):
            krr_run(data, np.ones(4), KernelSpec("linear"), 0.1, config, np.zeros(4), 0.9)

    def test_energy_matrix_free_checkpoints_match_oracle(self):
        data = gaussian_points(12, 2, seed=15)
        spec = KernelSpec("gaussian", gamma=0.4)
        y = np.random.default_rng(16).standard_normal(12)
        lam = 0.3
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        M = oracle.gram_matrix(spec, data) + lam * np.eye(12)
        rate = oracle.theoretical_rate(M)
        cfg = RunConfig(max_iters=300, seed=2, checkpoint_every=25)
        with_matrix = krr_run(data, y, spec, lam, cfg, alpha_star, rate, energy_matrix=M)
        matrix_free = krr_run(data, y, spec, lam, cfg, alpha_star, rate)
        a = with_matrix.column("energy_err_sq")
        b = matrix_free.column("energy_err_sq")
        assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(a))

    def test_gaussian_sampling_is_uniform(self):
        data = gaussian_points(9, 2, seed=17)
        w = krr_weights(KernelSpec("gaussian", gamma=0.8), data, 0.5)
        assert np.allclose(w, w[0])


SPECS = (KernelSpec("linear"), KernelSpec("gaussian", gamma=0.5),
         KernelSpec("polynomial", degree=3, offset=1.0))


# name: (n, nonzero count of v or None for about 70%, data offset). At
# n = 2049 the tiles grow from 15 rows to a last one of 26 rows where
# 1260 would fit; a v with one or 100 nonzeros still runs every tile.
# The far offset is where K's entries built from uncentered inner
# products lose digits.
GRAM_CASES = {
    "1": (1, None, 0.0),
    "40": (40, None, 0.0),
    "2049": (2049, None, 0.0),
    "2049-dense": (2049, 2049, 0.0),
    "2049-single": (2049, 1, 0.0),
    "2049-short": (2049, 100, 0.0),
    "40-offset1e4": (40, None, 1e4),
}


class TestApplyGram:
    @pytest.mark.parametrize("case", list(GRAM_CASES))
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
    def test_matches_explicit_gram(self, spec, case):
        n, nonzeros, offset = GRAM_CASES[case]
        data = gaussian_points(n, 3, seed=n) + offset
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        if nonzeros is None:
            v[rng.random(n) < 0.3] = 0.0
        else:
            v[rng.permutation(n)[nonzeros:]] = 0.0
        expected = oracle.gram_matrix(spec, data) @ v
        got = apply_gram(spec, data, v)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_vector_gives_exact_zeros(self):
        # at degree 200 and offset 1000 every entry of K overflows, and
        # K 0 is still exact zeros
        for spec in (*SPECS, KernelSpec("polynomial", degree=200, offset=1000.0)):
            out = apply_gram(spec, gaussian_points(50, 3, seed=18), np.zeros(50))
            assert out.shape == (50,) and np.all(out == 0.0)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
    def test_allocation_audit(self, spec):
        # an n x n float64 K at n = 2000 is 32 MB; the lower bound, one
        # full tile, shows that tracemalloc sees numpy's buffers
        tile_bytes = 8 * (GRAM_TILE_ELEMS // 2000) * 2000
        data = gaussian_points(2000, 3, seed=19)
        v = np.random.default_rng(20).standard_normal(2000)
        tracemalloc.start()
        tracemalloc.reset_peak()
        apply_gram(spec, data, v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert tile_bytes <= peak < 1 << 20


class TestKrrStopsAtTol:
    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_stops_at_first_checkpoint_at_tol(self, assert_stops_at_tol, matrix_free):
        data = gaussian_points(12, 2, seed=21)
        spec = KernelSpec("gaussian", gamma=0.4)
        y = np.random.default_rng(22).standard_normal(12)
        lam = 0.3
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        M = oracle.gram_matrix(spec, data) + lam * np.eye(12)
        rate = oracle.theoretical_rate(M)
        assert_stops_at_tol(lambda tol: krr_run(
            data, y, spec, lam, RunConfig(max_iters=3000, tol=tol, seed=3, checkpoint_every=10),
            alpha_star, rate, energy_matrix=None if matrix_free else M))

    def test_stops_at_tol_far_from_origin(self, assert_stops_at_tol):
        # a gaussian kernel sees only x - x'; offset by 1e4, K v and the
        # steps keep the digits that reaching tol needs
        data = gaussian_points(40, 3, seed=23) + 1e4
        spec = KernelSpec("gaussian", gamma=0.5)
        y = np.random.default_rng(24).standard_normal(40)
        lam = 0.1
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        rate = oracle.theoretical_rate(oracle.gram_matrix(spec, data) + lam * np.eye(40))
        assert_stops_at_tol(lambda tol: krr_run(
            data, y, spec, lam, RunConfig(max_iters=20000, tol=tol, seed=4, checkpoint_every=40),
            alpha_star, rate))
