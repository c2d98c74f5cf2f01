import math
import tracemalloc

import numpy as np
import pytest

from randiter import kernel, linalg, oracle
from randiter.errors import DimensionError
from randiter.kernel import (
    GRAM_TILE_ELEMS,
    KernelSpec,
    _Gram,
    apply_gram,
    kernel_column,
    krr_run,
    krr_step,
    krr_weights,
)
from randiter.sampling import build_sampler
from randiter.solvers import SWEEP_STEPS, RunConfig, dual_sweep

from conftest import pcg, spy_refreshes


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
        with pytest.raises(ValueError, match="finite gamma"):
            KernelSpec("gaussian", gamma=np.inf)
        for offset in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite offset"):
                KernelSpec("polynomial", offset=offset)

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
        alpha, s = np.zeros(1), np.zeros(1)
        assert krr_step(alpha, s, data, y, spec, 1.0, 0) is None
        assert alpha[0] == pytest.approx(0.5)
        assert s[0] == pytest.approx(0.5)
        krr_step(alpha, s, data, y, spec, 1.0, 0)
        assert alpha[0] == pytest.approx(0.5)

    def test_linear_kernel_matches_generic_psd_step(self):
        data = gaussian_points(7, 3, seed=3)
        spec = KernelSpec("linear")
        lam = 0.4
        y = np.random.default_rng(4).standard_normal(7)
        A = data @ data.T + lam * np.eye(7)
        alpha = np.random.default_rng(5).standard_normal(7)
        for i in range(7):
            got = alpha.copy()
            krr_step(got, (data @ data.T) @ alpha, data, y, spec, lam, i)
            expected = alpha.copy()
            expected[i] += (y[i] - float(A[i] @ alpha)) / A[i, i]
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_converges_to_oracle_alpha(self):
        data = gaussian_points(40, 3, seed=6)
        spec = KernelSpec("gaussian", gamma=0.5)
        lam = 0.1
        y = np.random.default_rng(7).standard_normal(40)
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        alpha, s, rng = np.zeros(40), np.zeros(40), pcg(5)
        sampler = build_sampler(krr_weights(spec, data, lam))
        for _ in range(100000):
            krr_step(alpha, s, data, y, spec, lam, sampler.draw(rng))
        assert np.linalg.norm(alpha - alpha_star) <= 1e-6

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
        alpha, s, rng = np.zeros(15), np.zeros(15), pcg(6)
        sampler = build_sampler(krr_weights(spec, data, 0.2))
        for _ in range(500):
            krr_step(alpha, s, data, y, spec, 0.2, sampler.draw(rng))
        rebuilt = apply_gram(spec, data, alpha)
        assert np.max(np.abs(rebuilt - s)) <= 1e-9 * (1.0 + np.max(np.abs(y)))


SPECS = (KernelSpec("linear"), KernelSpec("gaussian", gamma=0.5),
         KernelSpec("polynomial", degree=3, offset=1.0))


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
                        alpha_star, oracle.theoretical_rate(M))
        errs = trace.column("err_sq")
        assert errs[-1] < 1e-20
        assert np.all(np.diff(errs[:10]) <= 0.0)

    @pytest.mark.parametrize("lam", [0.0, -0.1, float("nan")])
    def test_lambda_not_positive_rejected(self, lam):
        data = gaussian_points(4, 2, seed=15)
        with pytest.raises(ValueError, match="kernel ridge requires lambda > 0"):
            krr_run(data, np.ones(4), KernelSpec("linear"), lam, RunConfig(max_iters=10),
                    np.zeros(4), 0.9)

    def test_matrix_free_run_allocation_audit(self):
        # krr_run itself at n = 2000, sweeps and checkpoints included,
        # far below the 32 MB of an n x n float64 K
        data = gaussian_points(2000, 3, seed=25)
        y = np.random.default_rng(26).standard_normal(2000)
        config = RunConfig(max_iters=4000, tol=0.0, seed=27)
        tracemalloc.start()
        tracemalloc.reset_peak()
        trace = krr_run(data, y, KernelSpec("gaussian", gamma=0.5), 0.1, config, np.zeros(2000),
                        0.99)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert trace.final().iter == 4000
        assert peak < 1 << 20

    def test_refresh_on_a_checkpoint_shares_its_pass(self, monkeypatch):
        # n = 100, checkpoints every 100 steps: each makes one pass, for
        # both alpha - alpha* and alpha, and the rebases at 1000 and 2000
        # take K alpha from it, so 2000 steps make 21 passes, not 23
        passes = []

        def counted(spec, data, v, gram=None):
            passes.append(v.shape)
            return apply_gram(spec, data, v, gram)

        monkeypatch.setattr(kernel, "apply_gram", counted)
        data = gaussian_points(100, 3, seed=28)
        y = np.random.default_rng(29).standard_normal(100)
        trace = krr_run(data, y, KernelSpec("gaussian", gamma=0.5), 0.1,
                        RunConfig(max_iters=2000, tol=0.0, seed=30), np.zeros(100), 0.99)
        assert trace.final().iter == 2000
        assert passes == [(2, 100)] * 21

    # n = 2000: the run rebases on K alpha every 2000 steps, once an
    # epoch, and each rebase falls on a checkpoint. n = 1500: due every
    # 2000 steps, the rebase waits for the first checkpoint at or after
    # that step (3000, 4500, 6000, 9000, ...). Either way each rebase
    # rides on a checkpoint's pass, so 10 epochs make 11 passes, one for
    # each checkpoint. At every sweep, the y - K alpha the sweep reads
    # on its rows (kept on the rows stepped since the last rebase) is
    # that of the iterate, up to rounding.
    @pytest.mark.parametrize("n,refreshed", [
        (1500, [3000, 4500, 6000, 9000, 10500, 12000, 15000]),
        (2000, list(range(2000, 20001, 2000))),
    ], ids=["1500", "2000"])
    def test_refresh_once_an_epoch_shares_every_checkpoints_pass(self, n, refreshed,
                                                                 monkeypatch):
        passes, drift = [], []
        data = gaussian_points(n, 3, seed=31)
        y = np.random.default_rng(32).standard_normal(n)
        gram = _Gram(KernelSpec("gaussian", gamma=0.5), data)

        def sweep(J, G, b, lam, alpha):
            want = gram.block(J, gram.rows, J) @ alpha  # K[J, :] alpha
            drift.append(np.linalg.norm(y[J] - b - want) / np.linalg.norm(want)
                         if want.any() else np.linalg.norm(y[J] - b))
            return dual_sweep(J, G, b, lam, alpha)

        def counted(spec, data, v, gram=None):
            passes.append(v.shape)
            return apply_gram(spec, data, v, gram)

        monkeypatch.setattr(kernel, "dual_sweep", sweep)
        monkeypatch.setattr(kernel, "apply_gram", counted)
        refreshes = spy_refreshes(monkeypatch, kernel)
        trace = krr_run(data, y, KernelSpec("gaussian", gamma=0.5), 0.1,
                        RunConfig(max_iters=10 * n, tol=0.0, seed=33), np.zeros(n), 0.99)
        assert trace.final().iter == 10 * n
        assert refreshes == refreshed
        assert passes == [(2, n)] * 11
        assert len(drift) > 10 * n / SWEEP_STEPS and max(drift) <= 1e-12

    def test_sweeps_form_under_half_the_rows_of_k(self, monkeypatch):
        # n = 2000, 10 epochs at the default cadence: a sweep on rows J
        # forms K[J, U] for the rows U stepped since the last rebase, in
        # all at most half the k n entries of K[J, :]
        formed, block = [], _Gram.block

        def counted(self, *args):
            out = block(self, *args)
            formed.append(out.size)
            return out

        monkeypatch.setattr(_Gram, "block", counted)
        data = gaussian_points(2000, 3, seed=34)
        y = np.random.default_rng(35).standard_normal(2000)
        trace = krr_run(data, y, KernelSpec("gaussian", gamma=0.5), 0.1,
                        RunConfig(max_iters=20000, tol=0.0, seed=36), np.zeros(2000), 0.99)
        assert trace.final().iter == 20000
        assert max(formed) <= GRAM_TILE_ELEMS
        assert 0 < sum(formed) <= 0.5 * 20000 * 2000

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family)
    def test_repeats_first_touched_inside_a_sweep(self, spec, monkeypatch):
        # scripted draws: the first sweep touches rows 3, 5, 7 and 1 for
        # the first time and repeats 3, 5 and 7; the second, after a
        # checkpoint that does not rebase, repeats rows from the first
        # and touches 9 and 2 inside it. The run's alpha at each
        # checkpoint is the step loop's up to rounding.
        rows = [3, 5, 3, 7, 5, 3, 1, 7, 5, 9, 9, 3, 2, 9]
        data = gaussian_points(12, 3, seed=37)
        y = np.random.default_rng(38).standard_normal(12)
        lam, blocks, iterates = 0.3, [], []

        class Scripted:
            def __len__(self):
                return 12

            def draw_block(self, rng, k):
                drawn = np.array(rows[sum(blocks):sum(blocks) + k])
                blocks.append(k)
                return drawn

        def counted(spec, data, v, gram=None):
            iterates.append(v[1].copy())
            return apply_gram(spec, data, v, gram)

        monkeypatch.setattr(kernel, "build_sampler", lambda weights: Scripted())
        monkeypatch.setattr(kernel, "apply_gram", counted)
        krr_run(data, y, spec, lam, RunConfig(max_iters=14, tol=0.0, checkpoint_every=8),
                np.zeros(12), 0.99)
        assert blocks == [8, 6]
        alpha, s = np.zeros(12), np.zeros(12)
        for t, row in enumerate(rows, 1):
            krr_step(alpha, s, data, y, spec, lam, row)
            if t in (8, 14):
                got = iterates[1 if t == 8 else 2]
                assert np.max(np.abs(got - alpha)) <= 1e-12 * np.max(np.abs(alpha))

    def test_gaussian_sampling_is_uniform(self):
        data = gaussian_points(9, 2, seed=17)
        w = krr_weights(KernelSpec("gaussian", gamma=0.8), data, 0.5)
        assert np.allclose(w, w[0])


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

    @pytest.mark.parametrize("spec", (*SPECS, KernelSpec("polynomial", degree=200, offset=1000.0)),
                             ids=["linear", "gaussian", "polynomial", "overflowing"])
    def test_stack_gives_each_vector_its_own_bytes(self, spec):
        # three vectors share the tiles of K at n = 2049; the zero one
        # gets exact zeros even where K's entries overflow
        data = gaussian_points(2049, 3, seed=21)
        vs = np.random.default_rng(22).standard_normal((3, 2049))
        vs[1] = 0.0
        gram = _Gram(spec, data)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = gram.apply(vs)
            for v, got in zip(vs, stacked):
                assert got.tobytes() == gram.apply(v).tobytes()
        assert np.all(stacked[1] == 0.0)

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

    def test_one_buffer_serves_every_pass_and_block(self):
        # the first pass allocates the buffer and the _Gram keeps it;
        # later passes, and blocks of more than SMALL_BLOCK entries,
        # write into it and allocate no other
        buffer_bytes = 8 * GRAM_TILE_ELEMS
        data = gaussian_points(2000, 3, seed=39)
        v = np.random.default_rng(40).standard_normal((2, 2000))
        J = np.arange(0, 2000, 200)
        assert kernel.SMALL_BLOCK < len(J) * 2000 <= GRAM_TILE_ELEMS
        gram = _Gram(KernelSpec("gaussian", gamma=0.5), data)
        tracemalloc.start()
        try:
            gram.apply(v)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(3):
                gram.apply(v)
                gram.block(J, gram.rows, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held >= buffer_bytes
        assert peak - held < buffer_bytes // 2

    def test_gaussian_coinciding_points_map_to_at_most_one(self):
        # offset by 1e4, point 7 repeats point 3 and point 12 lies within
        # an ulp of point 5; the exponent of such a pair can round above
        # 0, and the map clamps it, so no entry exceeds k(x, x) = 1. A
        # column is clamped outright, K's 100 x 100 block and the pass's
        # one tile only where their largest exponent is above 0.
        points = np.array(gaussian_points(100, 3, seed=45))
        points[7] = points[3]
        points[12] = points[5] + 1e-12
        data = linalg.dense_matrix(points + 1e4)
        assert np.any(data[12] != data[5])
        spec = KernelSpec("gaussian", gamma=0.5)
        gram = _Gram(spec, data)
        exponents = gram.rows @ gram.points.T
        np.fill_diagonal(exponents, 0.0)
        assert exponents.max() > 0.0 and 100 * 100 > kernel.SMALL_BLOCK
        every = np.arange(100)
        for K in (np.column_stack([gram.column(i, np.empty(100)) for i in every]),
                  gram.block(every, gram.rows, every)):
            assert K.max() == 1.0 and np.all(K.diagonal() == 1.0)
            for a, b in ((3, 7), (5, 12)):
                assert 1.0 - 1e-15 <= K[a, b] <= 1.0 and 1.0 - 1e-15 <= K[b, a] <= 1.0
        v = np.random.default_rng(46).standard_normal(100)
        expected = oracle.gram_matrix(spec, data) @ v
        assert np.linalg.norm(gram.apply(v) - expected) <= 1e-12 * np.linalg.norm(expected)


class TestKrrStopsAtTol:
    def test_stops_at_first_checkpoint_at_tol(self, assert_stops_at_tol):
        data = gaussian_points(12, 2, seed=21)
        spec = KernelSpec("gaussian", gamma=0.4)
        y = np.random.default_rng(22).standard_normal(12)
        lam = 0.3
        alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
        M = oracle.gram_matrix(spec, data) + lam * np.eye(12)
        rate = oracle.theoretical_rate(M)
        assert_stops_at_tol(lambda tol: krr_run(
            data, y, spec, lam, RunConfig(max_iters=3000, tol=tol, seed=3, checkpoint_every=10),
            alpha_star, rate))

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
