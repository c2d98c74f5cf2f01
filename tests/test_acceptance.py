"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS (elapsed)` line; run with
`pytest tests/test_acceptance.py -v -s` to see them. Tolerances and
runtime budgets are pinned here, not configurable.
"""

import time
import tracemalloc

import numpy as np

from randiter import cli, io, linalg, oracle
from randiter.kernel import KernelSpec, krr_run, krr_step, krr_weights
from randiter.ridge import rcd_ridge_step, rk_ridge_step
from randiter.sampling import build_sampler
from randiter.solvers import RunConfig, rcd_step, rk_step, run

from conftest import null_space_leakage, pcg


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        print(f"{label}: PASS ({elapsed:.1f}s, budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"{label} exceeded runtime budget"


def scaled_instance(n, p, seed):
    """Gaussian X with rows scaled to unit expected norm; used where an
    acceptance criterion pins only the shape."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = linalg.dense_matrix(rng.standard_normal((n, p)) / np.sqrt(n))
    y = linalg.dense_vector(rng.standard_normal(n))
    return X, y


def test_criterion_1_per_step_identities():
    """RK projection, RCD coordinate optimality, ridge-RCD optimality;
    every step for 1e4 steps on 5 seeded instances each."""
    watch = Stopwatch(5.0)
    steps = 10_000
    for seed in range(5):
        inst = oracle.gen_consistent(30, 10, seed=100 + seed)
        X, y = inst.X, inst.y
        tol_y = 1e-10

        beta, rng = np.zeros(10), pcg(seed)
        sampler = build_sampler(linalg.row_norms_sq(X))
        worst = 0.0
        for _ in range(steps):
            r = sampler.draw(rng)
            rk_step(beta, X, y, r)
            worst = max(worst, abs(float(X[r] @ beta) - y[r]) / (1.0 + abs(y[r])))
        assert worst <= tol_y

        beta, residual, rng = np.zeros(10), y.copy(), pcg(seed)
        sampler = build_sampler(linalg.col_norms_sq(X))
        scale = 1.0 + float(np.max(np.abs(y)))
        worst = 0.0
        for k in range(steps):
            c = sampler.draw(rng)
            rcd_step(beta, residual, X, c)
            if (k + 1) % 1000 == 0:
                residual[:] = y - X @ beta
            worst = max(worst, abs(float(X[:, c] @ (y - X @ beta))) / scale)
        assert worst <= tol_y

        lam = 0.1
        beta, residual, rng = np.zeros(10), y.copy(), pcg(seed)
        sampler = build_sampler(linalg.col_norms_sq(X) + lam)
        worst = 0.0
        for k in range(steps):
            c = sampler.draw(rng)
            rcd_ridge_step(beta, residual, X, lam, c)
            if (k + 1) % 1000 == 0:
                residual[:] = y - X @ beta
            grad = float(X[:, c] @ (y - X @ beta)) - lam * beta[c]
            worst = max(worst, abs(grad) / scale)
        assert worst <= tol_y
    watch.done("criterion 1 (per-step identities)")


def test_criterion_2_pythagoras_identities():
    """Exact-arithmetic recursions hold per step to 1e-9 relative: RK in
    iterate space on consistent systems, RCD in fitted-value space on
    consistent and inconsistent systems."""
    watch = Stopwatch(5.0)
    steps = 10_000

    # RK, consistent (shape chosen so 1e4 steps stay above the fp floor)
    inst = oracle.gen_consistent(100, 80, seed=200)
    X, y, ref = inst.X, inst.y, inst.reference
    beta, rng = np.zeros(80), pcg(1)
    sampler = build_sampler(linalg.row_norms_sq(X))
    e_prev = float((beta - ref) @ (beta - ref))
    for _ in range(steps):
        prev = beta.copy()
        rk_step(beta, X, y, sampler.draw(rng))
        e_new = float((beta - ref) @ (beta - ref))
        move = float((beta - prev) @ (beta - prev))
        assert abs(e_prev - e_new - move) <= 1e-9 * max(e_prev, 1e-300)
        e_prev = e_new

    # RCD, consistent and inconsistent
    for inst in (oracle.gen_consistent(100, 80, seed=201),
                 oracle.gen_inconsistent(100, 80, 0.5, seed=202)):
        X, y, ref = inst.X, inst.y, inst.reference
        beta, residual, rng = np.zeros(80), y.copy(), pcg(2)
        sampler = build_sampler(linalg.col_norms_sq(X))
        fit_ref = X @ ref
        fit_prev = X @ beta
        e_prev = float((fit_prev - fit_ref) @ (fit_prev - fit_ref))
        for k in range(steps):
            rcd_step(beta, residual, X, sampler.draw(rng))
            if (k + 1) % 1000 == 0:
                residual[:] = y - X @ beta
            fit = X @ beta
            e_new = float((fit - fit_ref) @ (fit - fit_ref))
            move = float((fit - fit_prev) @ (fit - fit_prev))
            assert abs(e_prev - e_new - move) <= 1e-9 * max(e_prev, 1e-300)
            fit_prev, e_prev = fit, e_new
    watch.done("criterion 2 (Pythagoras identities)")


def test_criterion_3_expectation_rate_bound():
    """Trial-mean errors on a fixed 50x20 consistent instance lie below
    1.5 x (1 - sigma_min/Tr)^t x initial, 200 seeds, 30 epochs."""
    watch = Stopwatch(60.0)
    inst = oracle.gen_consistent(50, 20, seed=300)
    rate = oracle.theoretical_rate(oracle.gram(inst.X))
    n_seeds = 200
    epochs = 30

    for method, natural, every in (("rk", "err_sq", 50), ("rcd", "energy_err_sq", 20)):
        sums = None
        for seed in range(n_seeds):
            cfg = RunConfig(max_iters=epochs * every, tol=0.0, seed=seed,
                            checkpoint_every=every)
            trace = run(method, inst.X, inst.y, inst.regime, cfg, inst.reference, rate)
            col = trace.column(natural)
            sums = col if sums is None else sums + col
        mean = sums / n_seeds
        iters = np.arange(epochs + 1) * every
        bound = 1.5 * (rate ** iters) * mean[0]
        assert np.all(mean <= bound), f"{method} mean exceeded 1.5x bound"
    watch.done("criterion 3 (expectation-level rate bound)")


def test_criterion_4_regime_trichotomy():
    """(a) inconsistent: RCD hits beta_LS, RK has a persistent floor;
    (b) underdetermined: RK hits beta_MN in the row space, RCD leaves a
    gap despite a zero residual."""
    watch = Stopwatch(60.0)

    # (a) inconsistent 50x20, noise 0.5
    inst = oracle.gen_inconsistent(50, 20, 0.5, seed=400)
    rate = oracle.theoretical_rate(oracle.gram(inst.X))
    rcd_trace = run("rcd", inst.X, inst.y, inst.regime,
                    RunConfig(max_iters=100_000, seed=1), inst.reference, rate)
    assert rcd_trace.final().err_sq <= 1e-12  # ||beta - beta_LS|| <= 1e-6

    ref_trace = run("rk", inst.X, inst.y, inst.regime,
                    RunConfig(max_iters=1_000_000, seed=2), inst.reference, rate)
    ref_errs = ref_trace.column("err_sq")
    floor = float(np.min(ref_errs))
    assert floor > 1e-12  # RK never reaches ||beta - beta_LS|| <= 1e-6

    check_trace = run("rk", inst.X, inst.y, inst.regime,
                      RunConfig(max_iters=200_000, seed=3), inst.reference, rate)
    errs = check_trace.column("err_sq")
    plateau_start = len(errs) // 5  # past the initial descent
    assert np.all(errs[plateau_start:] >= 0.5 * floor)

    # (b) underdetermined 20x50
    inst = oracle.gen_underdetermined(20, 50, seed=401)
    X, y, ref = inst.X, inst.y, inst.reference
    beta, rng = np.zeros(50), pcg(4)
    sampler = build_sampler(linalg.row_norms_sq(X))
    basis = oracle.null_space_basis(X)
    for k in range(100_000):
        rk_step(beta, X, y, sampler.draw(rng))
        if (k + 1) % 1000 == 0:
            assert null_space_leakage(X, beta, basis) <= 1e-10
            if np.linalg.norm(beta - ref) <= 1e-6:
                break
    assert np.linalg.norm(beta - ref) <= 1e-6
    assert null_space_leakage(X, beta, basis) <= 1e-10

    rate_plus = oracle.theoretical_rate(oracle.gram(X), positive_only=True)
    rcd_trace = run("rcd", inst.X, inst.y, inst.regime,
                    RunConfig(max_iters=100_000, seed=5, tol=1e-13), ref, rate_plus)
    final = rcd_trace.final()
    assert final.residual_sq <= 1e-12
    assert final.err_sq > 1e-2 ** 2
    watch.done("criterion 4 (regime trichotomy)")


def test_criterion_5_ridge_fixed_point_and_convergence():
    """rk_ridge on 30x10, lambda 0.1: converges to beta_RR, keeps the
    duality link, and the oracle's two closed forms agree."""
    watch = Stopwatch(10.0)
    X, y = scaled_instance(30, 10, seed=500)
    lam = 0.1
    n, p = X.shape

    primal = linalg.solve_spd(oracle.gram(X) + lam * np.eye(p), X.T @ y)
    dual = X.T @ linalg.solve_spd(oracle.outer_gram(X) + lam * np.eye(n), y)
    assert np.max(np.abs(primal - dual)) <= 1e-10
    beta_rr = oracle.ridge_solution(X, y, lam)[0]
    alpha_star = oracle.ridge_alpha_star(X, y, lam)

    alpha, beta, rng = np.zeros(n), np.zeros(p), pcg(6)
    sampler = build_sampler(linalg.row_norms_sq(X) + lam)
    for k in range(100_000):
        rk_ridge_step(alpha, beta, X, y, lam, sampler.draw(rng))
        if (k + 1) % 1000 == 0:
            link = np.max(np.abs(beta - X.T @ alpha))
            assert link <= 1e-10 * (1.0 + np.max(np.abs(beta)))
    assert np.linalg.norm(beta - beta_rr) <= 1e-8
    assert np.linalg.norm(alpha - alpha_star) <= 1e-7
    watch.done("criterion 5 (ridge fixed point and convergence)")


def test_criterion_6_krr_matrix_free():
    """40-point gaussian-kernel instance converges to alpha*; a 2000-point
    smoke run allocates no n x n structure; energy rate bound over 200
    seeds."""
    watch = Stopwatch(120.0)
    rng = np.random.Generator(np.random.PCG64(600))
    data = linalg.dense_matrix(rng.standard_normal((40, 3)))
    y = linalg.dense_vector(rng.standard_normal(40))
    spec = KernelSpec("gaussian", gamma=0.5)
    lam = 0.1
    alpha_star = oracle.krr_alpha_star(data, y, spec, lam)
    M = oracle.gram_matrix(spec, data) + lam * np.eye(40)
    rate = oracle.theoretical_rate(M)

    trace = krr_run(data, y, spec, lam, RunConfig(max_iters=100_000, seed=7, tol=0.0),
                    alpha_star, rate)
    assert trace.final().err_sq <= 1e-12  # ||alpha - alpha*|| <= 1e-6

    # allocation audit: n = 2000 smoke run, peak auxiliary memory must
    # stay far below an n x n float64 block (32 MB)
    big = linalg.dense_matrix(rng.standard_normal((2000, 3)))
    y_big = linalg.dense_vector(rng.standard_normal(2000))
    sampler = build_sampler(krr_weights(spec, big, lam))
    alpha, s, rng = np.zeros(2000), np.zeros(2000), pcg(8)
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(200):
        krr_step(alpha, s, big, y_big, spec, lam, sampler.draw(rng))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 4 * 2000 * 8 * 10  # ~0.6 MB: a handful of length-n vectors

    # expectation-level energy rate bound, 200 seeds, 30 epochs
    epochs, every = 30, 40
    sums = None
    for seed in range(200):
        cfg = RunConfig(max_iters=epochs * every, tol=0.0, seed=seed,
                        checkpoint_every=every)
        tr = krr_run(data, y, spec, lam, cfg, alpha_star, rate)
        col = tr.column("energy_err_sq")
        sums = col if sums is None else sums + col
    mean = sums / 200
    iters = np.arange(epochs + 1) * every
    bound = 1.5 * (rate ** iters) * mean[0]
    assert np.all(mean <= bound)
    watch.done("criterion 6 (matrix-free KRR)")


def test_criterion_7_linear_kernel_equivalence():
    """With identical seeds and sampling weights, rk-krr (linear kernel)
    and rk_ridge produce the same alpha sequence to 1e-12."""
    watch = Stopwatch(5.0)
    X, y = scaled_instance(25, 8, seed=700)
    lam = 0.3
    spec = KernelSpec("linear")

    w_ridge = linalg.row_norms_sq(X) + lam
    w_krr = krr_weights(spec, X, lam)
    assert np.all(w_ridge == w_krr)

    ridge_alpha, ridge_beta, ridge_rng = np.zeros(25), np.zeros(8), pcg(9)
    krr_alpha, krr_s, krr_rng = np.zeros(25), np.zeros(25), pcg(9)
    s_ridge = build_sampler(w_ridge)
    s_krr = build_sampler(w_krr)
    for _ in range(1000):
        i = s_ridge.draw(ridge_rng)
        j = s_krr.draw(krr_rng)
        assert i == j
        rk_ridge_step(ridge_alpha, ridge_beta, X, y, lam, i)
        krr_step(krr_alpha, krr_s, X, y, spec, lam, j)
        assert np.max(np.abs(ridge_alpha - krr_alpha)) <= 1e-12
    watch.done("criterion 7 (linear-kernel equivalence)")


def test_criterion_8_trace_identities():
    """Tr(K + lambda I_n) = sum sigma_i^2 + n lambda and
    Tr(Sigma + lambda I_p) = sum sigma_i^2 + p lambda, 10 random shapes."""
    watch = Stopwatch(10.0)
    shapes = [(6, 3), (10, 4), (5, 9), (12, 2), (7, 7),
              (15, 5), (4, 11), (20, 3), (9, 6), (3, 14)]
    lam = 0.37
    for idx, (n, p) in enumerate(shapes):
        rng = np.random.Generator(np.random.PCG64(800 + idx))
        X = linalg.dense_matrix(rng.standard_normal((n, p)))
        sigma = oracle.gram(X)
        K = oracle.outer_gram(X)  # linear kernel gram
        eigs = linalg.sym_eigs(sigma if p <= n else K)
        sum_sq_singular = float(np.sum(eigs))
        tr_k = float(np.trace(K + lam * np.eye(n)))
        tr_sigma = float(np.trace(sigma + lam * np.eye(p)))
        assert abs(tr_k - (sum_sq_singular + n * lam)) <= 1e-8 * (1.0 + abs(tr_k))
        assert abs(tr_sigma - (sum_sq_singular + p * lam)) <= 1e-8 * (1.0 + abs(tr_sigma))
    watch.done("criterion 8 (trace identities)")


def test_criterion_9_determinism_and_io(tmp_path):
    """Byte-identical CSV across repeated seeded runs; file formats
    round-trip at full 64-bit precision."""
    watch = Stopwatch(30.0)
    prob = tmp_path / "prob"
    assert cli.main(["generate", "consistent", "40", "15", "--seed", "11",
                     "--out", str(prob)]) == 0

    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert cli.main(["solve", str(prob), "--method", "rk", "--iters", "20000",
                         "--seed", "12", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]

    X = io.read_matrix(str(prob / "X.mtx"))
    y = io.read_vector(str(prob / "y.vec"))
    io.write_matrix(str(tmp_path / "X2.mtx"), X)
    io.write_vector(str(tmp_path / "y2.vec"), y)
    assert np.all(io.read_matrix(str(tmp_path / "X2.mtx")) == X)
    assert np.all(io.read_vector(str(tmp_path / "y2.vec")) == y)
    assert open(str(prob / "X.mtx"), "rb").read() == open(str(tmp_path / "X2.mtx"), "rb").read()
    watch.done("criterion 9 (determinism and I/O)")
