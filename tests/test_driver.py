"""The shared block driver against the per-step loop it replaced.

Each `*_run` must give exactly the trace of a reference loop that takes
one scalar `WeightedSampler.draw` and one `*_step` call per iteration,
refreshes every 1000 steps, and checks the stop rule at each checkpoint.
"""

import math

import numpy as np
import pytest

from randiter import linalg, oracle
from randiter.kernel import KernelSpec, apply_gram, krr_run, krr_step, krr_weights
from randiter.ridge import rcd_ridge_run, rcd_ridge_step, rk_ridge_run, rk_ridge_step
from randiter.sampling import build_sampler
from randiter.solvers import (
    PLATEAU_WINDOW,
    RESIDUAL_REFRESH_EVERY,
    ConvergenceTrace,
    Method,
    Problem,
    Regime,
    RunConfig,
    TraceRecord,
    _plateaued,
    rcd_step,
    rk_step,
    run,
)

from conftest import pcg

RATE = 0.97


def step_loop(weights, config, epoch, step, measures, natural, stop,
              refresh=None, refresh_every=None):
    """One scalar draw and one step per iteration; a checkpoint when t
    is a multiple of the cadence (config.checkpoint_every, else `epoch`)
    or t = max_iters; stop(rec, history, window) after each one, where
    a plateau window spans PLATEAU_WINDOW checkpoints and at least one
    epoch of steps."""
    every = config.checkpoint_every or epoch
    window = PLATEAU_WINDOW * math.ceil(epoch / every)
    sampler = build_sampler(weights)
    rng = pcg(config.seed)
    trace, history = ConvergenceTrace(), []

    def record(t):
        rec = TraceRecord(t, *measures(), 0.0)
        history.append(getattr(rec, natural))
        rec.bound = (RATE ** t) * history[0]
        trace.append(rec)
        return rec

    record(0)
    for t in range(1, config.max_iters + 1):
        step(sampler.draw(rng))
        if refresh is not None and t % refresh_every == 0:
            refresh()
        if t % every == 0 or t == config.max_iters:
            if stop(record(t), history, window):
                break
    return trace


def fits(X, y, beta, reference):
    diff = beta - reference
    fitted = X @ diff
    res = y - X @ beta
    return float(diff @ diff), float(fitted @ fitted), float(res @ res)


def energy_stop(tol):
    return lambda rec, history, window: (rec.energy_err_sq <= tol * tol
                                         or _plateaued(history, window))


def ls_reference(method, problem, config, reference):
    X, y = problem.X, problem.y
    n, p = X.shape
    beta, residual = np.zeros(p), y.copy()
    consistent = problem.regime in (Regime.CONSISTENT_UNIQUE, Regime.UNDERDETERMINED)

    def stop(rec, history, window):
        if consistent and rec.residual_sq <= config.tol ** 2:
            return True
        return problem.regime == Regime.INCONSISTENT and _plateaued(history, window)

    def measures():
        return fits(X, y, beta, reference)

    if method == Method.RK:
        return step_loop(linalg.row_norms_sq(X), config, n,
                         lambda i: rk_step(beta, X, y, i), measures, "err_sq", stop)

    def refresh():
        residual[:] = y - X @ beta

    return step_loop(linalg.col_norms_sq(X), config, p,
                     lambda j: rcd_step(beta, residual, X, j), measures, "energy_err_sq", stop,
                     refresh, RESIDUAL_REFRESH_EVERY)


def instance(regime, n, p, seed):
    if regime == Regime.INCONSISTENT:
        return oracle.gen_inconsistent(n, p, 0.1, seed)
    return oracle.gen_consistent(n, p, seed)


# (regime, n, p, instance seed, max_iters, checkpoint_every, tol, how it ends)
LS_CASES = {
    Method.RK: [
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 1000, 7, 0.0, "max_iters"),
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 20000, None, 1e-6, "tol"),
        (Regime.INCONSISTENT, 12, 1, 3, 3000, None, 1e-12, "plateau"),
    ],
    Method.RCD: [
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 1000, 7, 0.0, "max_iters"),
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 20000, None, 1e-6, "tol"),
        (Regime.INCONSISTENT, 30, 10, 5, 3000, None, 1e-12, "plateau"),
    ],
}


def check_end(trace, max_iters, every, ends):
    final = trace.final().iter
    if ends == "max_iters":
        assert final == max_iters and max_iters % every != 0
    else:
        assert final < max_iters


@pytest.mark.parametrize("method,case", [(m, c) for m, cs in LS_CASES.items() for c in cs],
                         ids=lambda v: getattr(v, "value", None) or v[-1])
def test_ls_run_matches_step_loop(method, case):
    regime, n, p, seed, max_iters, every, tol, ends = case
    inst = instance(regime, n, p, seed)
    problem = Problem(inst.problem.X, inst.problem.y, regime)
    config = RunConfig(max_iters=max_iters, tol=tol, seed=11, checkpoint_every=every)
    trace = run(method, problem, config, inst.reference, RATE)
    assert trace.records == ls_reference(method, problem, config, inst.reference).records
    check_end(trace, max_iters, every or 1, ends)
    if method == Method.RCD and ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


# (regime, n, p, instance seed, lambda, max_iters, checkpoint_every, tol, how it ends)
RIDGE_CASES = {
    "rk-ridge": [
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 0.5, 1000, 7, 0.0, "max_iters"),
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 0.5, 20000, None, 1e-6, "tol"),
        (Regime.INCONSISTENT, 20, 2, 1, 0.5, 10000, 1, 0.0, "plateau"),
    ],
    "rcd-ridge": [
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 0.5, 1000, 7, 0.0, "max_iters"),
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 0.5, 20000, None, 1e-6, "tol"),
        (Regime.INCONSISTENT, 30, 10, 5, 0.5, 3000, None, 0.0, "plateau"),
    ],
}


def ridge_pair(method, X, y, lam, config):
    """(run's trace, step loop's trace) for one ridge method."""
    n, p = X.shape
    beta_rr = oracle.ridge_solution(X, y, lam)[0]
    stop = energy_stop(config.tol)
    beta = np.zeros(p)
    if method == "rk-ridge":
        alpha_star = oracle.ridge_alpha_star(X, y, lam)
        alpha = np.zeros(n)

        def measures():
            v = alpha - alpha_star
            xtv = X.T @ v
            err_sq, _, res_sq = fits(X, y, beta, beta_rr)
            return err_sq, float(xtv @ xtv) + lam * float(v @ v), res_sq

        ref = step_loop(linalg.row_norms_sq(X) + lam, config, n,
                        lambda i: rk_ridge_step(alpha, beta, X, y, lam, i), measures,
                        "energy_err_sq", stop)
        return rk_ridge_run(X, y, lam, config, beta_rr, alpha_star, RATE), ref
    residual = y.copy()

    def measures():
        v = beta - beta_rr
        xv = X @ v
        err_sq, _, res_sq = fits(X, y, beta, beta_rr)
        return err_sq, float(xv @ xv) + lam * float(v @ v), res_sq

    def refresh():
        residual[:] = y - X @ beta

    ref = step_loop(linalg.col_norms_sq(X) + lam, config, p,
                    lambda j: rcd_ridge_step(beta, residual, X, lam, j), measures,
                    "energy_err_sq", stop, refresh, RESIDUAL_REFRESH_EVERY)
    return rcd_ridge_run(X, y, lam, config, beta_rr, RATE), ref


@pytest.mark.parametrize("method,case",
                         [(m, c) for m, cs in RIDGE_CASES.items() for c in cs],
                         ids=lambda v: v if isinstance(v, str) else v[-1])
def test_ridge_run_matches_step_loop(method, case):
    regime, n, p, seed, lam, max_iters, every, tol, ends = case
    inst = instance(regime, n, p, seed)
    config = RunConfig(max_iters=max_iters, tol=tol, seed=12, checkpoint_every=every)
    trace, ref = ridge_pair(method, inst.problem.X, inst.problem.y, lam, config)
    assert trace.records == ref.records
    check_end(trace, max_iters, every or 1, ends)
    if method == "rcd-ridge" and ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


# (max_iters, checkpoint_every, tol, how it ends)
KRR_CASES = [
    (1000, 7, 0.0, "max_iters"),
    (20000, None, 1e-6, "tol"),
    (3000, None, 0.0, "plateau"),
]


@pytest.mark.parametrize("matrix_free", [False, True], ids=["energy-matrix", "matrix-free"])
@pytest.mark.parametrize("case", KRR_CASES, ids=lambda c: c[-1])
def test_krr_run_matches_step_loop(case, matrix_free):
    max_iters, every, tol, ends = case
    inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
    data, y = inst.problem.X, inst.problem.y
    spec, lam, n = KernelSpec("gaussian", gamma=0.5), 0.5, 30
    M = oracle.gram_matrix(spec, data) + lam * np.eye(n)
    alpha_star = np.linalg.solve(M, y)
    energy_matrix = None if matrix_free else M
    config = RunConfig(max_iters=max_iters, tol=tol, seed=13, checkpoint_every=every)
    alpha, s = np.zeros(n), np.zeros(n)

    def measures():
        v = alpha - alpha_star
        if matrix_free:
            energy = float(v @ apply_gram(spec, data, v)) + lam * float(v @ v)
        else:
            energy = max(float(v @ (M @ v)), 0.0)
        dual_res = y - s - lam * alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    def refresh():
        s[:] = apply_gram(spec, data, alpha)

    ref = step_loop(krr_weights(spec, data, lam), config, n,
                    lambda i: krr_step(alpha, s, data, y, spec, lam, i), measures,
                    "energy_err_sq", energy_stop(tol), refresh, RESIDUAL_REFRESH_EVERY)
    trace = krr_run(data, y, spec, lam, config, alpha_star, RATE, energy_matrix=energy_matrix)
    assert trace.records == ref.records
    check_end(trace, max_iters, every or 1, ends)
    if ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


class TestZeroColumn:
    """A zero column has sampling weight 0 in rcd (never drawn) and
    weight lambda in rcd-ridge (drawn, and its coordinate stays 0);
    neither run may reject it up front."""

    def setup_method(self):
        inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
        self.X = inst.problem.X.copy()
        self.X[:, 3] = 0.0
        self.y = inst.problem.y

    def test_rcd(self):
        X, y = self.X, self.y
        problem = Problem(X, y, Regime.INCONSISTENT)
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        config = RunConfig(max_iters=1500, seed=14, checkpoint_every=13)
        trace = run(Method.RCD, problem, config, reference, RATE)
        assert trace.records == ls_reference(Method.RCD, problem, config, reference).records
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq

    def test_rcd_ridge(self):
        config = RunConfig(max_iters=1500, tol=0.0, seed=15, checkpoint_every=13)
        trace, ref = ridge_pair("rcd-ridge", self.X, self.y, 0.5, config)
        assert trace.records == ref.records
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq


class TestZeroRow:
    """A zero row has sampling weight 0 in rk (never drawn) and weight
    lambda in rk-ridge (drawn, and its alpha_i goes to y_i / lambda);
    neither run may reject it up front."""

    def setup_method(self):
        inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
        self.X = inst.problem.X.copy()
        self.X[4] = 0.0
        self.y = inst.problem.y

    def test_rk(self):
        X, y = self.X, self.y
        problem = Problem(X, y, Regime.INCONSISTENT)
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        config = RunConfig(max_iters=1500, seed=16, checkpoint_every=13)
        rows = build_sampler(linalg.row_norms_sq(X)).draw_block(pcg(config.seed), 1500)
        assert 4 not in rows
        trace = run(Method.RK, problem, config, reference, RATE)
        assert trace.records == ls_reference(Method.RK, problem, config, reference).records

    def test_rk_ridge(self):
        lam = 0.5
        config = RunConfig(max_iters=3000, tol=0.0, seed=17, checkpoint_every=13)
        rows = build_sampler(linalg.row_norms_sq(self.X) + lam).draw_block(pcg(config.seed), 3000)
        assert 4 in rows
        trace, ref = ridge_pair("rk-ridge", self.X, self.y, lam, config)
        assert trace.records == ref.records
        # energy_err_sq >= lam (alpha_4 - alpha*_4)^2, and alpha*_4 = y_4 / lam
        assert oracle.ridge_alpha_star(self.X, self.y, lam)[4] == pytest.approx(self.y[4] / lam)
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq


def test_krr_run_stops_at_first_non_finite_checkpoint():
    inst = oracle.gen_consistent(30, 10, 1)
    data, y = inst.problem.X, inst.problem.y
    spec, lam = KernelSpec("polynomial", degree=200, offset=1000.0), 0.1
    config = RunConfig(max_iters=3000, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = krr_run(data, y, spec, lam, config, np.zeros(30), RATE)
    energies = trace.column("energy_err_sq")
    assert trace.final().iter == 30
    assert not np.isfinite(energies[-1]) and np.all(np.isfinite(energies[:-1]))
