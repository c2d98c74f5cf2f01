"""The shared block driver against the per-step loop it replaced.

Each `*_run` is checked against a reference loop that takes one scalar
`WeightedSampler.draw` and one `*_step` call per iteration, refreshes
at the first checkpoint at or after every 1000 steps, or every
1000 * ceil(epoch / 1000) steps where an epoch is longer, and checks the
stop rule at each checkpoint.
Every method takes its steps as Gauss-Seidel sweeps where they pay,
on rows (rk, rk-ridge, rk-krr) or columns (rcd, rcd-ridge), and a sweep
sums in another order than the steps. So a run's trace must have the
reference's `iter` column and every column within SWEEP_RTOL of that
column's record-0 value; a run on X too short to sweep steps one row or
column at a time and must give exactly the reference trace. rk-krr
keeps y - K alpha only on the rows it has stepped since its last
rebase, not a maintained s on every row, so its short runs are the
reference's up to rounding too.
"""

import math

import numpy as np
import pytest

from randiter import kernel, linalg, oracle, solvers
from randiter.errors import DegenerateWeights, DimensionError
from randiter.kernel import (
    GRAM_TILE_ELEMS,
    KernelSpec,
    apply_gram,
    krr_run,
    krr_step,
    krr_weights,
)
from randiter.ridge import rcd_ridge_run, rcd_ridge_step, rk_ridge_run, rk_ridge_step
from randiter.sampling import build_sampler
from randiter.solvers import (
    PLATEAU_WINDOW,
    RESIDUAL_REFRESH_EVERY,
    SWEEP_ELEMS,
    SWEEP_MIN_STEPS,
    SWEEP_STEPS,
    ConvergenceTrace,
    Regime,
    RunConfig,
    TraceRecord,
    _plateaued,
    dual_sweep,
    rcd_step,
    rk_step,
    run,
)

from conftest import pcg, spy_refreshes

RATE = 0.97
# A sweep's iterate is the step loop's up to rounding: its traces differ
# by at most about 1e-17 of each column's starting value.
SWEEP_RTOL = 1e-12
COLUMNS = ("err_sq", "energy_err_sq", "residual_sq", "bound")


def assert_matches_step_loop(trace, ref):
    """The step loop's checkpoints and final iteration, and every column
    within SWEEP_RTOL of its record-0 value."""
    assert trace.column("iter").tolist() == ref.column("iter").tolist()
    assert trace.final().iter == ref.final().iter
    for name in COLUMNS:
        got, want = trace.column(name), ref.column(name)
        assert np.all(np.abs(got - want) <= SWEEP_RTOL * abs(want[0])), name


def step_loop(weights, config, epoch, step, measures, natural, stop, refresh=None):
    """One scalar draw and one step per iteration; a checkpoint when t is
    a multiple of the cadence (config.checkpoint_every, else `epoch`) or
    t = max_iters, which first calls refresh() if a multiple of the
    smallest multiple of 1000 at or above `epoch` falls after the
    previous checkpoint and at or before t; stop(rec, history, window)
    after each one, where a plateau window spans PLATEAU_WINDOW
    checkpoints and at least one epoch of steps."""
    every = config.checkpoint_every or epoch
    window = PLATEAU_WINDOW * math.ceil(epoch / every)
    period = RESIDUAL_REFRESH_EVERY * math.ceil(epoch / RESIDUAL_REFRESH_EVERY)
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
    last = 0
    for t in range(1, config.max_iters + 1):
        step(sampler.draw(rng))
        if t % every == 0 or t == config.max_iters:
            if refresh is not None and t // period > last // period:
                refresh()
            last = t
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


def ls_reference(method, X, y, regime, config, reference, drifts=None):
    """The step loop for rk or rcd; rcd's refreshes append to `drifts`,
    if given, ||r - (y - X beta)|| / ||y - X beta|| just before each."""
    n, p = X.shape
    beta, residual = np.zeros(p), y.copy()
    consistent = regime in (Regime.CONSISTENT_UNIQUE, Regime.UNDERDETERMINED)

    def stop(rec, history, window):
        if consistent and rec.residual_sq <= config.tol ** 2:
            return True
        return regime == Regime.INCONSISTENT and _plateaued(history, window)

    def measures():
        return fits(X, y, beta, reference)

    if method == "rk":
        return step_loop(linalg.row_norms_sq(X), config, n,
                         lambda i: rk_step(beta, X, y, i), measures, "err_sq", stop)

    def refresh():
        fresh = y - X @ beta
        if drifts is not None:
            drifts.append(np.linalg.norm(residual - fresh) / np.linalg.norm(fresh))
        residual[:] = fresh

    return step_loop(linalg.col_norms_sq(X), config, p,
                     lambda j: rcd_step(beta, residual, X, j), measures, "energy_err_sq", stop,
                     refresh)


def instance(regime, n, p, seed):
    if regime == Regime.INCONSISTENT:
        return oracle.gen_inconsistent(n, p, 0.1, seed)
    return oracle.gen_consistent(n, p, seed)


# (regime, n, p, instance seed, max_iters, checkpoint_every, tol, how it ends)
LS_CASES = {
    "rk": [
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 1000, 7, 0.0, "max_iters"),
        (Regime.CONSISTENT_UNIQUE, 30, 10, 5, 20000, None, 1e-6, "tol"),
        (Regime.INCONSISTENT, 12, 1, 3, 3000, None, 1e-12, "plateau"),
    ],
    "rcd": [
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
                         ids=lambda v: v if isinstance(v, str) else v[-1])
def test_ls_run_matches_step_loop(method, case):
    regime, n, p, seed, max_iters, every, tol, ends = case
    inst = instance(regime, n, p, seed)
    X, y = inst.X, inst.y
    config = RunConfig(max_iters=max_iters, tol=tol, seed=11, checkpoint_every=every)
    trace = run(method, X, y, regime, config, inst.reference, RATE)
    assert_matches_step_loop(trace, ls_reference(method, X, y, regime, config, inst.reference))
    check_end(trace, max_iters, every or 1, ends)
    if method == "rcd" and ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


def test_rcd_refreshes_once_an_epoch_beyond_1000_columns(monkeypatch):
    # p = 1001: r = y - X beta is refreshed at the first checkpoint at
    # or after every 2000 steps, not 1000, and the trace is still the
    # step loop's, bit for bit (columns of n = 1100 are too long to
    # sweep). Just before each refresh, r has drifted from y - X beta by
    # rounding only.
    refreshes, drifts = spy_refreshes(monkeypatch, solvers), []
    rng = np.random.default_rng(18)
    X, y = rng.standard_normal((1100, 1001)), rng.standard_normal(1100)
    config = RunConfig(max_iters=4500, tol=0.0, seed=19)
    trace = run("rcd", X, y, Regime.UNKNOWN, config, np.zeros(1001), RATE)
    ref = ls_reference("rcd", X, y, Regime.UNKNOWN, config, np.zeros(1001), drifts)
    assert trace.records == ref.records
    assert trace.column("iter").tolist() == [0, 1001, 2002, 3003, 4004, 4500]
    assert refreshes == [2002, 4004]
    assert len(drifts) == 2 and max(drifts) <= 1e-12


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
                    "energy_err_sq", stop, refresh)
    return rcd_ridge_run(X, y, lam, config, beta_rr, RATE), ref


@pytest.mark.parametrize("method,case",
                         [(m, c) for m, cs in RIDGE_CASES.items() for c in cs],
                         ids=lambda v: v if isinstance(v, str) else v[-1])
def test_ridge_run_matches_step_loop(method, case):
    regime, n, p, seed, lam, max_iters, every, tol, ends = case
    inst = instance(regime, n, p, seed)
    config = RunConfig(max_iters=max_iters, tol=tol, seed=12, checkpoint_every=every)
    trace, ref = ridge_pair(method, inst.X, inst.y, lam, config)
    assert_matches_step_loop(trace, ref)
    check_end(trace, max_iters, every or 1, ends)
    if method == "rcd-ridge" and ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


# The column cases above take their steps in blocks of 7 or 10 columns,
# too short to sweep; these take them in blocks of 48, as sweeps of 32
# and 16. (method, max_iters, tol, how it ends)
SWEPT_COLUMN_CASES = [
    ("rcd", 1000, 0.0, "max_iters"),
    ("rcd", 20000, 1e-6, "tol"),
    ("rcd-ridge", 1000, 0.0, "max_iters"),
    ("rcd-ridge", 20000, 1e-6, "tol"),
]


@pytest.mark.parametrize("method,max_iters,tol,ends", SWEPT_COLUMN_CASES,
                         ids=[f"{c[0]}-{c[-1]}" for c in SWEPT_COLUMN_CASES])
def test_column_sweeps_match_step_loop(method, max_iters, tol, ends, monkeypatch):
    swept = []

    def spy(J, *args):
        swept.append(len(J))
        return dual_sweep(J, *args)

    monkeypatch.setattr(solvers, "dual_sweep", spy)
    regime = Regime.CONSISTENT_UNIQUE
    inst = instance(regime, 30, 10, 5)
    config = RunConfig(max_iters=max_iters, tol=tol, seed=11, checkpoint_every=48)
    if method == "rcd":
        trace = run("rcd", inst.X, inst.y, regime, config, inst.reference, RATE)
        ref = ls_reference("rcd", inst.X, inst.y, regime, config, inst.reference)
    else:
        trace, ref = ridge_pair("rcd-ridge", inst.X, inst.y, 0.5, config)
    assert set(swept) == {32, 16}
    assert_matches_step_loop(trace, ref)
    check_end(trace, max_iters, 48, ends)


# (max_iters, checkpoint_every, tol, how it ends)
KRR_CASES = [
    (1000, 7, 0.0, "max_iters"),
    (20000, None, 1e-6, "tol"),
    (3000, None, 0.0, "plateau"),
]


def krr_pair(data, y, spec, lam, config, alpha_star, M=None):
    """krr_run and its step-loop reference. krr_run's checkpoints apply K
    with apply_gram; the reference's use M = K + lam I if given, else
    apply_gram too."""
    n = data.shape[0]
    alpha, s = np.zeros(n), np.zeros(n)

    def measures():
        v = alpha - alpha_star
        if M is None:
            energy = float(v @ apply_gram(spec, data, v)) + lam * float(v @ v)
        else:
            energy = max(float(v @ (M @ v)), 0.0)
        dual_res = y - s - lam * alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    def refresh():
        s[:] = apply_gram(spec, data, alpha)

    ref = step_loop(krr_weights(spec, data, lam), config, n,
                    lambda i: krr_step(alpha, s, data, y, spec, lam, i), measures,
                    "energy_err_sq", energy_stop(config.tol), refresh)
    return krr_run(data, y, spec, lam, config, alpha_star, RATE), ref


# krr_run's checkpoints are matrix-free either way; with energy-matrix
# the reference measures with K + lam I, so that they match it is
# checked here
@pytest.mark.parametrize("matrix_free", [False, True], ids=["energy-matrix", "matrix-free"])
@pytest.mark.parametrize("case", KRR_CASES, ids=lambda c: c[-1])
def test_krr_run_matches_step_loop(case, matrix_free):
    max_iters, every, tol, ends = case
    inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
    data, y = inst.X, inst.y
    spec, lam, n = KernelSpec("gaussian", gamma=0.5), 0.5, 30
    M = oracle.gram_matrix(spec, data) + lam * np.eye(n)
    alpha_star = np.linalg.solve(M, y)
    config = RunConfig(max_iters=max_iters, tol=tol, seed=13, checkpoint_every=every)
    trace, ref = krr_pair(data, y, spec, lam, config, alpha_star, None if matrix_free else M)
    assert_matches_step_loop(trace, ref)
    check_end(trace, max_iters, every or 1, ends)
    if ends != "tol":
        assert trace.final().iter >= RESIDUAL_REFRESH_EVERY


TOO_SHORT = [("short-blocks", m) for m in ("rk", "rk-ridge", "rcd", "rcd-ridge")]
TOO_SHORT += [("long-rows", "rk"), ("long-rows", "rk-ridge"),
              ("long-columns", "rcd"), ("long-columns", "rcd-ridge")]


@pytest.mark.parametrize("shape,method", TOO_SHORT, ids=[f"{s}-{m}" for s, m in TOO_SHORT])
def test_runs_too_short_to_sweep_give_the_step_loop_bits(shape, method):
    # Checkpoints every 5 steps cut every draw block below
    # SWEEP_MIN_STEPS; rows of p = 600, or columns of n = 600, hold a
    # sweep on X to SWEEP_ELEMS // 600 = 6 steps, below the
    # SWEEP_MIN_STEPS that rows and columns of X sweep at. Either way no
    # run sweeps, and the trace is the step loop's, bit for bit.
    assert SWEEP_ELEMS // 600 < SWEEP_MIN_STEPS
    lam = 0.5
    if shape == "short-blocks":
        n, p, config = 30, 10, RunConfig(max_iters=1500, tol=0.0, seed=16, checkpoint_every=5)
    elif shape == "long-rows":
        n, p, config = 40, 600, RunConfig(max_iters=1500, tol=0.0, seed=16)
    else:
        n, p, config = 600, 10, RunConfig(max_iters=1500, tol=0.0, seed=16)
    inst = (oracle.gen_underdetermined if n < p else oracle.gen_consistent)(n, p, 17)
    if method in ("rk", "rcd"):
        trace = run(method, inst.X, inst.y, Regime.UNKNOWN, config, inst.reference, RATE)
        ref = ls_reference(method, inst.X, inst.y, Regime.UNKNOWN, config, inst.reference)
    else:
        trace, ref = ridge_pair(method, inst.X, inst.y, lam, config)
    assert len(trace.records) > 2
    assert trace.records == ref.records


def spy_krr_sweeps(monkeypatch):
    """Lists that get each rk-krr sweep's length and the shape of each
    block of K it forms."""
    swept, blocks, block = [], [], kernel._Gram.block

    def spy(J, *args):
        swept.append(len(J))
        return dual_sweep(J, *args)

    def formed(self, *args):
        out = block(self, *args)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(kernel, "dual_sweep", spy)
    monkeypatch.setattr(kernel._Gram, "block", formed)
    return swept, blocks


def test_short_krr_runs_sweep(monkeypatch):
    # Checkpoints every 5 steps cut every draw block to 5 rows, and each
    # is one sweep of 5, on the columns of the rows stepped since the
    # last rebase (at most the 30 rows of K); the trace, short of the
    # rounding floor, is the step loop's up to rounding.
    swept, blocks = spy_krr_sweeps(monkeypatch)
    inst = oracle.gen_consistent(30, 10, 17)
    config = RunConfig(max_iters=300, tol=0.0, seed=16, checkpoint_every=5)
    trace, ref = krr_pair(inst.X, inst.y, KernelSpec("gaussian", gamma=0.5), 0.5, config,
                          np.random.default_rng(20).standard_normal(30))
    assert trace.final().iter == 300
    assert swept == [5] * 60
    assert all(k == 5 and 0 < width <= 30 for k, width in blocks)
    assert_matches_step_loop(trace, ref)


def test_long_rows_of_k_sweep_on_the_rows_stepped(monkeypatch):
    # At n = 4100, K[J, :] would hold a sweep to GRAM_TILE_ELEMS // 4100
    # = 7 rows, but a sweep forms only K[J, U] for the at most 300 rows U
    # stepped since the run began, so each 150-step block is 4 sweeps of
    # SWEEP_STEPS and one of 22, and each block of K holds at most
    # GRAM_TILE_ELEMS entries; the trace is the step loop's up to
    # rounding. alpha* is any nonzero vector: what is checked is that
    # the two runs measure the same.
    assert GRAM_TILE_ELEMS // 300 > SWEEP_STEPS == 32
    swept, blocks = spy_krr_sweeps(monkeypatch)
    inst = oracle.gen_consistent(4100, 2, 17)
    config = RunConfig(max_iters=300, tol=0.0, seed=16, checkpoint_every=150)
    trace, ref = krr_pair(inst.X, inst.y, KernelSpec("gaussian", gamma=0.5), 0.5, config,
                          np.random.default_rng(20).standard_normal(4100))
    assert swept == [32, 32, 32, 32, 22] * 2
    assert all(k * width <= GRAM_TILE_ELEMS and width <= 300 for k, width in blocks)
    assert trace.column("iter").tolist() == [0, 150, 300]
    assert_matches_step_loop(trace, ref)


def test_krr_runs_of_one_row_step_without_a_solve(monkeypatch):
    # With a cap of 30 entries, rows of K at n = 30 hold a run to one
    # row: every step forms one row of K[J, U] and takes its step
    # without dual_sweep's solve, and the trace is still the step
    # loop's up to rounding.
    monkeypatch.setattr(kernel, "GRAM_TILE_ELEMS", 30)
    swept, blocks = spy_krr_sweeps(monkeypatch)
    inst = oracle.gen_consistent(30, 10, 17)
    config = RunConfig(max_iters=300, tol=0.0, seed=16, checkpoint_every=45)
    trace, ref = krr_pair(inst.X, inst.y, KernelSpec("gaussian", gamma=0.5), 0.5, config,
                          np.random.default_rng(20).standard_normal(30))
    assert trace.final().iter == 300
    assert swept == []
    assert len(blocks) == 300 and all(k == 1 and width <= 30 for k, width in blocks)
    assert_matches_step_loop(trace, ref)


class TestZeroColumn:
    """A zero column has sampling weight 0 in rcd (never drawn) and
    weight lambda in rcd-ridge (drawn, and its coordinate stays 0);
    neither run may reject it up front."""

    def setup_method(self):
        inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
        self.X = inst.X.copy()
        self.X[:, 3] = 0.0
        self.y = inst.y

    def test_rcd(self):
        X, y = self.X, self.y
        regime = Regime.INCONSISTENT
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        config = RunConfig(max_iters=1500, seed=14, checkpoint_every=13)
        trace = run("rcd", X, y, regime, config, reference, RATE)
        assert_matches_step_loop(trace, ls_reference("rcd", X, y, regime, config, reference))
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq

    def test_rcd_ridge(self):
        config = RunConfig(max_iters=1500, tol=0.0, seed=15, checkpoint_every=13)
        trace, ref = ridge_pair("rcd-ridge", self.X, self.y, 0.5, config)
        assert_matches_step_loop(trace, ref)
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq


class TestZeroRow:
    """A zero row has sampling weight 0 in rk (never drawn) and weight
    lambda in rk-ridge (drawn, and its alpha_i goes to y_i / lambda);
    neither run may reject it up front."""

    def setup_method(self):
        inst = oracle.gen_inconsistent(30, 10, 0.1, 5)
        self.X = inst.X.copy()
        self.X[4] = 0.0
        self.y = inst.y

    def test_rk(self):
        X, y = self.X, self.y
        regime = Regime.INCONSISTENT
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        config = RunConfig(max_iters=1500, seed=16, checkpoint_every=13)
        rows = build_sampler(linalg.row_norms_sq(X)).draw_block(pcg(config.seed), 1500)
        assert 4 not in rows
        trace = run("rk", X, y, regime, config, reference, RATE)
        assert_matches_step_loop(trace, ls_reference("rk", X, y, regime, config, reference))

    def test_rk_ridge(self):
        lam = 0.5
        config = RunConfig(max_iters=3000, tol=0.0, seed=17, checkpoint_every=13)
        rows = build_sampler(linalg.row_norms_sq(self.X) + lam).draw_block(pcg(config.seed), 3000)
        assert 4 in rows
        trace, ref = ridge_pair("rk-ridge", self.X, self.y, lam, config)
        assert_matches_step_loop(trace, ref)
        # energy_err_sq >= lam (alpha_4 - alpha*_4)^2, and alpha*_4 = y_4 / lam
        assert oracle.ridge_alpha_star(self.X, self.y, lam)[4] == pytest.approx(self.y[4] / lam)
        assert trace.final().energy_err_sq < 1e-6 * trace.records[0].energy_err_sq


def test_krr_run_stops_at_first_non_finite_checkpoint():
    # with y around 1e160, alpha after one epoch is too, and v^T K v
    # overflows at the first checkpoint after it
    inst = oracle.gen_consistent(30, 10, 1)
    data, y = inst.X, inst.y * 1e160
    spec, lam = KernelSpec("gaussian", gamma=0.5), 0.1
    config = RunConfig(max_iters=3000, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = krr_run(data, y, spec, lam, config, np.zeros(30), RATE)
    energies = trace.column("energy_err_sq")
    assert trace.final().iter == 30
    assert not np.isfinite(energies[-1]) and np.all(np.isfinite(energies[:-1]))


def test_krr_run_rejects_sampling_weights_that_overflow():
    # at degree 200 and offset 1000 every k(x, x) + lam overflows, so
    # the sampler has no finite total to draw from
    inst = oracle.gen_consistent(30, 10, 1)
    spec = KernelSpec("polynomial", degree=200, offset=1000.0)
    with np.errstate(over="ignore"), pytest.raises(DegenerateWeights, match="inf"):
        krr_run(inst.X, inst.y, spec, 0.1, RunConfig(max_iters=3000, seed=3), np.zeros(30), RATE)


# Every run entry point on (X, y, config) of a 30 x 10 instance, with
# zero targets and lambda 0.1; "unknown" is run with a method it does not know.
ENTRY_POINTS = {
    "rk": lambda X, y, cfg: run("rk", X, y, Regime.CONSISTENT_UNIQUE, cfg, np.zeros(10), RATE),
    "rcd": lambda X, y, cfg: run("rcd", X, y, Regime.CONSISTENT_UNIQUE, cfg, np.zeros(10), RATE),
    "rk-ridge": lambda X, y, cfg: rk_ridge_run(X, y, 0.1, cfg, np.zeros(10), np.zeros(30), RATE),
    "rcd-ridge": lambda X, y, cfg: rcd_ridge_run(X, y, 0.1, cfg, np.zeros(10), RATE),
    "rk-krr": lambda X, y, cfg: krr_run(X, y, KernelSpec("gaussian"), 0.1, cfg, np.zeros(30),
                                        RATE),
    "unknown": lambda X, y, cfg: run("rk-ridge", X, y, Regime.CONSISTENT_UNIQUE, cfg,
                                     np.zeros(10), RATE),
}
# (entry point, max_iters, entries cut from y, the error, its message)
BAD_INPUTS = [
    *[(entry, max_iters, 0, ValueError, "max_iters must be positive")
      for entry in list(ENTRY_POINTS)[:-1] for max_iters in (0, -5)],
    *[(entry, 100, 1, DimensionError, "y has length 29")
      for entry in list(ENTRY_POINTS)[:-1]],
    ("unknown", 100, 0, ValueError, "unknown method 'rk-ridge'"),
]


@pytest.mark.parametrize("entry,max_iters,cut,error,message", BAD_INPUTS,
                         ids=[f"{e}-iters{m}-cut{c}" for e, m, c, _, _ in BAD_INPUTS])
def test_run_inputs_are_checked_in_the_shared_loops(entry, max_iters, cut, error, message):
    inst = oracle.gen_consistent(30, 10, 1)
    with pytest.raises(error, match=message):
        ENTRY_POINTS[entry](inst.X, inst.y[:30 - cut], RunConfig(max_iters=max_iters))
