"""Gauss-Seidel sweeps: k coordinate steps as one triangular solve.

`solvers.dual_sweep` takes the steps of rk, rk-ridge and rk-krr on the
rows J of one sweep, and those of rcd and rcd-ridge on its columns J,
and returns them for the caller's own update. For all five
`solvers.sweeps` cuts each draw block into runs of k indices. For the
four methods on X, `solvers.dual_advance` takes a run shorter than
min(k, SWEEP_MIN_STEPS) rows, or COLUMN_SWEEP_MIN_STEPS columns, a step
at a time, with the bits of the `*_step` functions; rk-krr sweeps every
run of two or more rows and steps a run of one without the solve.
"""

import numpy as np
import pytest

from randiter import cli, kernel, oracle, solvers
from randiter.errors import ZeroNormColumn, ZeroNormRow
from randiter.kernel import KernelSpec, _Gram, krr_run, krr_step
from randiter.ridge import rcd_ridge_run, rcd_ridge_step, rk_ridge_run, rk_ridge_step
from randiter.sampling import build_sampler
from randiter.solvers import (
    COLUMN_SWEEP_MIN_STEPS,
    RESIDUAL_REFRESH_EVERY,
    SWEEP_MIN_STEPS,
    SWEEP_STEPS,
    Regime,
    RunConfig,
    column_descent,
    dual_sweep,
    rcd_step,
    rk_step,
    row_descent,
    run,
    sweeps,
)

from conftest import pcg

REPEATS = np.array([3, 3, 7, 3])


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def start(n, p, seed):
    """X, y and a nonzero alpha with beta = X^T alpha."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    alpha = rng.standard_normal(n)
    return X, rng.standard_normal(n), alpha, X.T @ alpha


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_repeated_rows_match_row_steps(lam):
    X, y, alpha, beta = start(10, 4, 1)
    ref_alpha, ref_beta = alpha.copy(), beta.copy()
    for row in REPEATS:
        if lam:
            rk_ridge_step(ref_alpha, ref_beta, X, y, lam, row)
        else:
            rk_step(ref_beta, X, y, row)
    XJ = X[REPEATS]
    beta += dual_sweep(REPEATS, XJ @ XJ.T, y[REPEATS] - XJ @ beta, lam, alpha) @ XJ
    assert close(beta, ref_beta)
    if lam:
        assert close(alpha, ref_alpha)


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_repeated_columns_match_column_steps(lam):
    rng = np.random.default_rng(3)
    X, y, beta = rng.standard_normal((12, 8)), rng.standard_normal(12), rng.standard_normal(8)
    residual = y - X @ beta
    ref_beta, ref_residual = beta.copy(), residual.copy()
    for col in REPEATS:
        if lam:
            rcd_ridge_step(ref_beta, ref_residual, X, lam, col)
        else:
            rcd_step(ref_beta, ref_residual, X, col)
    XJ = X.T[REPEATS]
    residual -= dual_sweep(REPEATS, XJ @ XJ.T, XJ @ residual, lam, beta, "column") @ XJ
    assert close(beta, ref_beta) and close(residual, ref_residual)


@pytest.mark.parametrize("spec", [KernelSpec("gaussian", gamma=0.5), KernelSpec("linear"),
                                  KernelSpec("polynomial", degree=3, offset=1.0)],
                         ids=lambda spec: spec.family)
def test_repeated_rows_match_krr_steps(spec):
    data, y, alpha, _ = start(10, 3, 2)
    lam = 0.3
    gram = _Gram(spec, data)
    s = gram.apply(alpha)
    ref_alpha, ref_s = alpha.copy(), s.copy()
    for row in REPEATS:
        krr_step(ref_alpha, ref_s, data, y, spec, lam, row)
    KJ = gram.block(REPEATS, gram.rows, REPEATS, np.empty(len(REPEATS) * 10))
    s += dual_sweep(REPEATS, KJ[:, REPEATS], y[REPEATS] - s[REPEATS], lam, alpha) @ KJ
    assert close(alpha, ref_alpha) and close(s, ref_s)


def test_sweep_sizes():
    k = SWEEP_STEPS
    assert [len(J) for J in sweeps(np.arange(2 * k + 6), k)] == [k, k, 6]
    assert [len(J) for J in sweeps(np.arange(40), 16)] == [16, 16, 8]
    assert [len(J) for J in sweeps(np.arange(16), 16)] == [16]


GAUSSIAN = KernelSpec("gaussian", gamma=0.05)
RUNS = {
    "rk": lambda inst, cfg: run("rk", inst.X, inst.y, Regime.UNKNOWN, cfg, inst.reference, 0.9),
    "rcd": lambda inst, cfg: run("rcd", inst.X, inst.y, Regime.UNKNOWN, cfg, inst.reference, 0.9),
    "rk-ridge": lambda inst, cfg: rk_ridge_run(inst.X, inst.y, 0.5, cfg, inst.reference,
                                               np.zeros(30), 0.9),
    "rcd-ridge": lambda inst, cfg: rcd_ridge_run(inst.X, inst.y, 0.5, cfg, inst.reference, 0.9),
    "rk-krr": lambda inst, cfg: krr_run(inst.X, inst.y, GAUSSIAN, 0.5, cfg,
                                        oracle.krr_alpha_star(inst.X, inst.y, GAUSSIAN, 0.5), 0.9),
}


@pytest.mark.parametrize("method", list(RUNS))
def test_runs_split_at_refresh_and_checkpoint_steps(method, monkeypatch):
    # a checkpoint every 45 steps and a block end at every multiple of
    # RESIDUAL_REFRESH_EVERY: no run spans one, each block between them
    # is cut into runs of SWEEP_STEPS and a shorter rest (30 x 10 rows,
    # columns and rows of K all hold that many under their caps), and
    # only the runs of SWEEP_MIN_STEPS or more are sweeps,
    # COLUMN_SWEEP_MIN_STEPS or more on columns, every run of two or
    # more on rows of K
    module = kernel if method == "rk-krr" else solvers
    shortest = COLUMN_SWEEP_MIN_STEPS if method.startswith("rcd") else SWEEP_MIN_STEPS
    shortest = 2 if method == "rk-krr" else shortest
    runs, swept = [], []

    def cut(indices, k):
        runs.append(sweeps(indices, k))
        return runs[-1]

    def spy(J, *args):
        swept.append(len(J))
        return dual_sweep(J, *args)

    monkeypatch.setattr(solvers, "sweeps", cut)
    monkeypatch.setattr(module, "dual_sweep", spy)
    monkeypatch.setattr(solvers, "_plateaued", lambda *args: False)  # every run takes 2003 steps
    inst = oracle.gen_consistent(30, 10, 3)
    trace = RUNS[method](inst, RunConfig(max_iters=2003, tol=0.0, seed=5, checkpoint_every=45))
    spans, done = [], 0
    for block in runs:
        for J in block:
            spans.append(len(J))
            done += len(J)
    assert done == trace.final().iter == 2003
    ends = [t for t in range(1, 2003) if t % 45 == 0 or t % RESIDUAL_REFRESH_EVERY == 0] + [2003]
    expected = []
    for first, end in zip([0] + ends, ends):
        full, rest = divmod(end - first, SWEEP_STEPS)
        expected += [SWEEP_STEPS] * full + [rest] * (rest > 0)
    assert spans == expected
    assert swept == [length for length in spans if length >= shortest]
    if method != "rk-krr":
        assert 0 < len(swept) < len(spans)


def test_zero_row_drawn_inside_a_sweep_is_named():
    inst = oracle.gen_consistent(30, 10, 3)
    X = inst.X.copy()
    X[4] = 0.0
    sampler = build_sampler(np.ones(30))
    draws = sampler.draw_block(pcg(6), 30).tolist()
    assert draws.index(4) > 0  # not a sweep's first step
    with pytest.raises(ZeroNormRow, match="row 4 has zero norm"):
        row_descent(X, inst.y, 0.0, sampler, RunConfig(max_iters=30, seed=6),
                    lambda beta, alpha: (0.0, 0.0, 0.0), 0.9, "err_sq", tol_on=None,
                    plateau=False)


def test_zero_column_drawn_inside_a_sweep_is_named(monkeypatch):
    # one checkpoint after 30 steps: the 30 draws are one sweep
    inst = oracle.gen_consistent(30, 10, 3)
    X = inst.X.copy()
    X[:, 4] = 0.0
    sampler = build_sampler(np.ones(10))
    draws = sampler.draw_block(pcg(6), 30).tolist()
    assert draws.index(4) > 0 and COLUMN_SWEEP_MIN_STEPS <= 30 <= SWEEP_STEPS
    swept = []

    def spy(J, *args):
        swept.append(len(J))
        return dual_sweep(J, *args)

    monkeypatch.setattr(solvers, "dual_sweep", spy)
    config = RunConfig(max_iters=30, seed=6, checkpoint_every=30)
    with pytest.raises(ZeroNormColumn, match="column 4 has zero norm"):
        column_descent(X, inst.y, 0.0, sampler, config, lambda beta: (0.0, 0.0, 0.0), 0.9,
                       "energy_err_sq", tol_on=None, plateau=False)
    assert swept == [30]


def overflowing_below_the_diagonal(G):
    G[3, 1] = np.inf
    return G


def overflowing_everywhere(G):
    return np.full_like(G, np.inf)


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("overflow", [overflowing_below_the_diagonal, overflowing_everywhere])
def test_non_finite_triangle_gives_a_non_finite_iterate(overflow, lam):
    # Forward substitution carries an inf in the triangle into the
    # steps; LAPACK calls the first triangle singular, and on others
    # skips the entries it meets next to a zero step, which can leave a
    # finite delta. The sweep must leave the iterate non-finite, so that
    # `drive` stops on it. In the second case every step but the
    # sweep's first is inf * 0.
    X, y, alpha, beta = start(10, 4, 4)
    J = np.array([0, 5, 2, 7, 9])
    XJ = X[J]
    G = overflow(XJ @ XJ.T)
    with np.errstate(invalid="ignore"):
        beta += dual_sweep(J, G, y[J] - XJ @ beta, lam, alpha) @ XJ
    assert not np.all(np.isfinite(beta)) and not np.all(np.isfinite(alpha[J]))


def test_singular_triangle_is_a_usage_error_from_the_cli(tmp_path, capsys, monkeypatch):
    # A finite triangle with positive pivots whose LU factors underflow
    # is singular to LAPACK: the run stops with one line on stderr and
    # exit 2, never with a traceback.
    def underflowing(J, G, *args):
        T = np.tri(len(J)) - np.eye(len(J)) + 1e-200 * np.eye(len(J))
        return dual_sweep(J, T, *args)

    monkeypatch.setattr(solvers, "dual_sweep", underflowing)
    prob = str(tmp_path / "c")
    assert cli.main(["generate", "consistent", "30", "10", "--seed", "1", "--out", prob]) == 0
    capsys.readouterr()
    code = cli.main(["solve", prob, "--method", "rk", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err == "randiter: Singular matrix\n"


@pytest.mark.parametrize("method", list(RUNS))
def test_seeded_reruns_are_identical(method):
    inst = oracle.gen_inconsistent(30, 10, 0.1, 7)
    cfg = RunConfig(max_iters=3000, tol=0.0, seed=8, checkpoint_every=13)
    first, second = RUNS[method](inst, cfg), RUNS[method](inst, cfg)
    assert repr(first.records).encode() == repr(second.records).encode()
    assert first.records == second.records


