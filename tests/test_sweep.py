"""Dual sweeps: k row steps as one forward Gauss-Seidel sweep.

`solvers.dual_sweep` takes the steps of rk, rk-ridge and rk-krr on the
rows J of one sweep; for all three, `solvers.dual_advance` has
`solvers.sweeps` cut each draw block into runs of k rows, and a run
shorter than min(k, SWEEP_MIN_STEPS) is taken a step at a time, with the
bits of the `*_step` functions.
"""

import numpy as np
import pytest

from randiter import kernel, oracle, solvers
from randiter.errors import ZeroNormRow
from randiter.kernel import KernelSpec, _Gram, krr_run, krr_step
from randiter.ridge import rk_ridge_run, rk_ridge_step
from randiter.sampling import build_sampler
from randiter.solvers import (
    RESIDUAL_REFRESH_EVERY,
    SWEEP_MIN_STEPS,
    SWEEP_STEPS,
    Regime,
    RunConfig,
    dual_sweep,
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
    dual_sweep(REPEATS, XJ, XJ @ XJ.T, y[REPEATS] - XJ @ beta, lam, alpha, beta)
    assert close(beta, ref_beta)
    if lam:
        assert close(alpha, ref_alpha)


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
    KJ = gram.block(REPEATS)
    dual_sweep(REPEATS, KJ, KJ[:, REPEATS], y[REPEATS] - s[REPEATS], lam, alpha, s)
    assert close(alpha, ref_alpha) and close(s, ref_s)


def test_sweep_sizes():
    assert [len(J) for J in sweeps(np.arange(70), SWEEP_STEPS)] == [32, 32, 6]
    assert [len(J) for J in sweeps(np.arange(40), 16)] == [16, 16, 8]


GAUSSIAN = KernelSpec("gaussian", gamma=0.05)
RUNS = {
    "rk": lambda inst, cfg: run("rk", inst.X, inst.y, Regime.UNKNOWN, cfg, inst.reference, 0.9),
    "rk-ridge": lambda inst, cfg: rk_ridge_run(inst.X, inst.y, 0.5, cfg, inst.reference,
                                               np.zeros(30), 0.9),
    "rk-krr": lambda inst, cfg: krr_run(inst.X, inst.y, GAUSSIAN, 0.5, cfg,
                                        oracle.krr_alpha_star(inst.X, inst.y, GAUSSIAN, 0.5), 0.9),
}


@pytest.mark.parametrize("method", list(RUNS))
def test_runs_split_at_refresh_and_checkpoint_steps(method, monkeypatch):
    # a checkpoint every 45 steps and a refresh every 1000: no run spans
    # one, and only the runs of SWEEP_MIN_STEPS or more are sweeps
    module = kernel if method == "rk-krr" else solvers
    runs, swept = [], []

    def cut(indices, k):
        runs.append(sweeps(indices, k))
        return runs[-1]

    def spy(J, *args):
        swept.append(len(J))
        dual_sweep(J, *args)

    monkeypatch.setattr(solvers, "sweeps", cut)
    monkeypatch.setattr(module, "dual_sweep", spy)
    inst = oracle.gen_consistent(30, 10, 3)
    trace = RUNS[method](inst, RunConfig(max_iters=2003, tol=0.0, seed=5, checkpoint_every=45))
    spans, done = [], 0
    for block in runs:
        for J in block:
            spans.append((done, done + len(J)))
            done += len(J)
    assert done == trace.final().iter == 2003
    for first, end in spans:
        assert not any(t % 45 == 0 or t % RESIDUAL_REFRESH_EVERY == 0 for t in range(first + 1, end))
    # a 45-step block is 32 + 13; the refresh at 1000 = 22 * 45 + 10
    # cuts 10 + 35, and 35 = 32 + 3; the one at 2000 = 44 * 45 + 20 cuts
    # 20 + 3
    assert sorted({end - first for first, end in spans}) == [3, 10, 13, 20, 32]
    assert swept == [end - first for first, end in spans if end - first >= SWEEP_MIN_STEPS]


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


@pytest.mark.parametrize("method", list(RUNS))
def test_seeded_reruns_are_identical(method):
    inst = oracle.gen_inconsistent(30, 10, 0.1, 7)
    cfg = RunConfig(max_iters=3000, tol=0.0, seed=8, checkpoint_every=13)
    first, second = RUNS[method](inst, cfg), RUNS[method](inst, cfg)
    assert repr(first.records).encode() == repr(second.records).encode()
    assert first.records == second.records


