"""Randomized Kaczmarz (RK) and randomized coordinate descent (RCD).

A row method is coordinate descent on the dual system
(X X^T + lam I) alpha = y, a column method on the primal system
(X^T X + lam I) beta = X^T y: `row_descent` and `column_descent`, RK
and RCD at lam = 0, rk-ridge and rcd-ridge (ridge.py) at lam > 0. A row
step costs O(p), a column step O(n). The driver every run shares
(`drive`) samples indices a block at a time, with probability
proportional to squared row/column norms (plus lam), hands each block
to the method's loop, and records a convergence trace at checkpoints.
Both loops, and rk-krr's (kernel.py), take up to SWEEP_STEPS steps at a
time as one forward Gauss-Seidel sweep on the J x J block of their
system (`dual_sweep`): one LAPACK solve of a k x k triangle and two BLAS
products in place of 2k vector operations, where `dual_advance` finds
that this pays (rk-krr sweeps every run of two or more rows).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import Regime, linalg
from .errors import DimensionError, ZeroNormColumn, ZeroNormRow
from .sampling import PCG64Stream, WeightedSampler, build_sampler

# The column loop maintains r = y - X beta incrementally; rebuilding it
# caps floating-point drift so per-step optimality stays testable.
# rk-krr rebases on the K alpha of the checkpoint's pass, which empties
# U, the rows whose columns of K its sweeps form. `drive` has both done
# at the first checkpoint at or after each multiple of this, or, where
# an epoch is longer, of the smallest multiple of this that holds an
# epoch: a rebuild costs n p multiply-adds, about as much as an epoch of
# steps. The driver's draw blocks end at multiples of this, so they
# never hold more indices than this.
RESIDUAL_REFRESH_EVERY = 1000

# A sweep on k rows or columns of X also forms their k x k Gram, k p or
# k n multiply-adds a step that single steps do not make, so those loops
# hold k p or k n to this many entries (rk-krr's K[J, J] comes free, and
# kernel.GRAM_TILE_ELEMS caps its blocks).
SWEEP_ELEMS = 1 << 12
# A sweep takes at most SWEEP_STEPS steps: its solve grows as the cube
# of k. A run too short for its fixed cost to pay, under SWEEP_MIN_STEPS
# rows or COLUMN_SWEEP_MIN_STEPS columns (a column step costs less: its
# norm is cached, beta indexed as a list), is taken a step at a time.
SWEEP_STEPS = 32
SWEEP_MIN_STEPS = 8
COLUMN_SWEEP_MIN_STEPS = 16
_tri = functools.cache(np.tri)  # the mask of a k x k lower triangle, made once per k

# Plateau detector for regimes with an error floor: stop when the
# relative err_sq change between consecutive checkpoints stays below
# this across PLATEAU_WINDOW checkpoints, or across PLATEAU_WINDOW
# epochs (n or p steps) if checkpoints come more often than once an
# epoch: a few steps that revisit already solved rows change nothing.
PLATEAU_REL_CHANGE = 1e-6
PLATEAU_WINDOW = 5


@dataclass
class TraceRecord:
    iter: int
    err_sq: float
    energy_err_sq: float
    residual_sq: float
    bound: float


@dataclass
class ConvergenceTrace:
    """A run's checkpoint records. `drive` also sets the run's natural
    column and whether its final record reached tol in its stop
    measure."""

    records: list[TraceRecord] = field(default_factory=list)
    natural: str = "err_sq"
    converged: bool = False

    def append(self, rec: TraceRecord) -> None:
        if self.records and rec.iter <= self.records[-1].iter:
            raise ValueError("trace iterations must be strictly increasing")
        self.records.append(rec)

    def final(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


@dataclass
class RunConfig:
    """The knobs `drive` reads, shared by every solver run."""

    max_iters: int
    tol: float = 1e-12
    seed: int = 0
    checkpoint_every: int | None = None  # default: one epoch (n or p)


def rk_step(beta: np.ndarray, X: np.ndarray, y: np.ndarray, row: int) -> None:
    """Project beta, in place, onto the hyperplane of one equation (row)."""
    xr = X[row]
    nrm = float(xr @ xr)
    if nrm <= 0.0:
        raise ZeroNormRow(f"row {row} has zero norm")
    delta = (y[row] - float(xr @ beta)) / nrm
    beta += delta * xr


def rcd_step(beta: np.ndarray, residual: np.ndarray, X: np.ndarray, col: int) -> None:
    """Exactly minimize the residual norm along one coordinate (column),
    in place; residual = y - X beta before and after."""
    xc = X[:, col]
    nrm = float(xc @ xc)
    if nrm <= 0.0:
        raise ZeroNormColumn(f"column {col} has zero norm")
    delta = float(xc @ residual) / nrm
    beta[col] += delta
    residual -= delta * xc


def _plateaued(err_history: list[float], window: int) -> bool:
    if len(err_history) < window + 1:
        return False
    recent = err_history[-(window + 1):]
    for prev, cur in zip(recent, recent[1:]):
        denom = max(prev, 1e-300)
        if abs(cur - prev) / denom >= PLATEAU_REL_CHANGE:
            return False
    return True


def drive(
    sampler: WeightedSampler,
    config: RunConfig,
    advance: Callable[[np.ndarray], None],
    checkpoint: Callable[[bool], tuple[float, float, float]],
    rate: float,
    natural: str,
    tol_on: str | None,
    plateau: bool,
) -> ConvergenceTrace:
    """The checkpoint and stop loop that every method's run shares.

    Steps t = 1..max_iters (>= 1) draw their indices from `sampler` with
    the uniforms of PCG64Stream(config.seed), in blocks that end at
    multiples of RESIDUAL_REFRESH_EVERY and at checkpoints, and
    `advance(indices)` takes those steps in order. When t is a multiple
    of the checkpoint cadence (config.checkpoint_every, else one epoch)
    or t = max_iters, `checkpoint(refresh)` returns (err_sq,
    energy_err_sq, residual_sq) of the current iterate for a record;
    when `refresh`, the column loop
    takes the checkpoint's y - X beta as the r it maintains, and rk-krr
    rebases on the K alpha of the checkpoint's pass. `refresh` is true at
    the first checkpoint at or after each multiple of the refresh period,
    RESIDUAL_REFRESH_EVERY times ceil(epoch / RESIDUAL_REFRESH_EVERY) for
    an epoch of len(sampler) steps: every 1000 steps up to an epoch of
    1000, about once an epoch beyond. The record's bound is rate^t times
    the initial value of the `natural` column. The run stops at the first
    checkpoint where the natural column is not finite, where the `tol_on`
    column is <= tol^2 (if tol_on is given) or, with `plateau`, where the
    natural column has plateaued over the last PLATEAU_WINDOW checkpoints,
    or the last PLATEAU_WINDOW epochs if those hold more. The trace
    records `natural` and whether the run converged: it did if tol_on is
    None, else if its final tol_on column is <= tol^2.
    """
    if config.max_iters < 1:
        raise ValueError("max_iters must be positive")
    epoch = len(sampler)
    every = epoch if config.checkpoint_every is None else config.checkpoint_every
    if every < 1:
        raise ValueError("checkpoint_every must be positive")
    window = PLATEAU_WINDOW * math.ceil(epoch / every)
    period = RESIDUAL_REFRESH_EVERY * math.ceil(epoch / RESIDUAL_REFRESH_EVERY)
    tol_sq = config.tol * config.tol
    rng = PCG64Stream(config.seed)
    trace = ConvergenceTrace(natural=natural)
    history: list[float] = []

    def record(t: int, refresh: bool) -> TraceRecord:
        rec = TraceRecord(t, *checkpoint(refresh), 0.0)
        history.append(getattr(rec, natural))
        rec.bound = (rate ** t) * history[0]
        trace.append(rec)
        return rec

    record(0, False)
    t = 0
    while t < config.max_iters and math.isfinite(history[-1]):
        start = t
        end = min(config.max_iters, t - t % every + every)
        while t < end:
            k = min(end, t - t % RESIDUAL_REFRESH_EVERY + RESIDUAL_REFRESH_EVERY) - t
            advance(sampler.draw_block(rng, k))
            t += k
        rec = record(t, t // period > start // period)
        if tol_on is not None and getattr(rec, tol_on) <= tol_sq:
            break
        if plateau and _plateaued(history, window):
            break
    trace.converged = tol_on is None or getattr(trace.final(), tol_on) <= tol_sq
    return trace


def sweeps(indices: np.ndarray, k: int) -> Sequence[np.ndarray]:
    """A draw block cut, in order, into runs of at most k indices."""
    if len(indices) <= k:
        return (indices,)
    return [indices[start:start + k] for start in range(0, len(indices), k)]


def dual_advance(length, min_k, steps, sweep):
    """The `advance` of a loop on rows or columns of X of `length`
    entries: `sweeps` cuts each draw block into runs of k =
    min(SWEEP_STEPS, SWEEP_ELEMS // length) indices, and sweep(J) takes
    a run of at least min_k indices (SWEEP_MIN_STEPS rows or
    COLUMN_SWEEP_MIN_STEPS columns), steps(J) a shorter one, or every run
    where k is below min_k."""
    k = min(SWEEP_STEPS, SWEEP_ELEMS // max(length, 1))
    if k < min_k:
        return steps

    def advance(indices):
        for J in sweeps(indices, k):
            (sweep if len(J) >= min_k else steps)(J)

    return advance


def dual_sweep(J, G, b, lam, alpha, coord="row"):
    """k coordinate steps on indices J = (j_1, ..., j_k) of (M + lam I)
    alpha = c, in order and in place, as one forward Gauss-Seidel sweep,
    returning the steps delta: for rk and rk-ridge M = X X^T, for rk-krr
    M = K, and for rcd and rcd-ridge (coord "column") M = X^T X, c = X^T y
    and beta for alpha. G is M[J, J] and b = c_J - M_J alpha at the start.

    Step t, on j = j_t, is delta_t = (c_j - M_j alpha - lam alpha_j) /
    (M_jj + lam), and sees the earlier steps u < t only through
    G[t, u] + lam [j_t = j_u]: delta solves that lower triangle for
    b - lam alpha_J, in one LAPACK solve. Then alpha_J += delta (a
    repeated index adds its deltas in order; rk's alpha is None at lam = 0),
    and the caller updates the vector its loop keeps from delta: beta +=
    delta X_J for rows of X, r -= delta X_J^T for columns, y - K alpha on
    the rows it has stepped for rk-krr. That is the steps' iterate up to
    rounding. A pivot <= 0 is a zero-norm row or column at lam = 0. A non-finite triangle gives NaN
    steps, as forward substitution would; LAPACK would skip the entry
    next to a zero step, or call the triangle singular.
    """
    T = (G + lam * (J[:, None] == J) if lam else G) * _tri(len(J))
    pivots = T.diagonal()
    if np.isfinite(T).all() and pivots.min() > 0.0:
        delta = np.linalg.solve(T, b - lam * alpha[J] if lam else b)
    else:
        zero = pivots <= 0.0  # a NaN pivot is no zero norm
        if zero.any():
            error = ZeroNormColumn if coord == "column" else ZeroNormRow
            raise error(f"{coord} {J[zero.argmax()]} has zero norm")
        delta = np.full(len(J), np.nan)
    if alpha is not None:
        np.add.at(alpha, J, delta)
    return delta


def _measures(X, y, beta, reference, lam, alpha=None, alpha_star=None):
    """A checkpoint's (err_sq, energy_err_sq, residual_sq) and y - X beta,
    from one n-vector: X v for v = beta - reference, energy ||X v||^2 plus
    lam ||v||^2 only at lam > 0 (an overflowed ||v||^2 stays inf, not
    0 * inf), or w = alpha - alpha_star, energy ||X^T w||^2 + lam ||w||^2."""
    v = beta - reference
    err = float(v @ v)
    if alpha_star is None:
        work = X @ v
        energy = float(work @ work) + (lam * err if lam else 0.0)
    else:
        work = alpha - alpha_star
        xtw = X.T @ work
        energy = float(xtw @ xtw) + lam * float(work @ work)
    res = np.subtract(y, np.matmul(X, beta, out=work), out=work)
    return (err, energy, float(res @ res)), res


# The step loops below, for runs too short to sweep, call ndarray.dot
# (the BLAS ddot of the steps' `@`, with less call overhead) and scale
# into a scratch buffer: the same operations on the same operands, so
# the bits of the *_step functions, and at lam = 0, where the lam terms
# are exact zeros, of rk_step and rcd_step.


def row_descent(X, y, lam, sampler, config, reference, rate, alpha_star=None, beta0=None, **stop):
    """Coordinate descent on the dual system (X X^T + lam I) alpha = y
    for lam >= 0: rk at lam = 0, rk-ridge at lam > 0.

    Starts from alpha = 0 and beta = beta0 (zero if None) and keeps
    beta = beta0 + X^T alpha. The step on row i is
    delta = (y_i - x_i.beta - lam alpha_i) / (||x_i||^2 + lam), then
    alpha_i += delta and beta += delta x_i, taken as `dual_advance`
    decides for rows of p entries and sweeps of SWEEP_MIN_STEPS rows or
    more; a row stepped singly keeps its ||x_i||^2 + lam from its first
    step. Runs `drive` with the stop rule `stop` and `_measures` against
    `reference` and rk-ridge's `alpha_star`. At lam = 0 alpha is None and
    the natural column err_sq, at lam > 0 energy_err_sq.
    """
    if y.shape[0] != X.shape[0]:
        raise DimensionError(f"y has length {y.shape[0]}, X has {X.shape[0]} rows")
    beta = np.zeros(X.shape[1]) if beta0 is None else np.array(beta0, np.float64)
    alpha = np.zeros(X.shape[0]) if lam else None
    scaled = np.empty_like(beta)
    norms = {}  # ||x_i||^2 + lam of each row stepped singly, from its first step

    def steps(rows):
        nonlocal beta
        for row in rows.tolist():
            xr = X[row]
            nrm = norms.get(row)
            if nrm is None:
                nrm = norms[row] = xr.dot(xr) + lam
            if nrm <= 0.0:
                raise ZeroNormRow(f"row {row} has zero norm")
            delta = (y[row] - xr.dot(beta) - (lam * alpha[row] if lam else 0.0)) / nrm
            if lam:
                alpha[row] += delta
            beta += np.multiply(xr, delta, out=scaled)

    def sweep(J):
        nonlocal beta
        XJ = X[J]
        beta += dual_sweep(J, XJ @ XJ.T, y[J] - XJ @ beta, lam, alpha) @ XJ

    loop = dual_advance(X.shape[1], SWEEP_MIN_STEPS, steps, sweep)
    return drive(sampler, config, loop,
                 lambda _: _measures(X, y, beta, reference, lam, alpha, alpha_star)[0],
                 rate, "energy_err_sq" if lam else "err_sq", **stop)


def column_descent(X, y, lam, sampler, config, reference, rate, beta0=None, **stop):
    """Coordinate descent on the primal system (X^T X + lam I) beta = X^T y
    for lam >= 0: rcd at lam = 0, rcd-ridge at lam > 0.

    Starts from beta = beta0 (zero if None) and keeps r = y - X beta,
    rebuilt to cap drift at the checkpoints `drive` asks to (the first at
    or after every 1000 steps up to p = 1000, about once an epoch beyond)
    as the y - X beta their `_measures` against `reference` formed.
    The step on column c is delta = (x_c.r - lam beta_c) / (||x_c||^2 +
    lam), then beta_c += delta and r -= delta x_c, taken as `dual_advance`
    decides for columns of n entries and sweeps of COLUMN_SWEEP_MIN_STEPS
    columns or more. Runs `drive` with the stop rule `stop`; natural column energy_err_sq.
    """
    if y.shape[0] != X.shape[0]:
        raise DimensionError(f"y has length {y.shape[0]}, X has {X.shape[0]} rows")
    beta = np.zeros(X.shape[1]) if beta0 is None else np.array(beta0, np.float64)
    residual = y - X @ beta
    columns = list(X.T)
    norms = [float(xc @ xc) + lam for xc in columns]
    scaled = np.empty_like(residual)

    def steps(cols):
        nonlocal residual
        coords = beta.tolist()  # a list: faster to index per step
        for col in cols.tolist():
            nrm = norms[col]
            if nrm <= 0.0:
                raise ZeroNormColumn(f"column {col} has zero norm")
            xc = columns[col]
            delta = (xc.dot(residual) - lam * coords[col]) / nrm
            coords[col] += delta
            residual -= np.multiply(xc, delta, out=scaled)
        beta[:] = coords

    def sweep(J):
        nonlocal residual
        XJ = X.T[J]  # the columns J, as rows
        residual -= dual_sweep(J, XJ @ XJ.T, XJ @ residual, lam, beta, "column") @ XJ

    def checkpoint(refresh):
        nonlocal residual
        measured, res = _measures(X, y, beta, reference, lam)
        if refresh:
            residual = res
        return measured

    loop = dual_advance(X.shape[0], COLUMN_SWEEP_MIN_STEPS, steps, sweep)
    return drive(sampler, config, loop, checkpoint, rate, "energy_err_sq", **stop)


def run(
    method: str,
    X: np.ndarray,
    y: np.ndarray,
    regime: Regime,
    config: RunConfig,
    reference: np.ndarray,
    rate: float,
    beta0: np.ndarray | None = None,
) -> ConvergenceTrace:
    """Run `method`, "rk" or "rcd", on X and y from beta0 (zero if None).

    `reference` is the regime's target (beta*, beta_LS or beta_MN) from
    the oracle; `rate` is the theoretical per-iteration contraction
    factor 1 - sigma_min / trace of the relevant covariance. err_sq is
    the squared Euclidean error, energy_err_sq the squared error of
    fitted values ||X (beta - reference)||^2, and `bound` the rate^t
    envelope on the method's natural error (Euclidean for RK, energy
    for RCD). `regime` sets the stop rule: consistent and underdetermined
    runs stop at the first checkpoint with residual_sq <= tol^2, inconsistent
    ones at a plateau; UNKNOWN ones run to max_iters, counted as converged.
    """
    if method == "rk":
        norms, descent = linalg.row_norms_sq, row_descent
    elif method == "rcd":
        norms, descent = linalg.col_norms_sq, column_descent
    else:
        raise ValueError(f"unknown method {method!r}: expected 'rk' or 'rcd'")
    sampler = build_sampler(norms(X))  # unnamed: only their cumulative sums stay
    consistent = regime in (Regime.CONSISTENT_UNIQUE, Regime.UNDERDETERMINED)
    return descent(X, y, 0.0, sampler, config, reference, rate, beta0=beta0,
                   tol_on="residual_sq" if consistent else None,
                   plateau=regime == Regime.INCONSISTENT)
