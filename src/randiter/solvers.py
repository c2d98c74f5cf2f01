"""Randomized Kaczmarz (RK) and randomized coordinate descent (RCD).

A row method is coordinate descent on the dual system
(X X^T + lam I) alpha = y, a column method on the primal system
(X^T X + lam I) beta = X^T y. `row_descent` and `column_descent` are
these two loops for lam >= 0: RK and RCD at lam = 0, rk-ridge and
rcd-ridge (ridge.py) at lam > 0. A row step costs O(p), a column step
O(n). The driver that every method's run shares (`drive`) samples
indices a block at a time, with probability proportional to squared
row/column norms (plus lam), hands each block to the method's loop,
and records a convergence trace at checkpoints.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, ZeroNormColumn, ZeroNormRow
from .sampling import WeightedSampler, build_sampler

# The column loop maintains r = y - X beta and rk-krr s = K alpha
# incrementally; rebuilding them this often caps floating-point drift
# so per-step optimality stays testable. The driver's draw blocks end
# at its multiples, so they never hold more indices than this.
RESIDUAL_REFRESH_EVERY = 1000

# Plateau detector for regimes with an error floor: stop when the
# relative err_sq change between consecutive checkpoints stays below
# this across PLATEAU_WINDOW checkpoints, or across PLATEAU_WINDOW
# epochs (n or p steps) if checkpoints come more often than once an
# epoch: a few steps that revisit already solved rows change nothing.
PLATEAU_REL_CHANGE = 1e-6
PLATEAU_WINDOW = 5


class Regime(enum.Enum):
    CONSISTENT_UNIQUE = "consistent"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"
    UNKNOWN = "unknown"


class Method(enum.Enum):
    RK = "rk"
    RCD = "rcd"


@dataclass
class Problem:
    """One regression instance: X (n x p), observations y (length n)."""

    X: np.ndarray
    y: np.ndarray
    regime: Regime = Regime.UNKNOWN

    def __post_init__(self):
        if self.y.shape[0] != self.X.shape[0]:
            raise DimensionError(
                f"y has length {self.y.shape[0]}, X has {self.X.shape[0]} rows"
            )


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
    """Driver knobs shared by every solver run."""

    max_iters: int
    tol: float = 1e-12
    seed: int = 0
    checkpoint_every: int | None = None  # default: one epoch (n or p)
    beta0: np.ndarray | None = None  # default: zero vector


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
    checkpoint: Callable[[], tuple[float, float, float]],
    rate: float,
    natural: str,
    tol_on: str | None,
    plateau: bool,
    refresh: Callable[[], None] | None = None,
) -> ConvergenceTrace:
    """The checkpoint and stop loop that every method's run shares.

    Steps t = 1..max_iters draw their indices from `sampler` with the
    seed config.seed, in blocks that end at multiples of
    RESIDUAL_REFRESH_EVERY and at checkpoints, and `advance(indices)`
    takes those steps in order. After step t, `refresh()` runs when t is
    a multiple of RESIDUAL_REFRESH_EVERY; then, when t is a multiple of the
    checkpoint cadence (config.checkpoint_every, else one epoch of
    len(sampler) steps) or t = max_iters, a checkpoint is recorded.
    `checkpoint()` returns (err_sq, energy_err_sq, residual_sq) of the
    current iterate, and the record's bound is rate^t times the initial
    value of the `natural` column. The run stops at the first checkpoint
    where the natural column is not finite, where the `tol_on` column is
    <= tol^2 (if tol_on is given) or, with `plateau`, where the natural
    column has plateaued over the last PLATEAU_WINDOW checkpoints, or the
    last PLATEAU_WINDOW epochs if those hold more. The trace records
    `natural` and whether the run converged: it did if tol_on is None,
    else if its final tol_on column is <= tol^2.
    """
    epoch = len(sampler)
    every = config.checkpoint_every or epoch
    if every < 1:
        raise ValueError("checkpoint_every must be positive")
    window = PLATEAU_WINDOW * math.ceil(epoch / every)
    tol_sq = config.tol * config.tol
    rng = np.random.Generator(np.random.PCG64(config.seed))
    trace = ConvergenceTrace(natural=natural)
    history: list[float] = []

    def record(t: int) -> TraceRecord:
        rec = TraceRecord(t, *checkpoint(), 0.0)
        history.append(getattr(rec, natural))
        rec.bound = (rate ** t) * history[0]
        trace.append(rec)
        return rec

    record(0)
    t = 0
    while t < config.max_iters and math.isfinite(history[-1]):
        end = min(config.max_iters, t - t % every + every)
        while t < end:
            k = min(end, t - t % RESIDUAL_REFRESH_EVERY + RESIDUAL_REFRESH_EVERY) - t
            advance(sampler.draw_block(rng, k))
            t += k
            if refresh is not None and t % RESIDUAL_REFRESH_EVERY == 0:
                refresh()
        rec = record(t)
        if tol_on is not None and getattr(rec, tol_on) <= tol_sq:
            break
        if plateau and _plateaued(history, window):
            break
    trace.converged = tol_on is None or getattr(trace.final(), tol_on) <= tol_sq
    return trace


# The two loops below call ndarray.dot, which reaches the same BLAS
# ddot as the steps' `@` with less call overhead, and scale a row or
# column into a scratch buffer instead of a new array: the same
# operations on the same operands, so the same bits as the *_step
# functions. At lam = 0 the lam terms are exact zeros, so rk and rcd
# get the bits of rk_step and rcd_step.


def row_descent(X, y, lam, sampler, config, measures, rate, natural, **stop):
    """Coordinate descent on the dual system (X X^T + lam I) alpha = y
    for lam >= 0: rk at lam = 0, rk-ridge at lam > 0.

    Starts from alpha = 0 and beta = config.beta0 (zero if None) and keeps
    beta = beta0 + X^T alpha. The step on row i is
    delta = (y_i - x_i.beta - lam alpha_i) / (||x_i||^2 + lam), then
    alpha_i += delta and beta += delta x_i. Runs `drive` with
    checkpoint measures(beta, alpha) and the stop rule `stop`.
    """
    beta = np.zeros(X.shape[1]) if config.beta0 is None else np.array(config.beta0, np.float64)
    alpha = np.zeros(X.shape[0])
    scaled = np.empty_like(beta)

    def advance(rows):
        nonlocal beta
        for row in rows.tolist():
            xr = X[row]
            nrm = xr.dot(xr) + lam
            if nrm <= 0.0:
                raise ZeroNormRow(f"row {row} has zero norm")
            delta = (y[row] - xr.dot(beta) - lam * alpha[row]) / nrm
            alpha[row] += delta
            beta += np.multiply(xr, delta, out=scaled)

    return drive(sampler, config, advance, lambda: measures(beta, alpha), rate, natural, **stop)


def column_descent(X, y, lam, sampler, config, measures, rate, natural, **stop):
    """Coordinate descent on the primal system (X^T X + lam I) beta = X^T y
    for lam >= 0: rcd at lam = 0, rcd-ridge at lam > 0.

    Starts from beta = config.beta0 (zero if None) and keeps r = y - X beta,
    rebuilt every RESIDUAL_REFRESH_EVERY steps to cap drift. The step on
    column c is delta = (x_c.r - lam beta_c) / (||x_c||^2 + lam), then
    beta_c += delta and r -= delta x_c. Runs `drive` with checkpoint
    measures(beta) and the stop rule `stop`.
    """
    beta = np.zeros(X.shape[1]) if config.beta0 is None else np.array(config.beta0, np.float64)
    residual = y - X @ beta
    columns = list(X.T)
    norms = [float(xc @ xc) + lam for xc in columns]
    scaled = np.empty_like(residual)

    def advance(cols):
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

    def refresh():
        residual[:] = y - X @ beta

    return drive(sampler, config, advance, lambda: measures(beta), rate, natural,
                 refresh=refresh, **stop)


def run(
    method: Method,
    problem: Problem,
    config: RunConfig,
    reference: np.ndarray,
    rate: float,
) -> ConvergenceTrace:
    """Drive sampler-chosen steps and record a convergence trace.

    `reference` is the regime's target (beta*, beta_LS or beta_MN) from
    the oracle; `rate` is the theoretical per-iteration contraction
    factor 1 - sigma_min / trace of the relevant covariance. err_sq is
    the squared Euclidean error, energy_err_sq the squared error of
    fitted values ||X (beta - reference)||^2, and `bound` the rate^t
    envelope on the method's natural error (Euclidean for RK, energy
    for RCD). A consistent run stops at the first checkpoint with
    residual_sq <= tol^2, an inconsistent one at a plateau.
    """
    X, y = problem.X, problem.y
    if config.max_iters <= 0:
        raise ValueError("max_iters must be positive")

    if method == Method.RK:
        weights, descent, natural = linalg.row_norms_sq(X), row_descent, "err_sq"
    else:
        weights, descent, natural = linalg.col_norms_sq(X), column_descent, "energy_err_sq"
    sampler = build_sampler(weights)

    consistent = problem.regime in (Regime.CONSISTENT_UNIQUE, Regime.UNDERDETERMINED)

    def measures(beta, *_):
        diff = beta - reference
        fitted = X @ diff
        res = y - X @ beta
        return float(diff @ diff), float(fitted @ fitted), float(res @ res)

    return descent(X, y, 0.0, sampler, config, measures, rate, natural,
                   tol_on="residual_sq" if consistent else None,
                   plateau=problem.regime == Regime.INCONSISTENT)
