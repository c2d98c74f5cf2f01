"""Randomized Kaczmarz and Randomized Coordinate Descent.

Both methods are matrix-free: RK touches one row per step (O(p) work),
RCD one column per step (O(n) work). The driver that every method's
run shares (`drive`) samples indices a block at a time, with
probability proportional to squared row/column norms, hands each block
to the method's inner loop, and records a convergence trace at
checkpoints.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateWeights, DimensionError, ZeroNormColumn, ZeroNormRow
from .sampling import RngState, WeightedSampler, build_sampler

# RCD maintains its residual incrementally; a periodic rebuild caps
# floating-point drift so per-step optimality stays testable.
RESIDUAL_REFRESH_EVERY = 1000

# Plateau detector for regimes with an error floor: stop when the
# relative err_sq change between consecutive checkpoints stays below
# this across PLATEAU_WINDOW checkpoints, or across PLATEAU_WINDOW
# epochs (n or p steps) if checkpoints come more often than once an
# epoch: a few steps that revisit already solved rows change nothing.
PLATEAU_REL_CHANGE = 1e-6
PLATEAU_WINDOW = 5

# The driver draws at most this many indices at once, so its memory
# stays flat however long the run.
DRAW_BLOCK = 1024


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
class SolverState:
    """Mutable iterate for RK/RCD.

    RK does not maintain `residual` (a step needs only one row inner
    product); it is None there and recomputed at checkpoints. RCD keeps
    it incrementally up to date.
    """

    beta: np.ndarray
    residual: np.ndarray | None
    iter: int
    rng: RngState


@dataclass
class TraceRecord:
    iter: int
    err_sq: float
    energy_err_sq: float
    residual_sq: float
    bound: float


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)

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


def rk_step(state: SolverState, X: np.ndarray, y: np.ndarray, row: int) -> SolverState:
    """Project the iterate onto the hyperplane of one equation (row)."""
    xr = X[row]
    nrm = float(xr @ xr)
    if nrm <= 0.0:
        raise ZeroNormRow(f"row {row} has zero norm")
    delta = (y[row] - float(xr @ state.beta)) / nrm
    state.beta += delta * xr
    state.iter += 1
    return state


def rcd_step(state: SolverState, X: np.ndarray, y: np.ndarray, col: int) -> SolverState:
    """Exactly minimize the residual norm along one coordinate (column)."""
    xc = X[:, col]
    nrm = float(xc @ xc)
    if nrm <= 0.0:
        raise ZeroNormColumn(f"column {col} has zero norm")
    if state.residual is None:
        state.residual = y - X @ state.beta
    delta = float(xc @ state.residual) / nrm
    state.beta[col] += delta
    state.residual -= delta * xc
    state.iter += 1
    return state


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
    default_every: int,
    advance: Callable[[np.ndarray], None],
    checkpoint: Callable[[], tuple[float, float, float]],
    rate: float,
    natural: str,
    tol_on: str | None,
    plateau: bool,
    refresh: Callable[[], None] | None = None,
    refresh_every: int = RESIDUAL_REFRESH_EVERY,
) -> ConvergenceTrace:
    """The checkpoint and stop loop that every method's run shares.

    Steps t = 1..max_iters draw their indices from `sampler` with the
    seed config.seed, DRAW_BLOCK at a time at most, and `advance(indices)`
    takes those steps in order. After step t, `refresh()` runs when t is
    a multiple of refresh_every; then, when t is a multiple of the
    checkpoint cadence (config.checkpoint_every, else default_every) or
    t = max_iters, a checkpoint is recorded. `checkpoint()` returns
    (err_sq, energy_err_sq, residual_sq) of the current iterate, and the
    record's bound is rate^t times the initial value of the `natural`
    column. The run stops at the first checkpoint where the natural
    column is not finite, where the `tol_on` column is <= tol^2 (if
    tol_on is given) or, with `plateau`, where the natural column has
    plateaued over the last PLATEAU_WINDOW checkpoints, or the last
    PLATEAU_WINDOW epochs of default_every steps if those hold more.
    """
    every = config.checkpoint_every or default_every
    if every < 1:
        raise ValueError("checkpoint_every must be positive")
    window = PLATEAU_WINDOW * math.ceil(default_every / every)
    tol_sq = config.tol * config.tol
    rng = RngState(config.seed)
    trace = ConvergenceTrace()
    history: list[float] = []
    initial = 0.0

    def record(t: int) -> TraceRecord:
        nonlocal initial
        rec = TraceRecord(t, *checkpoint(), 0.0)
        value = getattr(rec, natural)
        if t == 0:
            initial = value
        rec.bound = (rate ** t) * initial
        trace.append(rec)
        history.append(value)
        return rec

    record(0)
    t = 0
    while t < config.max_iters and math.isfinite(history[-1]):
        end = min(config.max_iters, t - t % every + every)
        while t < end:
            k = min(end - t, DRAW_BLOCK)
            if refresh is not None:
                k = min(k, refresh_every - t % refresh_every)
            advance(sampler.draw_block(rng, k))
            t += k
            if refresh is not None and t % refresh_every == 0:
                refresh()
        rec = record(t)
        if tol_on is not None and getattr(rec, tol_on) <= tol_sq:
            break
        if plateau and _plateaued(history, window):
            break
    return trace


# The inline loops below call ndarray.dot, which reaches the same BLAS
# ddot as the steps' `@` with less call overhead, and scale a row or
# column into a scratch buffer instead of a new array: the same
# operations on the same operands, so the same bits as the *_step
# functions.


def _rk_steps(rows: np.ndarray, X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> None:
    """rk_step for each row in turn, inline."""
    scaled = np.empty_like(beta)
    for row in rows.tolist():
        xr = X[row]
        nrm = xr.dot(xr)
        if nrm <= 0.0:
            raise ZeroNormRow(f"row {row} has zero norm")
        beta += np.multiply(xr, (y[row] - xr.dot(beta)) / nrm, out=scaled)


def _rcd_steps(cols: np.ndarray, columns: list, norms: list, beta: np.ndarray,
               residual: np.ndarray) -> None:
    """rcd_step for each column in turn, inline, with the columns of X
    and their squared norms xc @ xc given."""
    scaled = np.empty_like(residual)
    for col in cols.tolist():
        xc = columns[col]
        nrm = norms[col]
        if nrm <= 0.0:
            raise ZeroNormColumn(f"column {col} has zero norm")
        delta = xc.dot(residual) / nrm
        beta[col] += delta
        residual -= np.multiply(xc, delta, out=scaled)


def columns_and_norms(X: np.ndarray) -> tuple[list, list]:
    """The columns of X as views, and each one's xc @ xc, the dot that
    the column steps use."""
    columns = list(X.T)
    return columns, [float(xc @ xc) for xc in columns]


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
    n, p = X.shape
    if config.max_iters <= 0:
        raise ValueError("max_iters must be positive")

    if method == Method.RK:
        weights = linalg.row_norms_sq(X)
    else:
        weights = linalg.col_norms_sq(X)
    if float(np.sum(weights)) <= 0.0:
        raise DegenerateWeights("matrix is entirely zero")
    sampler = build_sampler(weights)

    beta = np.zeros(p) if config.beta0 is None else config.beta0.astype(np.float64).copy()
    consistent = problem.regime in (Regime.CONSISTENT_UNIQUE, Regime.UNDERDETERMINED)

    def checkpoint():
        diff = beta - reference
        fitted = X @ diff
        res = y - X @ beta
        return float(diff @ diff), float(fitted @ fitted), float(res @ res)

    if method == Method.RK:
        every, natural, refresh = n, "err_sq", None

        def advance(rows):
            _rk_steps(rows, X, y, beta)
    else:
        every, natural = p, "energy_err_sq"
        columns, norms = columns_and_norms(X)
        residual = y - X @ beta

        def advance(cols):
            _rcd_steps(cols, columns, norms, beta, residual)

        def refresh():
            residual[:] = y - X @ beta

    return drive(sampler, config, every, advance, checkpoint, rate, natural,
                 tol_on="residual_sq" if consistent else None,
                 plateau=problem.regime == Regime.INCONSISTENT, refresh=refresh)
