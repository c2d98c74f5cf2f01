"""Matrix-free ridge regression solvers.

Two routes to beta_RR = (X^T X + lambda I)^-1 X^T y:

* rk_ridge: a row-action method on the dual system
  (X X^T + lambda I) alpha = y, keeping beta = X^T alpha up to date so
  each step costs O(p). It is exactly a coordinate-descent step on that
  positive-definite system.
* rcd_ridge: a column-action method on the primal normal equations
  (X^T X + lambda I) beta = X^T y, written in shrinkage form; each step
  costs O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .sampling import RngState, build_sampler
from .solvers import ConvergenceTrace, RunConfig, columns_and_norms, drive


@dataclass
class RidgeState:
    """Dual/primal pair for rk_ridge; beta = X^T alpha throughout when
    started from zeros."""

    alpha: np.ndarray
    beta: np.ndarray
    iter: int
    rng: RngState
    lam: float


@dataclass
class RcdRidgeState:
    """Primal iterate plus maintained residual r = y - X beta."""

    beta: np.ndarray
    residual: np.ndarray
    iter: int
    rng: RngState
    lam: float


def shrink(a: float, z: float) -> float:
    """Shrinkage S_a(z) = z / (1 + a)."""
    if a < 0.0:
        raise ValueError("shrinkage parameter must be nonnegative")
    return z / (1.0 + a)


def rk_ridge_step(state: RidgeState, X: np.ndarray, y: np.ndarray, row: int) -> RidgeState:
    """One dual row action; updates alpha[row] and beta by the same delta."""
    xr = X[row]
    delta = (y[row] - float(state.beta @ xr) - state.lam * state.alpha[row]) / (
        float(xr @ xr) + state.lam
    )
    state.alpha[row] += delta
    state.beta += delta * xr
    state.iter += 1
    return state


def rcd_ridge_step(state: RcdRidgeState, X: np.ndarray, y: np.ndarray, col: int) -> RcdRidgeState:
    """One primal coordinate action in shrinkage form; keeps r = y - X beta."""
    xc = X[:, col]
    nrm = float(xc @ xc)
    lam = state.lam
    new = (nrm * state.beta[col] + float(xc @ state.residual)) / (nrm + lam)
    diff = new - state.beta[col]
    state.beta[col] = new
    state.residual -= diff * xc
    state.iter += 1
    return state


def rk_ridge_weights(X: np.ndarray, lam: float) -> np.ndarray:
    """Row sampling weights ||X^i||^2 + lambda, precomputed in one pass."""
    return linalg.row_norms_sq(X) + lam


def rcd_ridge_weights(X: np.ndarray, lam: float) -> np.ndarray:
    """Column sampling weights ||X_j||^2 + lambda."""
    return linalg.col_norms_sq(X) + lam


def _check_lambda(lam: float) -> None:
    if not lam > 0.0:
        raise ValueError("ridge solvers require lambda > 0; use the basic solvers instead")


def _rk_ridge_steps(rows: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float,
                    alpha: np.ndarray, beta: np.ndarray) -> None:
    """rk_ridge_step for each row in turn, inline (see solvers._rk_steps
    on ndarray.dot and the scratch buffer)."""
    scaled = np.empty_like(beta)
    for row in rows.tolist():
        xr = X[row]
        delta = (y[row] - beta.dot(xr) - lam * alpha[row]) / (xr.dot(xr) + lam)
        alpha[row] += delta
        beta += np.multiply(xr, delta, out=scaled)


def _rcd_ridge_steps(cols: np.ndarray, columns: list, norms: list, lam: float,
                     beta: np.ndarray, residual: np.ndarray) -> None:
    """rcd_ridge_step for each column in turn, inline, with the columns
    of X and their squared norms xc @ xc given."""
    scaled = np.empty_like(residual)
    for col in cols.tolist():
        xc = columns[col]
        nrm = norms[col]
        new = (nrm * beta[col] + xc.dot(residual)) / (nrm + lam)
        diff = new - beta[col]
        beta[col] = new
        residual -= np.multiply(xc, diff, out=scaled)


def rk_ridge_run(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    config: RunConfig,
    reference_beta: np.ndarray,
    alpha_star: np.ndarray,
    rate: float,
) -> ConvergenceTrace:
    """Run rk_ridge from zeros; trace errors against the oracle targets.

    err_sq is ||beta - beta_RR||^2; energy_err_sq is the dual error in
    the (X X^T + lambda I) norm, computed matrix-free as
    ||X^T v||^2 + lambda ||v||^2 for v = alpha - alpha_star. The run
    stops at the first checkpoint with energy_err_sq <= tol^2, at a
    plateau, or at max_iters.
    """
    _check_lambda(lam)
    n, p = X.shape
    sampler = build_sampler(rk_ridge_weights(X, lam))
    alpha, beta = np.zeros(n), np.zeros(p)

    def advance(rows):
        _rk_ridge_steps(rows, X, y, lam, alpha, beta)

    def checkpoint():
        dbeta = beta - reference_beta
        v = alpha - alpha_star
        xtv = X.T @ v
        res = y - X @ beta
        return float(dbeta @ dbeta), float(xtv @ xtv) + lam * float(v @ v), float(res @ res)

    return drive(sampler, config, n, advance, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True)


def rcd_ridge_run(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    config: RunConfig,
    reference_beta: np.ndarray,
    rate: float,
) -> ConvergenceTrace:
    """Run rcd_ridge; energy_err_sq is the (Sigma + lambda I)-norm error
    ||X v||^2 + lambda ||v||^2 for v = beta - beta_RR. Stops as
    rk_ridge_run does."""
    _check_lambda(lam)
    n, p = X.shape
    sampler = build_sampler(rcd_ridge_weights(X, lam))
    beta = np.zeros(p) if config.beta0 is None else config.beta0.astype(np.float64).copy()
    residual = y - X @ beta
    columns, norms = columns_and_norms(X)

    def advance(cols):
        _rcd_ridge_steps(cols, columns, norms, lam, beta, residual)

    def refresh():
        residual[:] = y - X @ beta

    def checkpoint():
        v = beta - reference_beta
        xv = X @ v
        res = y - X @ beta
        return float(v @ v), float(xv @ xv) + lam * float(v @ v), float(res @ res)

    return drive(sampler, config, p, advance, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True, refresh=refresh)
