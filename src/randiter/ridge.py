"""Matrix-free ridge regression solvers for
beta_RR = (X^T X + lambda I)^-1 X^T y.

rk_ridge runs the row loop of solvers.py (coordinate descent on the
dual system (X X^T + lambda I) alpha = y, keeping beta = X^T alpha;
O(p) per step) and rcd_ridge its column loop (coordinate descent on the
primal system (X^T X + lambda I) beta = X^T y, keeping r = y - X beta;
O(n) per step), both at lambda > 0. This module chooses their sampling
weights, checkpoint measures and stop rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .sampling import RngState, build_sampler
from .solvers import ConvergenceTrace, RunConfig, column_descent, row_descent


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
    """One primal coordinate action in delta form; keeps r = y - X beta."""
    xc = X[:, col]
    delta = (float(xc @ state.residual) - state.lam * state.beta[col]) / (
        float(xc @ xc) + state.lam
    )
    state.beta[col] += delta
    state.residual -= delta * xc
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
    if config.beta0 is not None:
        raise ValueError("rk_ridge starts from alpha = 0 and takes no beta0")
    sampler = build_sampler(rk_ridge_weights(X, lam))

    def measures(beta, alpha):
        dbeta = beta - reference_beta
        v = alpha - alpha_star
        xtv = X.T @ v
        res = y - X @ beta
        return float(dbeta @ dbeta), float(xtv @ xtv) + lam * float(v @ v), float(res @ res)

    return row_descent(X, y, lam, sampler, config, measures, rate, "energy_err_sq",
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
    sampler = build_sampler(rcd_ridge_weights(X, lam))

    def measures(beta):
        v = beta - reference_beta
        xv = X @ v
        res = y - X @ beta
        return float(v @ v), float(xv @ xv) + lam * float(v @ v), float(res @ res)

    return column_descent(X, y, lam, sampler, config, measures, rate,
                          "energy_err_sq", tol_on="energy_err_sq", plateau=True)
