"""Matrix-free ridge regression solvers for
beta_RR = (X^T X + lambda I)^-1 X^T y.

rk_ridge runs the row loop of solvers.py (coordinate descent on the
dual system (X X^T + lambda I) alpha = y, keeping beta = X^T alpha;
O(p) per step) and rcd_ridge its column loop (coordinate descent on the
primal system (X^T X + lambda I) beta = X^T y, keeping r = y - X beta;
O(n) per step), both at lambda > 0. This module chooses their sampling
weights, targets and stop rule.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .sampling import build_sampler
from .solvers import ConvergenceTrace, RunConfig, column_descent, row_descent


def rk_ridge_step(alpha: np.ndarray, beta: np.ndarray, X: np.ndarray, y: np.ndarray,
                  lam: float, row: int) -> None:
    """One dual row action, in place: alpha[row] and beta move by the
    same delta, so beta = X^T alpha holds throughout from zeros."""
    xr = X[row]
    delta = (y[row] - float(beta @ xr) - lam * alpha[row]) / (float(xr @ xr) + lam)
    alpha[row] += delta
    beta += delta * xr


def rcd_ridge_step(beta: np.ndarray, residual: np.ndarray, X: np.ndarray, lam: float,
                   col: int) -> None:
    """One primal coordinate action in delta form, in place; residual =
    y - X beta before and after."""
    xc = X[:, col]
    delta = (float(xc @ residual) - lam * beta[col]) / (float(xc @ xc) + lam)
    beta[col] += delta
    residual -= delta * xc


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
    sampler = build_sampler(linalg.row_norms_sq(X) + lam)
    return row_descent(X, y, lam, sampler, config, reference_beta, rate, alpha_star,
                       tol_on="energy_err_sq", plateau=True)


def rcd_ridge_run(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    config: RunConfig,
    reference_beta: np.ndarray,
    rate: float,
    beta0: np.ndarray | None = None,
) -> ConvergenceTrace:
    """Run rcd_ridge from beta0 (zero if None); energy_err_sq is the
    (Sigma + lambda I)-norm error ||X v||^2 + lambda ||v||^2 for
    v = beta - beta_RR. Stops as rk_ridge_run does."""
    _check_lambda(lam)
    sampler = build_sampler(linalg.col_norms_sq(X) + lam)
    return column_descent(X, y, lam, sampler, config, reference_beta, rate, beta0,
                          tol_on="energy_err_sq", plateau=True)
