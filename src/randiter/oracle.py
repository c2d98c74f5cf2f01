"""Closed-form references, theoretical rates, and problem generators.

This is the only module allowed to form X^T X, X X^T, or the kernel
gram matrix explicitly; everything here is desk scale and exists to
check the matrix-free solvers against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel as kern
from . import linalg
from .errors import DegenerateMatrix, GenerationFailure, OracleInconsistency
from .solvers import Problem, Regime

RIDGE_FORM_TOL = 1e-8
RANK_TOL = 1e-8  # minimum singular value for generated instances
POSITIVE_EIG_REL_TOL = 1e-10  # sigma_min^+ cutoff relative to ||M||_F
NOISE_SCALE_DEFAULT = 0.5
MAX_GENERATION_RETRIES = 10


@dataclass
class RegimeInstance:
    """A generated problem plus the closed-form target it converges to."""

    problem: Problem
    reference: np.ndarray
    z: np.ndarray | None = None  # inconsistency component, X^T z = 0


def gram(X: np.ndarray) -> np.ndarray:
    """Covariance Sigma = X^T X (p x p)."""
    return X.T @ X


def outer_gram(X: np.ndarray) -> np.ndarray:
    """X X^T (n x n)."""
    return X @ X.T


def ls_solution(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """beta_LS = (X^T X)^-1 X^T y; requires full column rank."""
    return linalg.solve_spd(gram(X), X.T @ y)


def min_norm_solution(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """beta_MN = X^T (X X^T)^-1 y; requires full row rank."""
    return X.T @ linalg.solve_spd(outer_gram(X), y)


def ridge_solution(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """beta_RR via both closed forms, cross-checked before returning."""
    if not lam > 0.0:
        raise ValueError("ridge_solution requires lambda > 0")
    primal = linalg.solve_spd(gram(X) + lam * np.eye(X.shape[1]), X.T @ y)
    dual = X.T @ ridge_alpha_star(X, y, lam)
    scale = 1.0 + float(np.max(np.abs(primal)))
    if float(np.max(np.abs(primal - dual))) > RIDGE_FORM_TOL * scale:
        raise OracleInconsistency("primal and dual ridge closed forms disagree")
    return primal


def ridge_alpha_star(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Dual target alpha* = (X X^T + lambda I)^-1 y."""
    n = X.shape[0]
    return linalg.solve_spd(outer_gram(X) + lam * np.eye(n), y)


def gram_matrix(spec: kern.KernelSpec, data: np.ndarray) -> np.ndarray:
    """Explicit kernel gram matrix K (desk scale only)."""
    n = data.shape[0]
    K = np.empty((n, n))
    for j in range(n):
        K[:, j] = kern.kernel_column(spec, data, data[j])
    return 0.5 * (K + K.T)


def krr_alpha_star(data: np.ndarray, y: np.ndarray, spec: kern.KernelSpec, lam: float,
                   K: np.ndarray | None = None) -> np.ndarray:
    """alpha* = (K + lambda I)^-1 y with K formed explicitly, unless the
    caller passes gram_matrix(spec, data) as K."""
    if not lam > 0.0:
        raise ValueError("krr_alpha_star requires lambda > 0")
    if K is None:
        K = gram_matrix(spec, data)
    return linalg.solve_spd(K + lam * np.eye(data.shape[0]), y)


def theoretical_rate(M: np.ndarray, positive_only: bool = False) -> float:
    """Per-iteration contraction bound 1 - sigma_min(M) / trace(M).

    With positive_only, sigma_min^+ (smallest eigenvalue above
    POSITIVE_EIG_REL_TOL * ||M||_F) is used, for rank-deficient M.
    """
    eigs = linalg.sym_eigs(M)
    tr = float(np.sum(eigs))
    if tr <= 0.0:
        raise DegenerateMatrix("theoretical_rate needs a positive trace")
    if positive_only:
        cutoff = POSITIVE_EIG_REL_TOL * math.sqrt(linalg.frobenius_sq(M))
        positive = eigs[eigs > cutoff]
        if positive.size == 0:
            raise DegenerateMatrix("no eigenvalue above the positive-part cutoff")
        smallest = float(positive[0])
    else:
        smallest = float(eigs[0])
    return 1.0 - smallest / tr


def null_space_basis(X: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning null(X): right singular vectors with
    singular value at most RANK_TOL * max(sigma_max, 1). Not from X^T X,
    whose zero eigenvalues round to ~eps * ||X^T X||, above RANK_TOL^2."""
    _, s, vt = np.linalg.svd(X)
    rank = int(np.sum(s > RANK_TOL * max(float(s[0]), 1.0)))
    return vt[rank:].T


def null_space_leakage(X: np.ndarray, v: np.ndarray, basis: np.ndarray | None = None) -> float:
    """Norm of the component of v inside null(X)."""
    B = null_space_basis(X) if basis is None else basis
    if B.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(B.T @ v))


def _min_singular_value(X: np.ndarray) -> float:
    n, p = X.shape
    G = gram(X) if p <= n else outer_gram(X)
    smallest = float(linalg.sym_eigs(G)[0])
    return math.sqrt(max(smallest, 0.0))


def _full_rank_matrix(n: int, p: int, seed: int) -> np.ndarray:
    for attempt in range(MAX_GENERATION_RETRIES):
        rng = np.random.Generator(np.random.PCG64(seed + attempt))
        X = linalg.dense_matrix(rng.standard_normal((n, p)))
        if _min_singular_value(X) > RANK_TOL:
            return X
    raise GenerationFailure(f"no full-rank {n}x{p} matrix after {MAX_GENERATION_RETRIES} tries")


def gen_consistent(n: int, p: int, seed: int) -> RegimeInstance:
    """n > p instance with a planted exact solution."""
    if n <= p:
        raise ValueError("consistent regime requires n > p")
    X = _full_rank_matrix(n, p, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1_000_003))
    beta_star = rng.standard_normal(p)
    y = X @ beta_star
    return RegimeInstance(Problem(X, y, Regime.CONSISTENT_UNIQUE), beta_star)


def gen_inconsistent(n: int, p: int, noise_scale: float, seed: int) -> RegimeInstance:
    """n > p instance with y = X beta_LS + z, X^T z = 0, ||z|| = noise_scale."""
    if n <= p:
        raise ValueError("inconsistent regime requires n > p")
    if not noise_scale > 0.0:
        raise ValueError("noise_scale must be positive")
    X = _full_rank_matrix(n, p, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1_000_003))
    beta_ls = rng.standard_normal(p)
    for _ in range(MAX_GENERATION_RETRIES):
        v = rng.standard_normal(n)
        z = v - X @ linalg.solve_spd(gram(X), X.T @ v)
        norm = float(np.linalg.norm(z))
        if norm > RANK_TOL:
            z *= noise_scale / norm
            y = X @ beta_ls + z
            return RegimeInstance(Problem(X, y, Regime.INCONSISTENT), beta_ls, z=z)
    raise GenerationFailure("could not draw a nonzero component orthogonal to col(X)")


def gen_underdetermined(n: int, p: int, seed: int) -> RegimeInstance:
    """p > n instance; reference is the minimum-norm solution."""
    if p <= n:
        raise ValueError("underdetermined regime requires p > n")
    X = _full_rank_matrix(n, p, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1_000_003))
    alpha = rng.standard_normal(n)
    y = X @ (X.T @ alpha)  # consistent by construction
    return RegimeInstance(Problem(X, y, Regime.UNDERDETERMINED), min_norm_solution(X, y))
