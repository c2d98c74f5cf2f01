"""Closed-form references, theoretical rates, and problem generators.

This is the only module allowed to form X^T X, X X^T, or the kernel
gram matrix explicitly; everything here is desk scale and exists to
check the matrix-free solvers against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import Regime, linalg
from .errors import DegenerateMatrix, GenerationFailure, OracleInconsistency

if TYPE_CHECKING:  # the kernel module is loaded by the first gram_matrix call
    from .kernel import KernelSpec

RIDGE_FORM_TOL = 1e-8
RANK_TOL = 1e-8  # minimum singular value for generated instances
POSITIVE_EIG_REL_TOL = 1e-10  # sigma_min^+ cutoff relative to ||M||_F
NOISE_SCALE_DEFAULT = 0.5
MAX_GENERATION_RETRIES = 10
DRAW_BLOCK = 1 << 15


@dataclass
class RegimeInstance:
    """A generated problem, X (n x p) and y, plus the closed-form target it converges to."""

    X: np.ndarray
    y: np.ndarray
    regime: Regime
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


def small_gram(X: np.ndarray) -> np.ndarray:
    """X^T X if p <= n, else X X^T: the other Gram adds only zero eigenvalues."""
    n, p = X.shape
    return gram(X) if p <= n else outer_gram(X)


def ridge_solution(X: np.ndarray, y: np.ndarray, lam: float,
                   A: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(beta_RR, alpha*) from one solve with A = small_gram(X) + lambda I,
    unless passed; beta = X^T alpha or lambda alpha = y - X beta gives the
    other. lambda beta = X^T (y - X beta), taken through X, checks the link not used."""
    if not lam > 0.0:
        raise ValueError("ridge_solution requires lambda > 0")
    n, p = X.shape
    if A is None:
        A = small_gram(X) + lam * np.eye(min(n, p))
    if p <= n:
        beta = linalg.solve_spd(A, X.T @ y)
        alpha = (y - X @ beta) / lam
    else:
        alpha = linalg.solve_spd(A, y)
        beta = X.T @ alpha
    scale = 1.0 + float(np.max(np.abs(X.T @ y)))
    if float(np.max(np.abs(lam * beta - X.T @ (y - X @ beta)))) > RIDGE_FORM_TOL * scale:
        raise OracleInconsistency("primal and dual ridge closed forms disagree")
    return beta, alpha


def ridge_alpha_star(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Dual target alpha* = (X X^T + lambda I)^-1 y."""
    return ridge_solution(X, y, lam)[1]


def gram_matrix(spec: KernelSpec, data: np.ndarray) -> np.ndarray:
    """Explicit kernel gram matrix K (desk scale only)."""
    from .kernel import kernel_column
    n = data.shape[0]
    K = np.empty((n, n))
    for j in range(n):
        K[:, j] = kernel_column(spec, data, data[j])
    return 0.5 * (K + K.T)


def krr_alpha_star(data: np.ndarray, y: np.ndarray, spec: KernelSpec, lam: float,
                   A: np.ndarray | None = None) -> np.ndarray:
    """alpha* = (K + lambda I)^-1 y from one solve with A = K + lambda I,
    K formed explicitly, unless the caller passes A."""
    if not lam > 0.0:
        raise ValueError("krr_alpha_star requires lambda > 0")
    if A is None:
        A = gram_matrix(spec, data) + lam * np.eye(data.shape[0])
    return linalg.solve_spd(A, y)


def theoretical_rate(M: np.ndarray, positive_only: bool = False, size: int | None = None,
                     lam: float = 0.0) -> float:
    """Per-iteration contraction bound 1 - sigma_min / trace of M, or of
    the size x size Gram + lam I when M is small_gram(X) + lam I: M's
    eigenvalues and lam repeated size - len(M) times.

    With positive_only, sigma_min^+ (smallest eigenvalue above
    POSITIVE_EIG_REL_TOL * ||M||_F) is used, for rank-deficient M.
    """
    extra = (len(M) if size is None else size) - len(M)
    eigs = np.append(linalg.sym_eigs(M), np.full(extra, lam))
    tr = float(np.sum(eigs))
    if tr <= 0.0:
        raise DegenerateMatrix("theoretical_rate needs a positive trace")
    if positive_only:
        # ||M||_F as s ||M / s||_F, s = max |M|: ||M||_F^2 overflows where ||M||_F does not
        s = max(float(np.max(np.abs(M))), lam)
        cutoff = POSITIVE_EIG_REL_TOL * s * math.sqrt(
            linalg.frobenius_sq(M / s) + extra * (lam / s) ** 2)
        positive = eigs[eigs > cutoff]
        if positive.size == 0:
            raise DegenerateMatrix("no eigenvalue above the positive-part cutoff")
        smallest = float(np.min(positive))
    else:
        smallest = float(np.min(eigs))
    return 1.0 - smallest / tr


def null_space_basis(X: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning null(X): right singular vectors with
    singular value at most RANK_TOL * max(sigma_max, 1). Not from X^T X,
    whose zero eigenvalues round to ~eps * ||X^T X||, above RANK_TOL^2."""
    _, s, vt = np.linalg.svd(X)
    rank = int(np.sum(s > RANK_TOL * max(float(s[0]), 1.0)))
    return vt[rank:].T


def _full_rank_matrix(n: int, p: int, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    """A full-rank n x p X, and the generator that draws the rest of the instance.
    X is one standard_normal((n, p)) draw, taken in row blocks of at most
    DRAW_BLOCK values into column-major storage: only X and a block are held."""
    rows = max(1, DRAW_BLOCK // max(p, 1))
    for attempt in range(MAX_GENERATION_RETRIES):
        rng = np.random.Generator(np.random.PCG64(seed + attempt))
        X = np.empty((n, p), order="F")
        for start in range(0, n, rows):
            X[start:start + rows] = rng.standard_normal((min(rows, n - start), p))
        X = linalg.dense_matrix(X)
        if linalg.sym_eigs(small_gram(X))[0] > RANK_TOL * RANK_TOL:  # sigma_min(X)^2
            return X, np.random.Generator(np.random.PCG64(seed + 1_000_003))
    raise GenerationFailure(f"no full-rank {n}x{p} matrix after {MAX_GENERATION_RETRIES} tries")


def gen_consistent(n: int, p: int, seed: int) -> RegimeInstance:
    """n > p instance with a planted exact solution."""
    if n <= p:
        raise ValueError("consistent regime requires n > p")
    X, rng = _full_rank_matrix(n, p, seed)
    beta_star = rng.standard_normal(p)
    y = X @ beta_star
    return RegimeInstance(X, y, Regime.CONSISTENT_UNIQUE, beta_star)


def gen_inconsistent(n: int, p: int, noise_scale: float, seed: int) -> RegimeInstance:
    """n > p instance with y = X beta_LS + z, X^T z = 0, ||z|| = noise_scale."""
    if n <= p:
        raise ValueError("inconsistent regime requires n > p")
    if not 0.0 < noise_scale < math.inf:
        raise ValueError("noise_scale must be positive and finite")
    X, rng = _full_rank_matrix(n, p, seed)
    beta_ls = rng.standard_normal(p)
    for _ in range(MAX_GENERATION_RETRIES):
        v = rng.standard_normal(n)
        z = v - X @ ls_solution(X, v)
        norm = float(np.linalg.norm(z))
        if norm > RANK_TOL:
            z *= noise_scale / norm
            y = X @ beta_ls + z
            with np.errstate(over="ignore"):
                if not math.isfinite(y @ y) or not math.isfinite(z @ z):
                    raise ValueError(f"noise_scale {noise_scale} overflows ||y||^2")
            return RegimeInstance(X, y, Regime.INCONSISTENT, beta_ls, z=z)
    raise GenerationFailure("could not draw a nonzero component orthogonal to col(X)")


def gen_underdetermined(n: int, p: int, seed: int) -> RegimeInstance:
    """p > n instance; reference is the minimum-norm solution."""
    if p <= n:
        raise ValueError("underdetermined regime requires p > n")
    X, rng = _full_rank_matrix(n, p, seed)
    alpha = rng.standard_normal(n)
    y = X @ (X.T @ alpha)  # consistent by construction
    return RegimeInstance(X, y, Regime.UNDERDETERMINED, min_norm_solution(X, y))
