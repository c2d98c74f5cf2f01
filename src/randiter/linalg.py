"""Dense float64 vector/matrix kernels.

Matrices are stored column-major (Fortran order) so column slices, the
coordinate-descent hot path, are contiguous. Everything is plain numpy;
only desk-scale exactness is targeted, not BLAS-tuned throughput.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotPositiveDefinite, NotSymmetric

SYMMETRY_TOL = 1e-10


def dense_matrix(values) -> np.ndarray:
    """Validate and return a 2-D float64 array in column-major order.

    Rejects empty matrices and non-finite entries. Returns a column-major
    float64 ndarray itself, shared with the caller, and copies anything else.
    """
    a = np.asarray(values, dtype=np.float64, order="F")
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError("empty matrix")
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):  # NaN and inf show there
        raise ValueError("matrix contains NaN or Inf")
    return a


def dense_vector(values) -> np.ndarray:
    """Validate and return a 1-D float64 array with finite entries: a 1-D
    float64 ndarray itself, shared with the caller, else a flat copy."""
    v = np.asarray(values, dtype=np.float64)
    v = v if v.ndim == 1 else v.flatten()
    if v.size == 0:
        raise DimensionError("empty vector")
    if not (np.isfinite(v.min()) and np.isfinite(v.max())):
        raise ValueError("vector contains NaN or Inf")
    return v


def row_norms_sq(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return np.einsum("ij,ij->i", X, X)


def col_norms_sq(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every column."""
    return np.einsum("ij,ij->j", X, X)


def frobenius_sq(X: np.ndarray) -> float:
    """Squared Frobenius norm; equals sum(row_norms_sq) = sum(col_norms_sq)."""
    return float(np.einsum("ij,ij->", X, X))


def _check_symmetric(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got {A.shape}")
    scale = 1.0 + float(np.max(np.abs(A)))
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky."""
    _check_symmetric(A)
    if A.shape[0] != b.shape[0]:
        raise DimensionError(f"solve_spd: {A.shape} x {b.shape}")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    z = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, z)


def _symmetrized(A: np.ndarray) -> np.ndarray:
    _check_symmetric(A)
    a = np.array(A, dtype=np.float64)
    return 0.5 * a + 0.5 * a.T


def sym_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix (LAPACK)."""
    return np.linalg.eigh(_symmetrized(A))


def sym_eigs(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted ascending (LAPACK)."""
    return np.linalg.eigvalsh(_symmetrized(A))
