"""Kernel evaluation and matrix-free Kaczmarz for kernel ridge regression.

The solver iterates on the dual system (K + lambda I) alpha = y using
one kernel column per step, evaluated on the fly; no n x n structure is
ever allocated. The maintained auxiliary vector is s = K alpha (rather
than the residual), so y never has to be touched during updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .sampling import build_sampler
from .solvers import ConvergenceTrace, RunConfig, drive

# apply_gram forms at most this many entries of K at once (256 KB).
GRAM_TILE_ELEMS = 1 << 15

_FAMILIES = ("linear", "gaussian", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters; symmetric PSD on any finite set."""

    family: str
    gamma: float = 1.0  # gaussian: exp(-gamma * ||x - x'||^2)
    degree: int = 2  # polynomial: (<x, x'> + offset)^degree
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian" and not self.gamma > 0.0:
            raise ValueError("gaussian kernel requires gamma > 0")
        if self.family == "polynomial":
            if self.degree < 1:
                raise ValueError("polynomial kernel requires degree >= 1")
            if self.offset < 0.0:
                raise ValueError("polynomial kernel requires offset >= 0")


def kernel_column(spec: KernelSpec, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k(x_j, x) for every row x_j of data; one column of K, never K.

    The gaussian family takes the differences x_j - x directly: the
    oracle's K uses this form, the solvers the one in _Gram."""
    if data.shape[1] != x.shape[0]:
        raise DimensionError(f"kernel_column: {data.shape} vs {x.shape}")
    if spec.family == "linear":
        return data @ x
    if spec.family == "gaussian":
        d = data - x
        return np.exp(-spec.gamma * np.einsum("ij,ij->i", d, d))
    return (data @ x + spec.offset) ** spec.degree


def krr_weights(spec: KernelSpec, data: np.ndarray, lam: float) -> np.ndarray:
    """Row sampling weights k(x_i, x_i) + lambda.

    For the gaussian family the diagonal is constant, so this is the
    exact uniform distribution over rows.
    """
    if spec.family == "gaussian":
        return np.ones(data.shape[0]) + lam
    diag = np.einsum("ij,ij->i", data, data)
    if spec.family == "polynomial":
        diag = (diag + spec.offset) ** spec.degree
    return diag + lam


class _Gram:
    """Columns and products of K from data prepared once.

    K[r, c] is the kernel map of rows[r] @ points[c]. For the linear and
    polynomial families both are the data itself. A gaussian kernel
    depends only on x - x', so there the data z is centered on its mean,
    which keeps the inner products at the scale of the data's spread
    however far it sits from the origin. With h = -gamma ||z||^2 cached,
    rows are [2 gamma z, h, 1] and points [z, 1, h], so rows[r] @
    points[c] is the exponent -gamma ||z_r - z_c||^2 in one product.
    """

    def __init__(self, spec: KernelSpec, data: np.ndarray):
        self.spec = spec
        if spec.family == "gaussian":
            z = data - data.mean(axis=0)
            h = np.einsum("ij,ij->i", z, z) * -spec.gamma
            one = np.ones(data.shape[0])
            # column-major, as transposes of row stacks
            self.rows = np.vstack((z.T * (2.0 * spec.gamma), h, one)).T
            self.points = np.vstack((z.T, one, h)).T
        else:
            self.rows = self.points = data

    def _map(self, t: np.ndarray, diag) -> None:
        """The kernel map, in place, of products rows @ points, where
        t[diag] pairs each point with itself."""
        if self.spec.family == "gaussian":
            # the exponent is <= 0, but rounds above it for
            # near-identical points
            np.minimum(t, 0.0, out=t)
            np.exp(t, out=t)
            # k(x, x) = 1 exactly: the product leaves the rounding of
            # 2 gamma ||z||^2 + 2 h there, which in high dimension moves
            # the solution by more than tol
            t[diag] = 1.0
        elif self.spec.family == "polynomial":
            t += self.spec.offset
            t **= self.spec.degree

    def column(self, i: int, out: np.ndarray) -> np.ndarray:
        """K[:, i], written into out."""
        np.dot(self.rows, self.points[i], out=out)
        self._map(out, i)
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K v from the tiles of K on or above its block diagonal: each
        tile adds its rows' products with v and, by symmetry, its
        columns' products below the diagonal."""
        n = v.shape[0]
        res = np.zeros(n)
        if not v.any():
            # K 0 = 0 exactly, even where K's entries overflow
            return res
        buf = np.empty(max(GRAM_TILE_ELEMS, n))
        start = 0
        while start < n:
            # a tile takes the columns from its first row on, so it
            # narrows as it goes and can take more rows
            width = n - start
            stop = min(n, start + max(1, GRAM_TILE_ELEMS // width))
            tile = buf[:(stop - start) * width].reshape(stop - start, width)
            np.matmul(self.rows[start:stop], self.points[start:].T, out=tile)
            diag = np.arange(stop - start)
            self._map(tile, (diag, diag))
            res[start:stop] += tile @ v[start:]
            res[stop:] += v[start:stop] @ tile[:, stop - start:]
            start = stop
        return res


def krr_step(
    alpha: np.ndarray,
    s: np.ndarray,
    data: np.ndarray,
    y: np.ndarray,
    spec: KernelSpec,
    lam: float,
    row: int,
) -> None:
    """One dual row action, in place, using a single on-the-fly kernel
    column; s = K alpha before and after. The single-step reference for
    krr_run's inner loop, with the same column."""
    col = _Gram(spec, data).column(row, np.empty(data.shape[0]))
    delta = (y[row] - s[row] - lam * alpha[row]) / (float(col[row]) + lam)
    alpha[row] += delta
    s += delta * col


def apply_gram(spec: KernelSpec, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v without forming K: tiles of at most GRAM_TILE_ELEMS entries
    (more only when one row of K is longer), one BLAS product each,
    that cover about half of K, by symmetry. Extra memory is
    O(GRAM_TILE_ELEMS + n p)."""
    return _Gram(spec, data).apply(v)


def krr_run(
    data: np.ndarray,
    y: np.ndarray,
    spec: KernelSpec,
    lam: float,
    config: RunConfig,
    alpha_star: np.ndarray,
    rate: float,
    energy_matrix: np.ndarray | None = None,
) -> ConvergenceTrace:
    """Run the KRR solver from alpha = 0 and trace dual errors.

    err_sq is ||alpha - alpha*||^2; energy_err_sq the same in the
    (K + lambda I) norm. The oracle may pass K + lambda I explicitly as
    `energy_matrix` (desk scale); otherwise checkpoints apply K with
    apply_gram, still without materializing it. The run stops at the
    first checkpoint with energy_err_sq <= tol^2, at a plateau, or at
    max_iters.
    """
    if not lam > 0.0:
        raise ValueError("kernel ridge requires lambda > 0")
    if config.beta0 is not None:
        raise ValueError("krr_run starts from alpha = 0 and takes no beta0")
    n = data.shape[0]
    sampler = build_sampler(krr_weights(spec, data, lam))
    column = _Gram(spec, data).column
    ys = y.tolist()
    alpha, s, col = np.zeros(n), np.zeros(n), np.empty(n)

    def advance(rows):
        nonlocal s
        # krr_step for each row in turn, with the column written into
        # col and then scaled in place
        for row in rows.tolist():
            column(row, col)
            delta = (ys[row] - s[row] - lam * alpha[row]) / (col[row] + lam)
            alpha[row] += delta
            s += np.multiply(col, delta, out=col)

    def refresh():
        s[:] = apply_gram(spec, data, alpha)

    def checkpoint():
        v = alpha - alpha_star
        if energy_matrix is not None:
            energy = max(float(v @ (energy_matrix @ v)), 0.0)
        else:
            energy = float(v @ apply_gram(spec, data, v)) + lam * float(v @ v)
        dual_res = y - s - lam * alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    return drive(sampler, config, advance, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True, refresh=refresh)
