"""Kernel evaluation and matrix-free Kaczmarz for kernel ridge regression.

The solver iterates on the dual system (K + lambda I) alpha = y, in
Gauss-Seidel sweeps with K[J, :] for the drawn rows J from one product,
or one kernel column per step; its checkpoints, and the refresh of s
about once an epoch, apply K tile by tile. So a step evaluates O(n)
kernel entries, and no n x n structure is ever allocated. It maintains
s = K alpha, not the residual, so updates never touch y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .sampling import build_sampler
from .solvers import ConvergenceTrace, RunConfig, drive, dual_advance, dual_sweep

_FAMILIES = ("linear", "gaussian", "polynomial")

# A dual sweep's k rows of K, and each tile of K that apply_gram forms,
# hold at most this many entries (256 KB), more only when a single row
# is longer.
GRAM_TILE_ELEMS = 1 << 15


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
        if self.family == "gaussian" and not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gaussian kernel requires a finite gamma > 0, got {self.gamma}")
        if self.family == "polynomial":
            if self.degree < 1:
                raise ValueError("polynomial kernel requires degree >= 1")
            if not 0.0 <= self.offset < np.inf:
                raise ValueError(f"polynomial kernel requires a finite offset >= 0, "
                                 f"got {self.offset}")


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

    def block(self, J: np.ndarray) -> np.ndarray:
        """K[J, :], the rows of K at indices J, from one product."""
        out = self.points[J] @ self.rows.T
        self._map(out, (np.arange(len(J)), J))
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K v, for one vector v or for each row of a stack of them,
        from the tiles of K on or above its block diagonal: each tile
        adds its rows' products with each v and, by symmetry, its
        columns' products below the diagonal. A stack shares the tiles,
        and each of its vectors gets the products, and the bits, of its
        own apply."""
        n = v.shape[-1]
        res = np.zeros(v.shape)
        # K 0 = 0 exactly, even where K's entries overflow
        live = [(u, out) for u, out in zip(v.reshape(-1, n), res.reshape(-1, n)) if u.any()]
        if not live:
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
            for u, out in live:
                out[start:stop] += tile @ u[start:]
                out[stop:] += u[start:stop] @ tile[:, stop - start:]
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
    krr_run's sweeps, and, with the same column, for its step loop."""
    col = _Gram(spec, data).column(row, np.empty(data.shape[0]))
    delta = (y[row] - s[row] - lam * alpha[row]) / (float(col[row]) + lam)
    alpha[row] += delta
    s += delta * col


def apply_gram(spec: KernelSpec, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v without forming K, for a vector v or for each row of a stack
    of them (see _Gram.apply): tiles of at most GRAM_TILE_ELEMS entries
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
) -> ConvergenceTrace:
    """Run the KRR solver from alpha = 0 and trace dual errors.

    err_sq is ||alpha - alpha*||^2; energy_err_sq the same in the
    (K + lambda I) norm, v^T K v + lambda v^T v for v = alpha - alpha*,
    with K v from apply_gram, so K is never materialized. Steps are
    taken as solvers.dual_advance decides for rows of n entries, the cap
    GRAM_TILE_ELEMS and sweeps of k >= 2 rows (n <= 16384): a sweep
    with K[J, :] from one product, K[J, J] from it for free, or one
    kernel column per step. The refresh of s = K alpha at solvers.drive's
    period (every 1000 steps up to n = 1000, about once an epoch beyond)
    waits for the next draw block or checkpoint; a checkpoint shares its
    apply_gram pass with it. The run stops at the first checkpoint with
    energy_err_sq <= tol^2, at a plateau, or at max_iters.
    """
    if y.shape[0] != data.shape[0]:
        raise DimensionError(f"y has length {y.shape[0]}, data has {data.shape[0]} rows")
    if not lam > 0.0:
        raise ValueError("kernel ridge requires lambda > 0")
    if config.beta0 is not None:
        raise ValueError("krr_run starts from alpha = 0 and takes no beta0")
    n = data.shape[0]
    sampler = build_sampler(krr_weights(spec, data, lam))
    gram = _Gram(spec, data)
    column = gram.column
    ys = y.tolist()
    alpha, s, col = np.zeros(n), np.zeros(n), np.empty(n)
    stale = False  # s awaits its rebuild from alpha

    def rebuild():
        """s = K alpha afresh, if a refresh is pending."""
        nonlocal stale
        if stale:
            s[:], stale = apply_gram(spec, data, alpha), False

    def steps(rows):
        nonlocal s
        rebuild()
        # krr_step for each row in turn, with the column written into
        # col and then scaled in place
        for row in rows.tolist():
            column(row, col)
            delta = (ys[row] - s[row] - lam * alpha[row]) / (col[row] + lam)
            alpha[row] += delta
            s += np.multiply(col, delta, out=col)

    def sweep(J):
        rebuild()
        KJ = gram.block(J)
        dual_sweep(J, KJ, KJ[:, J], y[J] - s[J], lam, alpha, s)

    def refresh():
        # deferred to the next block or checkpoint, whose pass it shares
        nonlocal stale
        stale = True

    def checkpoint():
        nonlocal stale
        v = alpha - alpha_star
        if stale:  # the pending refresh of s shares this pass
            Kv, s[:] = apply_gram(spec, data, np.array((v, alpha)))
            stale = False
        else:
            Kv = apply_gram(spec, data, v)
        energy = float(v @ Kv) + lam * float(v @ v)
        dual_res = y - s - lam * alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    # K[J, J] comes free with K[J, :], so a sweep pays from k = 2 on
    loop = dual_advance(n, GRAM_TILE_ELEMS, 2, steps, sweep)
    return drive(sampler, config, loop, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True, refresh=refresh)
