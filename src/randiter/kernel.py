"""Kernel evaluation and matrix-free Kaczmarz for kernel ridge regression.

The solver iterates on the dual system (K + lambda I) alpha = y using
one kernel column per step, evaluated on the fly; no n x n structure is
ever allocated. The maintained auxiliary vector is s = K alpha (rather
than the residual), so y never has to be touched during updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .sampling import RngState, build_sampler
from .solvers import ConvergenceTrace, RunConfig, drive

# Rebuild s = K alpha from scratch this often to bound incremental drift.
S_REFRESH_EVERY = 1000

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


@dataclass
class KrrState:
    """Dual iterate alpha plus maintained s = K alpha. krr_run leaves
    rng None: the driver owns the run's stream."""

    alpha: np.ndarray
    s: np.ndarray
    iter: int
    rng: RngState | None
    lam: float


def kernel_eval(spec: KernelSpec, x: np.ndarray, x2: np.ndarray) -> float:
    """k(x, x2) for one pair of points."""
    if x.shape != x2.shape:
        raise DimensionError(f"kernel_eval: {x.shape} vs {x2.shape}")
    if spec.family == "linear":
        return float(x @ x2)
    if spec.family == "gaussian":
        d = x - x2
        return math.exp(-spec.gamma * float(d @ d))
    return (float(x @ x2) + spec.offset) ** spec.degree


def kernel_column(spec: KernelSpec, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k(x_j, x) for every row x_j of data; one column of K, never K."""
    if data.shape[1] != x.shape[0]:
        raise DimensionError(f"kernel_column: {data.shape} vs {x.shape}")
    if spec.family == "linear":
        return data @ x
    if spec.family == "gaussian":
        d = data - x
        return np.exp(-spec.gamma * np.einsum("ij,ij->i", d, d))
    return (data @ x + spec.offset) ** spec.degree


def kernel_diag(spec: KernelSpec, data: np.ndarray) -> np.ndarray:
    """k(x_i, x_i) for every data point."""
    if spec.family == "linear":
        return np.einsum("ij,ij->i", data, data)
    if spec.family == "gaussian":
        return np.ones(data.shape[0])
    return (np.einsum("ij,ij->i", data, data) + spec.offset) ** spec.degree


def krr_weights(spec: KernelSpec, data: np.ndarray, lam: float) -> np.ndarray:
    """Row sampling weights k(x_i, x_i) + lambda.

    For the gaussian family the diagonal is constant, so this is the
    exact uniform distribution over rows.
    """
    return kernel_diag(spec, data) + lam


def krr_step(
    state: KrrState,
    data: np.ndarray,
    y: np.ndarray,
    spec: KernelSpec,
    row: int,
) -> KrrState:
    """One dual row action using a single on-the-fly kernel column."""
    col = kernel_column(spec, data, data[row])
    delta = (y[row] - state.s[row] - state.lam * state.alpha[row]) / (
        float(col[row]) + state.lam
    )
    state.alpha[row] += delta
    state.s += delta * col
    state.iter += 1
    return state


def krr_predict(alpha: np.ndarray, data: np.ndarray, spec: KernelSpec, x: np.ndarray) -> float:
    """f(x) = sum_i alpha_i k(x_i, x)."""
    if alpha.shape[0] != data.shape[0]:
        raise DimensionError(
            f"alpha has length {alpha.shape[0]}, data has {data.shape[0]} points"
        )
    return float(alpha @ kernel_column(spec, data, x))


def apply_gram(spec: KernelSpec, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v computed in tiles K[J, :] of at most GRAM_TILE_ELEMS entries,
    where J runs over blocks of v's nonzero indices: one BLAS product
    data[J] @ data.T per tile, mapped to the kernel in place. K is never
    formed; extra memory is O(GRAM_TILE_ELEMS + n)."""
    n = data.shape[0]
    out = np.zeros(n)
    nonzero = np.flatnonzero(v)
    if nonzero.size == 0:
        return out
    rows = max(1, GRAM_TILE_ELEMS // n)
    if spec.family == "gaussian":
        sq = np.einsum("ij,ij->i", data, data)
    for start in range(0, nonzero.size, rows):
        J = nonzero[start:start + rows]
        tile = data[J] @ data.T
        if spec.family == "gaussian":
            # ||x_i - x_j||^2 = ||x_i||^2 + ||x_j||^2 - 2 <x_i, x_j>, which
            # can round below 0 for near-identical points
            tile *= -2.0
            tile += sq[J, None]
            tile += sq
            np.maximum(tile, 0.0, out=tile)
            tile *= -spec.gamma
            np.exp(tile, out=tile)
        elif spec.family == "polynomial":
            tile += spec.offset
            tile **= spec.degree
        out += v[J] @ tile
    return out


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
    `energy_matrix` (desk scale); otherwise checkpoints apply K in
    apply_gram's row tiles, still without materializing it. The run
    stops at the first checkpoint with energy_err_sq <= tol^2, at a
    plateau, or at max_iters.
    """
    if not lam > 0.0:
        raise ValueError("kernel ridge requires lambda > 0")
    n = data.shape[0]
    sampler = build_sampler(krr_weights(spec, data, lam))
    state = KrrState(np.zeros(n), np.zeros(n), 0, None, lam)

    def advance(rows):
        for row in rows.tolist():
            krr_step(state, data, y, spec, row)

    def refresh():
        state.s = apply_gram(spec, data, state.alpha)

    def checkpoint():
        v = state.alpha - alpha_star
        if energy_matrix is not None:
            energy = max(float(v @ (energy_matrix @ v)), 0.0)
        else:
            energy = float(v @ apply_gram(spec, data, v)) + lam * float(v @ v)
        dual_res = y - state.s - lam * state.alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    return drive(sampler, config, n, advance, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True, refresh=refresh,
                 refresh_every=S_REFRESH_EVERY)
