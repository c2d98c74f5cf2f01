"""Kernel evaluation and matrix-free Kaczmarz for kernel ridge regression.

The solver iterates on the dual system (K + lambda I) alpha = y, in
Gauss-Seidel sweeps. Its checkpoints apply K tile by tile, to alpha as
well as to the error, and about once an epoch the run rebases on that K
alpha. A sweep on rows J then forms only K[J, U], the columns of the
rows U stepped since the rebase, and keeps y - K alpha on U from that
block: a row entering U gets the rebase's value less K[j, U] times the
steps taken on U, and K[J, J] is part of the block. So a step evaluates
at most n kernel entries, and no n x n structure is ever allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import DimensionError
from .sampling import build_sampler
from .solvers import ConvergenceTrace, RunConfig, drive, dual_sweep

_FAMILIES = ("linear", "gaussian", "polynomial")

# A dual sweep's k x |U| block of K, and each tile of K that apply_gram
# forms, hold at most this many entries (256 KB), more only when a
# single row is longer; each _Gram writes them into one buffer of that
# size.
GRAM_TILE_ELEMS = 1 << 15
# A block of K[J, U] this small (32 KB) costs less as a new array than
# written into the buffer: at 32 x 40, 9.5 us against 11.2 for the product
SMALL_BLOCK = 1 << 12


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

    apply's tiles and block's large blocks are written into one buffer
    of min(max(GRAM_TILE_ELEMS, n), n^2) values, allocated on first use
    and kept: a new array of that size each pass or draw block would be
    mapped and faulted in afresh, or left in the heap. A product is read
    before the next one overwrites it.
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
        self._buf = None

    def _buffer(self) -> np.ndarray:
        """The buffer, allocated on first use."""
        if self._buf is None:
            n = len(self.points)
            size = min(max(GRAM_TILE_ELEMS, n), n * n)
            # starting on a 64-byte cache line: a pass at n = 2000 took
            # 4.03 ms so, against 4.24 to 4.47 ms 8 to 32 bytes past one,
            # where malloc may leave it
            raw = np.empty(size + 7)
            skip = -raw.ctypes.data % 64 // 8
            self._buf = raw[skip:skip + size]
        return self._buf

    def _map(self, t: np.ndarray, diag) -> None:
        """The kernel map, in place, of products rows @ points, where
        t[diag] pairs each point with itself."""
        if self.spec.family == "gaussian":
            # k(x, x) = exp(0) = 1 exactly: the product leaves the
            # rounding of 2 gamma ||z||^2 + 2 h there, which in high
            # dimension moves the solution by more than tol
            t[diag] = 0.0
            # the exponent is <= 0, but rounds above it for
            # near-identical points. Past SMALL_BLOCK entries a read-only
            # max costs less than the clamp (5.0 us against 13.3 at
            # 2^15), so the clamp runs only where the max is not <= 0,
            # a NaN max included; below about 3500 the max costs more.
            if t.size <= SMALL_BLOCK or not t.max() <= 0.0:
                np.minimum(t, 0.0, out=t)
            np.exp(t, out=t)
        elif self.spec.family == "polynomial":
            t += self.spec.offset
            t **= self.spec.degree

    def column(self, i: int, out: np.ndarray) -> np.ndarray:
        """K[:, i], written into out."""
        np.dot(self.rows, self.points[i], out=out)
        self._map(out, i)
        return out

    def block(self, J: np.ndarray, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """K[J, U] from one product, for rows = self.rows[U] and U[at] = J;
        K[J, :] is block(J, self.rows, J). A block of more than
        SMALL_BLOCK entries that fits is written into the buffer, and
        holds until the next block or apply. Any other is a new array:
        for a small one that costs less than matmul's out=."""
        size = len(J) * len(rows)
        out = None
        if SMALL_BLOCK < size <= len(self._buffer()):
            out = self._buf[:size].reshape(len(J), len(rows))
        out = np.matmul(self.points[J], rows.T, out=out)
        self._map(out, (np.arange(len(J)), at))
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
        buf = self._buffer()
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
                if stop < n:
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
    krr_run's sweeps."""
    col = _Gram(spec, data).column(row, np.empty(data.shape[0]))
    delta = (y[row] - s[row] - lam * alpha[row]) / (float(col[row]) + lam)
    alpha[row] += delta
    s += delta * col


def apply_gram(spec: KernelSpec, data: np.ndarray, v: np.ndarray, gram=None) -> np.ndarray:
    """K v without forming K, for a vector v or for each row of a stack
    of them (see _Gram.apply): tiles of at most GRAM_TILE_ELEMS entries
    (more only when one row of K is longer), one BLAS product each,
    that cover about half of K, by symmetry. Extra memory is
    O(GRAM_TILE_ELEMS + n p). A caller that holds _Gram(spec, data) can
    pass it as gram, which skips preparing the data again and reuses the
    gram's buffer."""
    return (_Gram(spec, data) if gram is None else gram).apply(v)


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
    (K + lambda I) norm, v^T K v + lambda v^T v for v = alpha - alpha*;
    residual_sq is ||y - K alpha - lambda alpha||^2. Each checkpoint
    takes K v and K alpha from one apply_gram pass, so K is never
    materialized. The checkpoints that solvers.drive has refresh (the
    first at or after every 1000 steps up to n = 1000, about once an
    epoch beyond) also rebase: they keep y - K alpha and empty U, the
    rows stepped since the last rebase. The run keeps y - K alpha only
    on U. A draw block's rows new to U take the next places in U in the
    order of their first draws, and their prepared rows are copied into
    a buffer of n (p + 2) values at most. A run of rows J adds J's new
    rows to U, forms K[J, U] in one product, and gives each new row the
    rebase's value less K[j, U] times the steps taken on U since;
    K[J, J] is part of the block. A run of two or more rows is one sweep
    (solvers.dual_sweep), a run of one row a single step without its
    solve, and each step then subtracts its multiple of its row of
    K[J, U] on U. Each draw block is cut into runs of k =
    min(SWEEP_STEPS, GRAM_TILE_ELEMS // |U at the block's end|) rows, at
    least 1, so a block of K holds at most GRAM_TILE_ELEMS entries
    unless one row of K is longer; the blocks of more than SMALL_BLOCK
    entries and the checkpoints' tiles share the run's one buffer (see
    _Gram). The run stops at the first checkpoint
    with energy_err_sq <= tol^2, at a plateau, or at max_iters.
    """
    if y.shape[0] != data.shape[0]:
        raise DimensionError(f"y has length {y.shape[0]}, data has {data.shape[0]} rows")
    if not lam > 0.0:
        raise ValueError("kernel ridge requires lambda > 0")
    n = data.shape[0]
    sampler = build_sampler(krr_weights(spec, data, lam))
    gram = _Gram(spec, data)
    alpha, y_s = np.zeros(n), y.copy()  # y_s = y - K alpha at the last rebase
    # U in first-touch order: slot[i] is row i's place in it (-1 outside),
    # u_rows[:m] the rows' prepared data, moved[:m] the steps taken on
    # them since the rebase and res[:m] their y - K alpha, which each
    # sweep updates from its block of K
    slot = np.full(n, -1)
    u_rows = np.empty((gram.rows.shape[1], n)).T  # column-major, as gram.rows
    moved, res = np.zeros(n), np.empty(n)
    m = 0

    def advance(indices):
        nonlocal m
        top = m
        if m < n:
            # the block's rows new to U take the next slots in the order
            # of their first draws (a repeat keeps its first), and each
            # joins U with the sweep that first steps it
            fresh = []
            for j in indices[slot[indices] < 0].tolist():
                if slot[j] < 0:
                    slot[j] = top
                    top += 1
                    fresh.append(j)
            u_rows[m:top] = gram.rows[fresh]
        # top is the most columns K[J, U] has in this block
        k = min(solvers.SWEEP_STEPS, max(1, GRAM_TILE_ELEMS // top))
        for J in solvers.sweeps(indices, k):
            at = slot[J]
            # J's new rows hold slots m, ..., end - 1
            end = max(m, int(at.max()) + 1) if top > m else m
            KJ = gram.block(J, u_rows[:end], at)
            if end > m:  # the new rows' y - K alpha; moved is 0 on their slots
                into = at >= m
                res[at[into]] = y_s[J[into]] - (KJ @ moved[:end])[into]
                m = end
            if len(J) > 1:
                delta = dual_sweep(J, KJ[:, at], res[at], lam, alpha)
                res[:m] -= delta @ KJ
            else:  # one step, without the triangle's solve
                j, a = int(J[0]), int(at[0])
                delta = (res[a] - lam * alpha[j]) / (KJ[0, a] + lam)
                alpha[j] += delta
                res[:m] -= np.multiply(KJ[0], delta, out=KJ[0])
            if m < n:  # only rows entering U read moved; once U is full, none can
                np.add.at(moved, at, delta)

    def checkpoint(rebase):
        nonlocal m
        v = alpha - alpha_star
        Kv, Ka = apply_gram(spec, data, np.array((v, alpha)), gram)
        if rebase:
            np.subtract(y, Ka, out=y_s)
            slot.fill(-1)
            moved[:m] = 0.0
            m = 0
        energy = float(v @ Kv) + lam * float(v @ v)
        dual_res = y - Ka - lam * alpha
        return float(v @ v), energy, float(dual_res @ dual_res)

    return drive(sampler, config, advance, checkpoint, rate, "energy_err_sq",
                 tol_on="energy_err_sq", plateau=True)
