"""On-disk formats: MatrixMarket array matrices, plain vectors, key=value
metadata, and trace CSVs.

All floats are serialized with 17 significant digits so a write/read
round trip reproduces the exact 64-bit values, and output is LF-only so
golden-file comparisons are byte-stable.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError
from .linalg import dense_matrix, dense_vector

MM_HEADER = "%%MatrixMarket matrix array real general"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix(path: str, X: np.ndarray) -> None:
    """MatrixMarket dense array format, column-major values."""
    n, p = X.shape
    with open(path, "w", newline="\n") as f:
        f.write(MM_HEADER + "\n")
        f.write(f"{n} {p}\n")
        for j in range(p):
            for i in range(n):
                f.write(fmt(X[i, j]) + "\n")


def read_matrix(path: str) -> np.ndarray:
    """A dense MatrixMarket array matrix. Malformed content (another
    MatrixMarket format, a bad size line, a missing or non-numeric value)
    raises IOError naming the file."""
    with open(path) as f:
        banner = f.readline().split()
        if not banner or banner[0] != "%%MatrixMarket":
            raise IOError(f"{path}: not a MatrixMarket file")
        if [tok.lower() for tok in banner[1:]] != MM_HEADER.split()[1:]:
            raise IOError(
                f"{path}: MatrixMarket {' '.join(banner[1:])!r} is not supported,"
                f" only {MM_HEADER!r}"
            )
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        try:
            n, p = (int(tok) for tok in line.split())
        except ValueError:
            raise IOError(f"{path}: bad size line {line.strip()!r}") from None
        if n < 1 or p < 1:
            raise IOError(f"{path}: bad size {n} x {p}")
        try:
            values = [float(text) for text in f if text.strip()]
            if len(values) != n * p:
                raise IOError(f"{path}: expected {n * p} values, found {len(values)}")
            return dense_matrix(np.array(values).reshape((n, p), order="F"))
        except ValueError as exc:
            raise IOError(f"{path}: {exc}") from None


def write_vector(path: str, v: np.ndarray) -> None:
    """One value per line."""
    with open(path, "w", newline="\n") as f:
        for x in v:
            f.write(fmt(x) + "\n")


def read_vector(path: str) -> np.ndarray:
    """One value per line; malformed content raises IOError naming the
    file."""
    with open(path) as f:
        try:
            return dense_vector([float(line) for line in f if line.strip()])
        except (ValueError, DimensionError) as exc:
            raise IOError(f"{path}: {exc}") from None


def write_meta(path: str, meta: dict) -> None:
    """key=value lines; floats at full precision."""
    with open(path, "w", newline="\n") as f:
        for key, value in meta.items():
            if isinstance(value, float):
                value = fmt(value)
            f.write(f"{key}={value}\n")


def read_meta(path: str) -> dict:
    meta = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            meta[key] = value
    return meta


TRACE_HEADER = "iter,err_sq,energy_err_sq,residual_sq,bound"


def write_trace_csv(path: str, trace) -> None:
    """Convergence trace as CSV, '.' decimals, LF endings."""
    with open(path, "w", newline="\n") as f:
        f.write(TRACE_HEADER + "\n")
        for rec in trace.records:
            f.write(
                f"{rec.iter},{fmt(rec.err_sq)},{fmt(rec.energy_err_sq)},"
                f"{fmt(rec.residual_sq)},{fmt(rec.bound)}\n"
            )


def problem_paths(problem_dir: str) -> dict:
    return {
        "X": os.path.join(problem_dir, "X.mtx"),
        "y": os.path.join(problem_dir, "y.vec"),
        "reference": os.path.join(problem_dir, "reference.vec"),
        "meta": os.path.join(problem_dir, "meta.txt"),
    }
