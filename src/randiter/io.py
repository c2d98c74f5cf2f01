"""On-disk formats: MatrixMarket array matrices, plain vectors, key=value
metadata, and trace CSVs.

All floats are serialized with 17 significant digits so a write/read
round trip reproduces the exact 64-bit values, and output is LF-only so
golden-file comparisons are byte-stable.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .errors import DimensionError
from .linalg import dense_matrix, dense_vector

MM_HEADER = "%%MatrixMarket matrix array real general"

FLOAT_FORMAT = "%.17g"

# Values formatted per string. Writes are as fast from 1024 values up,
# and at 1024 the chunk's Python floats and strings (about 70 kB) do
# not raise the peak RSS of a process that writes small files.
WRITE_CHUNK = 1024


def fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _write_values(f, values: np.ndarray) -> None:
    """One value per line, formatted a chunk at a time."""
    values = np.asarray(values, dtype=np.float64).ravel()
    line = FLOAT_FORMAT + "\n"
    for start in range(0, values.size, WRITE_CHUNK):
        chunk = values[start:start + WRITE_CHUNK].tolist()
        f.write((line * len(chunk)) % tuple(chunk))


def _read_values(f) -> np.ndarray:
    """The rest of f as one float per line, blank lines skipped. Raises
    ValueError on any other content, including '#' comments."""
    with warnings.catch_warnings():
        # an empty input is reported by its caller, not as a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2)
    if values.shape[1] != 1:
        raise ValueError(f"expected one value per line, found {values.shape[1]}")
    return values[:, 0]


def write_matrix(path: str, X: np.ndarray) -> None:
    """MatrixMarket dense array format, column-major values."""
    n, p = X.shape
    with open(path, "w", newline="\n") as f:
        f.write(MM_HEADER + "\n")
        f.write(f"{n} {p}\n")
        _write_values(f, X.ravel(order="F"))


def read_matrix(path: str) -> np.ndarray:
    """A dense MatrixMarket array matrix. Malformed content (another
    MatrixMarket format, a bad size line, a missing or non-numeric value,
    a line with more than one value) raises IOError naming the file."""
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
            values = _read_values(f)
            if values.size != n * p:
                raise IOError(f"{path}: expected {n * p} values, found {values.size}")
            return dense_matrix(values.reshape((n, p), order="F"))
        except ValueError as exc:
            raise IOError(f"{path}: {exc}") from None


def write_vector(path: str, v: np.ndarray) -> None:
    """One value per line."""
    with open(path, "w", newline="\n") as f:
        _write_values(f, v)


def read_vector(path: str) -> np.ndarray:
    """One value per line; malformed content raises IOError naming the
    file."""
    with open(path) as f:
        try:
            return dense_vector(_read_values(f))
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
