"""On-disk formats: MatrixMarket array matrices, plain vectors, key=value
metadata, and trace CSVs.

All floats are serialized with 17 significant digits so a write/read
round trip reproduces the exact 64-bit values, and output is LF-only so
golden-file comparisons are byte-stable.

Beside every matrix or vector file it writes, randiter writes a sidecar
(the file's path plus SIDECAR_SUFFIX): the SHA-256 of the text file's
bytes, then its values as a flat float64 .npy in file order. A reader
takes the values from the sidecar when the digest matches the text file
as it is now, and parses the text in every other case, so the sidecar
is derived data and is always safe to delete.
"""

from __future__ import annotations

import hashlib
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

SIDECAR_SUFFIX = ".values"
DIGEST_SIZE = 32  # SHA-256
# Bytes hashed per read: memory does not grow with the file, and a small
# file's read allocates only its own size.
HASH_BLOCK = 1 << 20


def fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _write_values(path: str, head: str, values) -> None:
    """head, then one value per line, formatted a chunk at a time; then
    path's sidecar, with the digest of the file as written."""
    values = np.asarray(values, dtype=np.float64).ravel()
    line = FLOAT_FORMAT + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(head)
        for start in range(0, values.size, WRITE_CHUNK):
            chunk = values[start:start + WRITE_CHUNK].tolist()
            f.write((line * len(chunk)) % tuple(chunk))
    with open(path + SIDECAR_SUFFIX, "wb") as f:
        f.write(_file_digest(path))
        np.save(f, values, allow_pickle=False)


def _file_digest(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(HASH_BLOCK):
            digest.update(block)
    return digest.digest()


def _sidecar_values(path: str) -> np.ndarray | None:
    """The values in path's sidecar, if there is one, its digest matches
    path's current bytes and it holds a 1-D float64 array; else None."""
    try:
        with open(path + SIDECAR_SUFFIX, "rb") as f:
            stored = f.read(DIGEST_SIZE)
            if stored != _file_digest(path):
                return None
            values = np.lib.format.read_array(f, allow_pickle=False)
    except (OSError, ValueError, MemoryError):  # none, or a short or corrupt one
        return None
    if values.dtype != np.float64 or values.ndim != 1:
        return None
    return values


def _read_values(f, path: str) -> np.ndarray:
    """The rest of f (opened on path) as one float per line, blank lines
    skipped: from path's sidecar when it matches, else parsed. Raises
    ValueError on any other content, including '#' comments."""
    values = _sidecar_values(path)
    if values is not None:
        return values
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
    _write_values(path, f"{MM_HEADER}\n{n} {p}\n", X.ravel(order="F"))


def read_matrix(path: str) -> np.ndarray:
    """A dense MatrixMarket array matrix. Malformed content (another
    MatrixMarket format, a bad size line, a missing or non-numeric value,
    a line with more than one value) raises IOError naming the file."""
    with open(path) as f:
        try:
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
            values = _read_values(f, path)
            if values.size != n * p:
                raise IOError(f"{path}: expected {n * p} values, found {values.size}")
            return dense_matrix(values.reshape((n, p), order="F"))
        except ValueError as exc:  # also bytes that do not decode
            raise IOError(f"{path}: {exc}") from None


def write_vector(path: str, v: np.ndarray) -> None:
    """One value per line."""
    _write_values(path, "", v)


def read_vector(path: str) -> np.ndarray:
    """One value per line; malformed content raises IOError naming the
    file."""
    with open(path) as f:
        try:
            return dense_vector(_read_values(f, path))
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
