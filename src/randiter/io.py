"""On-disk formats: MatrixMarket array matrices, plain vectors, key=value
metadata, and trace CSVs.

All floats are serialized with 17 significant digits so a write/read
round trip reproduces the exact 64-bit values, and output is LF-only so
golden-file comparisons are byte-stable.

Matrix and vector files hold the bytes of FLOAT_FORMAT ("%.17g") applied
to each value, one a line. An array of at most SMALL_ARRAY values is
formatted that way, WRITE_CHUNK values per string. A longer one is
formatted in numpy, NUMPY_CHUNK values at a time (_format_lines): each
value's 17 digits are the exact product of the value and a power of ten,
rounded half to even as CPython's dtoa rounds, and they are laid out as
"%.17g" lays them out. Values outside the range where that product is
exact (zeros, non-finite values, and magnitudes below about 1e-6 or from
1e17 up) are formatted with FLOAT_FORMAT, one at a time. Both paths give
the same bytes; the size selection keeps the numpy path's first-use cost
in peak RSS out of processes that write only small files.

Beside every matrix or vector file it writes, randiter writes a sidecar
(the file's path plus SIDECAR_SUFFIX): the SHA-256 of the text file's
bytes, then its values as a flat float64 .npy in file order. A reader
takes the values from the sidecar when the digest matches the text file
as it is now, and parses the text in every other case, so the sidecar
is derived data and is always safe to delete.
"""

from __future__ import annotations

import functools
import hashlib
import os
import warnings

import numpy as np

from .errors import DimensionError
from .linalg import dense_matrix, dense_vector

MM_HEADER = "%%MatrixMarket matrix array real general"

FLOAT_FORMAT = "%.17g"

# Arrays of at most this many values are formatted with FLOAT_FORMAT;
# longer ones in numpy. Taken for every array, the numpy path's first use
# (its tables, and numpy code pages no other step touches) raised the peak
# RSS of a 2000 x 3 generate from 36.01 to 37.65 MB, above rk-krr's 36.36 MB
# on that data, and of a 30 x 10 generate from 35.77 to 37.15 MB (6 runs each).
SMALL_ARRAY = 16384
# Values formatted per string on the FLOAT_FORMAT path. Writes are as
# fast from 1024 values up, and at 1024 the chunk's Python floats and
# strings (about 70 kB) do not raise the peak RSS of a process that
# writes small files.
WRITE_CHUNK = 1024
# Values formatted per numpy pass. 4096 was faster per value than 2048,
# 8192 and 16384; at 16384 a chunk's float arrays reach malloc's 128 kB
# mmap threshold, and the peak RSS of a 50000 x 10 generate rose 2.9 MB.
NUMPY_CHUNK = 4096

SIDECAR_SUFFIX = ".values"
DIGEST_SIZE = 32  # SHA-256
# Bytes hashed per read, into one buffer of at most this size: memory
# does not grow with the file, and a smaller file's buffer is its own size.
HASH_BLOCK = 1 << 20


def fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _write_values(path: str, head: str, values) -> None:
    """head, then one value per line, formatted a chunk at a time; then
    path's sidecar, with the digest of the bytes written."""
    values = np.asarray(values, dtype=np.float64).ravel()
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for data in _value_lines(head, values):
            f.write(data)
            digest.update(data)
    with open(path + SIDECAR_SUFFIX, "wb") as f:
        f.write(digest.digest())
        np.save(f, values, allow_pickle=False)


def _value_lines(head: str, values: np.ndarray):
    """The bytes of head, then of the values' lines, a chunk at a time."""
    yield head.encode()
    if values.size > SMALL_ARRAY:
        for start in range(0, values.size, NUMPY_CHUNK):
            yield _format_lines(values[start:start + NUMPY_CHUNK])
        return
    line = FLOAT_FORMAT + "\n"
    for start in range(0, values.size, WRITE_CHUNK):
        chunk = values[start:start + WRITE_CHUNK].tolist()
        yield ((line * len(chunk)) % tuple(chunk)).encode()


# _format_lines prints a value x itself when its decimal exponent E is in
# [-6, 16]: then x * 10**(16 - E) is in [1e16, 1e17), and 10**(16 - E) is a
# power of ten a float holds exactly (10**0 to 10**22).
_E_MIN = -6
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's split into 26-bit halves
_WORD = np.dtype("<u8")


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo): hi + lo = a, each with at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _times_pow10(a: np.ndarray, s: np.ndarray, pow10: np.ndarray):
    """(p, e) with p = fl(a * 10**s) and p + e = a * 10**s exactly
    (Dekker's TwoProduct), for 0 <= s <= 22 and a between about 1e-6 and
    1e17; pow10's rows are 10**s and its halves."""
    b, b_hi, b_lo = pow10[:, s]
    p = a * b
    hi, lo = _halves(a)
    return p, ((hi * b_hi - p) + hi * b_lo + lo * b_hi) + lo * b_lo


def _word(text: str) -> int:
    """text's bytes, NUL-padded to 8, as a little-endian word."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _format_tables():
    """_format_lines's lookup tables, built on first use.

    A value's line is a row of six little-endian words whose non-NUL
    bytes, in order, are the line. Word 0 holds the sign, the "0.000"
    prefix of fixed notation below 1, and the first digit; words 1-4 hold
    the other 16 digits, 4 each; each digit has a slot for a '.' after
    it. Word 5 holds the exponent of scientific notation and the newline.
    Tables indexed by k = E - _E_MIN take E from -6 to 16."""
    pow10 = np.array([float(10 ** s) for s in range(23)])
    pow10 = np.stack([pow10, *_halves(pow10)])
    exps = range(_E_MIN, 17)
    sci = [e < -4 for e in exps]  # and from 1e17 up, which are not printed here
    # the number of digits before the '.': none below 1 in fixed notation
    point = np.array([1 if s else max(e + 1, 0) for e, s in zip(exps, sci)])
    # indexed by 2k, or 2k + 1 for a negative value
    head = np.array([_word(sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else ""))
                     for e in exps for sign in ("", "-")], _WORD)
    tail = np.array([_word((f"e{e:+03d}" if s else "") + "\n") for e, s in zip(exps, sci)],
                    _WORD)
    # 4-digit groups: each digit's byte, then a NUL '.' slot
    g = np.arange(10000)
    digits = np.stack([g // 10 ** (3 - j) % 10 for j in range(4)], axis=1)
    slots = np.zeros((10000, 8), np.uint8)
    slots[:, ::2] = digits + ord("0")
    quad = slots.view(_WORD)[:, 0]
    # ends[i, g]: how many of the 17 digits there are up to the last nonzero
    # one in g as group i (digits 1 + 4i to 4 + 4i, 0-based); 0 for g = 0
    nonzero = digits != 0
    last = 4 - np.argmax(nonzero[:, ::-1], axis=1)
    ends = np.where(g > 0, last + 1 + 4 * np.arange(4)[:, None], 0).astype(np.uint8)
    # indexed by (a digit count or a '.' position) - (group's first digit) + 16
    keep = np.array([(1 << 16 * min(max(j - 16, 0), 4)) - 1 for j in range(33)], _WORD)
    dot = np.array([ord(".") << 16 * (j - 16) + 8 if 16 <= j < 20 else 0 for j in range(33)],
                   _WORD)
    return pow10, point, head, tail, quad, ends, keep, dot


def _format_lines(x: np.ndarray) -> bytes:
    """The bytes of FLOAT_FORMAT + "\n" applied to each value of x."""
    pow10, point_of, head, tail, quad, ends, keep, dot = _format_tables()
    ax = np.abs(x)
    fast = (ax >= 1e-6) & (ax < 1e17)  # not 0, inf or NaN either
    ax[~fast] = 1.0
    # s = 16 - E, with E = floor(log10|x|) or one off it near a power of ten
    s = np.clip(16 - np.floor(np.log10(ax)).astype(np.intp), 0, 22)
    p, e = _times_pow10(ax, s, pow10)
    off = (((p < 1e16) | ((p == 1e16) & (e < 0))).astype(np.intp)
           - ((p > 1e17) | ((p == 1e17) & (e >= 0))))
    wrong = np.flatnonzero(off)
    if wrong.size:
        s[wrong] += off[wrong]
        fast[wrong[(s[wrong] < 0) | (s[wrong] > 22)]] = False
        s[wrong] = np.clip(s[wrong], 0, 22)
        p[wrong], e[wrong] = _times_pow10(ax[wrong], s[wrong], pow10)
    # p + e is in [1e16, 1e17), so p is an even integer (above 2**53) and
    # p + rint(e) is p + e rounded half to even: the 17 digits "%.17g"
    # prints. They never round up to 1e17: below each power of ten from
    # 1e-5 to 1e17, the largest float times 10**s is more than 8 below 1e17.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    k = 22 - s  # E - _E_MIN
    rest = digits // 10 ** 8
    low = digits - rest * 10 ** 8
    first = rest // 10 ** 8
    rest -= first * 10 ** 8
    quads = [rest // 10000, rest % 10000, low // 10000, low % 10000]
    point = point_of.take(k)
    end = np.maximum(point, 1)  # digits printed: trailing zeros after the point go
    for i, q in enumerate(quads):
        end = np.maximum(end, ends[i].take(q))
    dot_at = np.where(end > point, point - 1, -1)  # the digit the '.' follows
    rows = np.empty((x.size, 6), _WORD)
    rows[:, 0] = (head.take(2 * k + np.signbit(x)) | (first.astype(_WORD) + ord("0")) << 48
                  | (dot_at == 0) * np.uint64(ord(".") << 56))
    for i, q in enumerate(quads):
        at = 15 - 4 * i  # 16 - the group's first digit
        rows[:, 1 + i] = quad.take(q) & keep.take(end + at) | dot.take(dot_at + at)
    rows[:, 5] = tail.take(k)
    slow = np.flatnonzero(~fast)
    if slow.size:
        rows.view("S48")[slow, 0] = [(FLOAT_FORMAT % v + "\n").encode()
                                      for v in x[slow].tolist()]
    return rows.tobytes().translate(None, b"\0")


def _file_digest(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        block = memoryview(bytearray(min(HASH_BLOCK, os.fstat(f.fileno()).st_size)))
        while size := f.readinto(block):
            digest.update(block[:size])
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
    a line with more than one value) raises IOError naming the file. X is
    the sidecar's or the parser's array itself, already column-major."""
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
