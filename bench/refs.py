"""Independent references and output checks for the benchmark.

Nothing here imports randiter. Files are parsed with numpy, and every
target and rate is recomputed with LAPACK (`lstsq`, `solve`,
`eigvalsh`), so a defect in the library's io, oracle or linalg cannot
vouch for itself. Each check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import csv

import numpy as np

MM_HEADER = "%%MatrixMarket matrix array real general"
TRACE_HEADER = "iter,err_sq,energy_err_sq,residual_sq,bound"

# Agreement required between the library's closed forms and LAPACK's.
REFERENCE_RTOL = 1e-8
# Agreement required for the rate, measured on 1 - rate (the part that
# carries the information when the rate is close to 1).
RATE_RTOL = 1e-6
# The trace's first record must measure the distance from beta0 = 0 to
# the benchmark's own target.
INITIAL_RTOL = 1e-7


# --- parsers ---------------------------------------------------------------


def read_matrix(path: str) -> np.ndarray:
    with open(path) as f:
        if f.readline().strip() != MM_HEADER:
            raise ValueError(f"{path}: unexpected MatrixMarket header")
        n, p = (int(tok) for tok in f.readline().split())
        values = np.array(f.read().split(), dtype=np.float64)
    if values.size != n * p:
        raise ValueError(f"{path}: {values.size} values, expected {n * p}")
    return values.reshape((n, p), order="F")


def read_vector(path: str) -> np.ndarray:
    with open(path) as f:
        return np.array(f.read().split(), dtype=np.float64)


def read_meta(path: str) -> dict:
    with open(path) as f:
        return dict(line.strip().partition("=")[::2] for line in f if "=" in line)


def read_trace(path: str) -> dict:
    """Trace CSV as a dict of columns."""
    with open(path) as f:
        if f.readline().strip() != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    return dict(zip(TRACE_HEADER.split(","), rows.T))


def read_summary(path: str) -> dict:
    """`compare` summary CSV keyed by method."""
    with open(path, newline="") as f:
        return {row["method"]: row for row in csv.DictReader(f)}


# --- references ------------------------------------------------------------


def ls_reference(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution, or the minimum-norm one when p > n."""
    return np.linalg.lstsq(X, y, rcond=None)[0]


def rate(M: np.ndarray) -> float:
    """Per-step contraction 1 - lambda_min(M) / trace(M) of an SPD matrix."""
    w = np.linalg.eigvalsh(M)
    return float(1.0 - w[0] / w.sum())


def ridge_beta(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    return np.linalg.solve(X.T @ X + lam * np.eye(X.shape[1]), X.T @ y)


def gaussian_gram(Z: np.ndarray, gamma: float) -> np.ndarray:
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T), 0.0)
    return np.exp(-gamma * d2)


# --- checks ----------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_reference(found: np.ndarray, expected: np.ndarray) -> list[str]:
    if found.shape != expected.shape:
        return [f"reference.vec has shape {found.shape}, expected {expected.shape}"]
    err = float(np.linalg.norm(found - expected))
    if err > REFERENCE_RTOL * (1.0 + float(np.linalg.norm(expected))):
        return [f"reference.vec is {err:.3e} from the LAPACK reference"]
    return []


def check_rate(found: float, expected: float, what: str) -> list[str]:
    if not _rel(1.0 - found, 1.0 - expected) <= RATE_RTOL:
        return [f"{what}: rate {found!r}, LAPACK gives {expected!r}"]
    return []


def implied_rate(trace: dict) -> float | None:
    """The rate the trace's `bound` column was built from, or None when
    the column underflows before the first checkpoint."""
    it, bound = trace["iter"], trace["bound"]
    for k in range(1, len(it)):
        if bound[0] > 0.0 and bound[k] > 1e-290:
            return float(np.exp(np.log(bound[k] / bound[0]) / it[k]))
    return None


def check_trace(
    trace: dict,
    target_sq: float,
    expected_rate: float,
    final_max: float,
    column: str = "err_sq",
    initial_column: str = "err_sq",
) -> list[str]:
    """The trace starts at the benchmark's target distance, was held to
    the LAPACK rate, and ends within `final_max` in `column`."""
    problems = []
    if not _rel(float(trace[initial_column][0]), target_sq) <= INITIAL_RTOL:
        problems.append(
            f"initial {initial_column} {trace[initial_column][0]!r}, expected {target_sq!r}"
        )
    found = implied_rate(trace)
    if found is not None:
        problems += check_rate(found, expected_rate, "bound column")
    final = float(trace[column][-1])
    if not final <= final_max:
        problems.append(f"final {column} {final:.3e} misses the stated {final_max:.3e}")
    return problems
