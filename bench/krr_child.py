"""Kernel ridge regression through the library, as a user runs it at an n
where the CLI cannot: `solve --method rk-krr` forms K and eigen-solves it.

    python bench/krr_child.py PROBLEM_DIR ALPHA_STAR_VEC RATE ITERS SEED GAMMA LAMBDA OUT_CSV

Reads the problem with randiter.io, runs kernel.krr_run with
energy_matrix=None, so checkpoints apply K one kernel column at a time,
and writes the trace CSV. alpha* and the rate are the benchmark's own
numpy references; the run never sees an n x n matrix.
"""

from __future__ import annotations

import os
import sys


def krr_call(problem_dir, alpha_star_path, rate, iters, seed, gamma, lam, out) -> int:
    from randiter import io, kernel, solvers

    X = io.read_matrix(os.path.join(problem_dir, "X.mtx"))
    y = io.read_vector(os.path.join(problem_dir, "y.vec"))
    alpha_star = io.read_vector(alpha_star_path)
    trace = kernel.krr_run(
        X,
        y,
        kernel.KernelSpec("gaussian", gamma=float(gamma)),
        float(lam),
        solvers.RunConfig(max_iters=int(iters), seed=int(seed)),
        alpha_star,
        float(rate),
    )
    io.write_trace_csv(out, trace)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 9:
        sys.exit(__doc__)
    sys.exit(krr_call(*sys.argv[1:]))
