"""Time one step of each method at fixed shapes, in process.

Usage: python3 tools/step_cost.py [--repeats R] [--every N] [--set NAME=VALUE,...]
                                  [--against NAME=VALUE,... ...] [--case CASE ...]

Each case runs one method's library entry point (solvers.run,
ridge.rk_ridge_run, ridge.rcd_ridge_run, kernel.krr_run) on the seeded
instance of a fixed shape that `randiter generate` would write
(consistent, or underdetermined where n < p; X in column-major order,
as the CLI reads it), from zero targets, R times, and prints the median
CPU time per step taken, in µs (CPU time of this process: a run the
machine descheduled is not charged for it). BLAS is pinned to one
thread before numpy is imported. A case is a name from CASES or
METHOD:NxP, say rcd:341x10.

By default a run records one checkpoint, at its end, so its draw blocks
are 1000 steps long and the time is the step loop's; `--every N`, or a
case that names its own cadence, records a checkpoint every N steps
instead, which cuts every block to N steps (and adds the checkpoints'
cost). `--every` overrides a case's own cadence. `--set` overrides module
constants of randiter.solvers, for example SWEEP_STEPS=64. Each
`--against` adds a setting, overrides on top of `--set`, timed in turn
with the first, run by run, so that a drift in the host's speed moves
every column alike: the way to grid the sweep thresholds on a shared
machine.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from randiter import kernel, oracle, ridge, solvers  # noqa: E402

LAM = 0.1
GAUSSIAN = kernel.KernelSpec("gaussian", gamma=0.5)
STEPS = 20000  # per run; rk-krr's runs take 8000
# name: (method, n, p, checkpoint cadence or None for one checkpoint)
CASES = {
    "rk-30x10": ("rk", 30, 10, None),
    "rcd-30x10": ("rcd", 30, 10, None),
    "rk-40x80": ("rk", 40, 80, None),
    "rk-ridge-40x80": ("rk-ridge", 40, 80, None),
    "rcd-ridge-40x80": ("rcd-ridge", 40, 80, None),
    "rcd-500x10": ("rcd", 500, 10, None),  # columns past the sweep cap
    "rk-krr-2000x3": ("rk-krr", 2000, 3, None),
    # short runs: a checkpoint, and its K v pass, every 7 steps
    "rk-krr-40x80-every7": ("rk-krr", 40, 80, 7),
}
METHODS = ("rk", "rcd", "rk-ridge", "rcd-ridge", "rk-krr")


def parse_case(text):
    """(method, n, p, cadence) of a case name or METHOD:NxP."""
    if text in CASES:
        return CASES[text]
    method, _, shape = text.partition(":")
    n, _, p = shape.partition("x")
    if method not in METHODS or not (n.isdigit() and p.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is no case name or METHOD:NxP")
    return method, int(n), int(p), None


def parse_setting(text):
    """{NAME: int} from NAME=VALUE,..."""
    setting = {}
    for item in filter(None, text.split(",")):
        name, _, value = item.partition("=")
        if not hasattr(solvers, name) or not value.isdigit():
            raise argparse.ArgumentTypeError(f"{item!r}: expected NAME=INT, a solvers name")
        setting[name] = int(value)
    return setting


def runner(method, n, p, every):
    """A function that takes one run and returns its trace."""
    inst = (oracle.gen_underdetermined if n < p else oracle.gen_consistent)(n, p, 7)
    X, y = inst.X, inst.y
    steps = 8000 if method == "rk-krr" else STEPS
    config = solvers.RunConfig(max_iters=steps, tol=0.0, seed=3, checkpoint_every=every or steps)
    if method in ("rk", "rcd"):
        regime = solvers.Regime.UNKNOWN
        return lambda: solvers.run(method, X, y, regime, config, np.zeros(p), 0.9)
    if method == "rk-ridge":
        return lambda: ridge.rk_ridge_run(X, y, LAM, config, np.zeros(p), np.zeros(n), 0.9)
    if method == "rcd-ridge":
        return lambda: ridge.rcd_ridge_run(X, y, LAM, config, np.zeros(p), 0.9)
    return lambda: kernel.krr_run(X, y, GAUSSIAN, LAM, config, np.zeros(n), 0.9)


def us_per_step(run):
    """CPU time per step of one run, in µs."""
    start = time.process_time()
    trace = run()
    return (time.process_time() - start) / trace.final().iter * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--every", type=int, default=None)
    parser.add_argument("--set", type=parse_setting, default={})
    parser.add_argument("--against", type=parse_setting, action="append", default=[])
    parser.add_argument("--case", type=parse_case, action="append")
    args = parser.parse_args(argv)
    # each setting starts from the module's own values
    defaults = {name: getattr(solvers, name) for s in [args.set, *args.against] for name in s}
    settings = [args.set] + [{**args.set, **s} for s in args.against]
    names = ["base"] + [",".join(f"{k}={v}" for k, v in s.items()) for s in args.against]
    widths = [max(12, len(name) + 2) for name in names]
    print("case".ljust(24) + "".join(name.rjust(w) for name, w in zip(names, widths)))
    for method, n, p, every in args.case or CASES.values():
        run = runner(method, n, p, args.every or every)
        times = [[] for _ in settings]
        for _ in range(args.repeats):
            for setting, column in zip(settings, times):
                for name, value in {**defaults, **setting}.items():
                    setattr(solvers, name, value)
                column.append(us_per_step(run))
        label = f"{method}:{n}x{p}" + (f"/{args.every or every}" if args.every or every else "")
        print(label.ljust(24)
              + "".join(f"{statistics.median(c):.3f}".rjust(w) for c, w in zip(times, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
