"""Command-line interface: generate problems, run solvers, compare methods.

Commands:
    randiter generate {consistent,inconsistent,underdetermined} N P ...
    randiter solve PROBLEM_DIR --method rk ...
    randiter compare PROBLEM_DIR --method rk --method rcd ...

Exit codes: 0 success, 2 usage error (data that overflows the oracle
or the run, or an oracle that does not fit in memory, included), 3 the
run did not reach --tol in its method's own measure (see
solvers.drive), 4 I/O error. Diagnostics go to stderr (controlled by
RANDITER_LOG={off,info,debug}); data output never does.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys

import numpy as np

from . import io, kernel, oracle, ridge, solvers
from .errors import RanditerError

log = logging.getLogger("randiter")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

METHODS = ("rk", "rcd", "rk-ridge", "rcd-ridge", "rk-krr")


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _stderr_logging():
    """While one command runs, send the randiter logger's records to
    stderr at the RANDITER_LOG level (info or debug; off adds nothing).
    Only that logger is touched, and it is restored afterwards, so a
    process that calls main() keeps its own logging."""
    setting = os.environ.get("RANDITER_LOG", "off").lower()
    if setting == "off":
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("randiter: %(message)s"))
    saved = log.level, log.propagate
    log.addHandler(handler)
    log.setLevel(logging.DEBUG if setting == "debug" else logging.INFO)
    log.propagate = False
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def _int_at_least(low: int):
    """An argparse type: an int that is at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randiter")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a problem instance")
    gen.add_argument("regime", choices=["consistent", "inconsistent", "underdetermined"])
    gen.add_argument("n", type=_int_at_least(1))
    gen.add_argument("p", type=_int_at_least(1))
    gen.add_argument("--seed", type=_int_at_least(0), default=0)
    gen.add_argument("--noise", type=float, default=None)
    gen.add_argument("--out", required=True)

    def add_run_flags(p):
        p.add_argument("--iters", type=_int_at_least(1), default=10000)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--kernel", choices=["linear", "gaussian", "poly"], default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--offset", type=float, default=None)
        p.add_argument("--checkpoint-every", type=_int_at_least(1), default=None)
        p.add_argument("--trials", type=_int_at_least(1), default=1)
        p.add_argument("--beta0", default=None, help="vector file; default zero")
        p.add_argument("--out", required=True)

    slv = sub.add_parser("solve", help="run one solver, write a trace CSV")
    slv.add_argument("problem_dir")
    slv.add_argument("--method", choices=METHODS, required=True)
    add_run_flags(slv)

    cmp_ = sub.add_parser("compare", help="run several methods, write a summary CSV")
    cmp_.add_argument("problem_dir")
    cmp_.add_argument("--method", choices=METHODS, action="append", required=True)
    add_run_flags(cmp_)
    return parser


def cmd_generate(args) -> int:
    if args.noise is not None and args.regime != "inconsistent":
        raise UsageError("--noise is unused here: it is read only by generate inconsistent")
    noise = oracle.NOISE_SCALE_DEFAULT if args.noise is None else args.noise
    if args.regime == "consistent":
        inst = oracle.gen_consistent(args.n, args.p, args.seed)
    elif args.regime == "inconsistent":
        inst = oracle.gen_inconsistent(args.n, args.p, noise, args.seed)
    else:
        inst = oracle.gen_underdetermined(args.n, args.p, args.seed)

    os.makedirs(args.out, exist_ok=True)
    paths = io.problem_paths(args.out)
    io.write_matrix(paths["X"], inst.X)
    io.write_vector(paths["y"], inst.y)
    io.write_vector(paths["reference"], inst.reference)
    meta = {
        "regime": args.regime,
        "n": args.n,
        "p": args.p,
        "seed": args.seed,
    }
    if inst.z is not None:
        meta["noise_scale"] = noise
        meta["norm_z"] = float(np.linalg.norm(inst.z))
    io.write_meta(paths["meta"], meta)
    log.info("wrote %s instance to %s", args.regime, args.out)
    return EXIT_OK


def _load_problem(problem_dir):
    """(X, y, reference or None, regime) from a problem directory; the
    regime is UNKNOWN when meta.txt is missing or names none."""
    paths = io.problem_paths(problem_dir)
    X = io.read_matrix(paths["X"])
    y = io.read_vector(paths["y"])
    reference = io.read_vector(paths["reference"]) if os.path.exists(paths["reference"]) else None
    meta = io.read_meta(paths["meta"]) if os.path.exists(paths["meta"]) else {}
    if y.shape[0] != X.shape[0]:
        raise IOError(f"{paths['y']}: {y.shape[0]} values for the {X.shape[0]} rows of X")
    if reference is not None and reference.shape[0] != X.shape[1]:
        raise IOError(
            f"{paths['reference']}: {reference.shape[0]} values for the {X.shape[1]} columns of X"
        )
    try:
        regime = solvers.Regime(meta.get("regime"))
    except ValueError:
        regime = solvers.Regime.UNKNOWN
    return X, y, reference, regime


# The run flags that only some methods read: flag -> (args attribute,
# the methods that read it, the --kernel it needs, if any).
_FLAG_READERS = {
    "--lambda": ("lam", ("rk-ridge", "rcd-ridge", "rk-krr"), None),
    "--kernel": ("kernel", ("rk-krr",), None),
    "--gamma": ("gamma", ("rk-krr",), "gaussian"),
    "--degree": ("degree", ("rk-krr",), "poly"),
    "--offset": ("offset", ("rk-krr",), "poly"),
}


def _check_flags(args, methods, reference):
    """Before any method runs: --tol is finite and >= 0, what each method
    needs is there, and some method reads each flag given."""
    if not 0.0 <= args.tol < np.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    for method in methods:
        if method in ("rk", "rcd"):
            if reference is None:
                raise UsageError("rk/rcd need a reference.vec in the problem directory")
        elif args.lam is None or not 0.0 < args.lam < np.inf:
            raise UsageError(f"{method} requires a finite --lambda > 0")
        if method == "rk-krr" and args.kernel is None:
            raise UsageError("rk-krr requires --kernel")
    for flag, (dest, readers, kernel_name) in _FLAG_READERS.items():
        if getattr(args, dest) is not None and (
                not set(readers) & set(methods) or kernel_name not in (None, args.kernel)):
            where = ", ".join(readers) + (f" with --kernel {kernel_name}" if kernel_name else "")
            raise UsageError(f"{flag} is unused here: it is read only by {where}")


def _kernel_spec(args) -> kernel.KernelSpec:
    family = {"linear": "linear", "gaussian": "gaussian", "poly": "polynomial"}[args.kernel]
    params = {name: getattr(args, name) for name in ("gamma", "degree", "offset")}
    return kernel.KernelSpec(family, **{k: v for k, v in params.items() if v is not None})


def _oracle_step(method, X, y, reference, regime, args):
    """One method's oracle quantities (targets, M, theoretical rate),
    computed once for all trials. Returns (rate, solve), where
    solve(run_config) is the per-trial solver step. M, y^T y and the trace
    of the Gram the method runs on come first and must be finite, so data
    that overflows them is a usage error before any closed form or run starts
    on it. M is oracle.small_gram(X) + lambda I (lambda 0 for rk and rcd), or K + lambda I."""
    n, p = X.shape
    lam = 0.0 if method in ("rk", "rcd") else args.lam
    source = method
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "rk-krr":  # rows of X are the data points
            spec = _kernel_spec(args)
            M, name = oracle.gram_matrix(spec, X) + lam * np.eye(n), "K + lambda I"
            params = {"polynomial": f" --degree {spec.degree} --offset {spec.offset}",
                      "gaussian": f" --gamma {spec.gamma}"}.get(spec.family, "")
            source = f"--kernel {args.kernel}{params}"
        else:
            M = oracle.small_gram(X) + lam * np.eye(min(n, p))
            name = ("X^T X" if p <= n else "X X^T") + (" + lambda I" if lam else "")
        yy = y @ y
        # the Gram + lambda I a method runs on is n x n for the dual methods, else p x p
        size = n if method in _NO_BETA0 else p
        trace = np.trace(M) + (size - len(M)) * lam  # the rate's denominator, the sampler's total
    if not np.all(np.isfinite(M)):
        raise UsageError(f"{source} overflows on this data: {name} has non-finite entries")
    if not np.isfinite(yy):
        raise UsageError("y overflows on this data: y^T y is non-finite")
    if not np.isfinite(trace):
        raise UsageError(f"{method} overflows on this data: the trace of its Gram"
                         f"{' + lambda I' if lam else ''} is non-finite")

    # for p > n, the errors rk and rcd measure see only X^T X's positive eigenvalues
    positive_only = method in ("rk", "rcd") and p > n
    rate = oracle.theoretical_rate(M, positive_only, size, lam)
    if method in ("rk", "rcd"):
        return rate, lambda cfg: solvers.run(method, X, y, regime, cfg, reference, rate)
    if method == "rk-krr":
        alpha_star = oracle.krr_alpha_star(X, y, spec, lam, M)
        return rate, lambda cfg: kernel.krr_run(X, y, spec, lam, cfg, alpha_star, rate)
    beta_rr, alpha_star = oracle.ridge_solution(X, y, lam, M)
    if method == "rk-ridge":
        return rate, lambda cfg: ridge.rk_ridge_run(X, y, lam, cfg, beta_rr, alpha_star, rate)
    return rate, lambda cfg: ridge.rcd_ridge_run(X, y, lam, cfg, beta_rr, rate)


# Dual methods: they iterate on alpha from 0 and keep beta = X^T alpha,
# so a primal start vector has no meaning for them.
_NO_BETA0 = ("rk-ridge", "rk-krr")


def _read_beta0(args, methods, p):
    """The --beta0 vector, checked against every method to be run and
    against the problem's p, before any of them runs; None if unset."""
    if args.beta0 is None:
        return None
    for method in methods:
        if method in _NO_BETA0:
            raise UsageError(f"{method} does not take --beta0: it starts from alpha = 0")
    beta0 = io.read_vector(args.beta0)
    if beta0.shape[0] != p:
        raise UsageError(f"--beta0 has length {beta0.shape[0]}, expected {p}")
    return beta0


def _runs(args, methods):
    """Load the problem and check every method's flags and --beta0; then
    yield (method, traces, theoretical_rate) per method from its oracle
    step and one run per trial, with seeds args.seed, args.seed + 1, ..."""
    X, y, reference, regime = _load_problem(args.problem_dir)
    beta0 = _read_beta0(args, methods, X.shape[1])
    _check_flags(args, methods, reference)
    config = solvers.RunConfig(max_iters=args.iters, tol=args.tol, seed=args.seed,
                               checkpoint_every=args.checkpoint_every, beta0=beta0)
    for method in methods:
        rate, solve = _oracle_step(method, X, y, reference, regime, args)
        yield method, [solve(dataclasses.replace(config, seed=args.seed + trial))
                       for trial in range(args.trials)], rate


def _mean_trace(traces) -> solvers.ConvergenceTrace:
    """Entrywise mean over the checkpoint prefix common to all trials."""
    length = min(len(t.records) for t in traces)
    # trials on the last, contiguous axis: a mean along it sums in the
    # order np.mean of one list of values does
    values = np.stack([[dataclasses.astuple(r)[1:] for r in t.records[:length]]
                       for t in traces], axis=-1)
    return solvers.ConvergenceTrace([solvers.TraceRecord(r.iter, *m) for r, m in
                                     zip(traces[0].records, values.mean(axis=-1).tolist())])


def cmd_solve(args) -> int:
    [(_, traces, _)] = _runs(args, [args.method])
    io.write_trace_csv(args.out, traces[0])
    if len(traces) > 1:
        io.write_trace_csv(args.out + ".mean.csv", _mean_trace(traces))
    log.info("solve %s: final err_sq=%.3e", args.method, traces[0].final().err_sq)

    if not traces[0].converged:
        log.info("did not converge within %d iterations", args.iters)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _contraction_per_iter(trace, natural: str) -> float:
    """Empirical per-iteration contraction fitted between the first and
    last checkpoints with positive error."""
    recs = [r for r in trace.records if getattr(r, natural) > 0.0]
    if len(recs) < 2 or recs[-1].iter == recs[0].iter:
        return 0.0
    ratio = getattr(recs[-1], natural) / getattr(recs[0], natural)
    return ratio ** (1.0 / (recs[-1].iter - recs[0].iter))


def _iters_to_tol(traces, natural: str, tol: float) -> int:
    """The checkpoint by which every trial had reached tol in `natural`,
    or -1 if some trial never did. Taken per trial, not from the mean
    trace, which covers only the checkpoints every trial recorded."""
    firsts = [next((r.iter for r in t.records if getattr(r, natural) <= tol * tol), -1)
              for t in traces]
    return -1 if -1 in firsts else max(firsts)


def cmd_compare(args) -> int:
    rows = []
    for method, traces, rate in _runs(args, args.method):
        mean = _mean_trace(traces) if len(traces) > 1 else traces[0]
        natural = traces[0].natural
        # means over each trial's own last checkpoint; the mean trace
        # ends at the earliest of them
        final = [float(np.mean([getattr(t.final(), col) for t in traces]))
                 for col in ("err_sq", "energy_err_sq", "residual_sq")]
        floats = [*final, rate, _contraction_per_iter(mean, natural)]
        rows.append(f"{method},{len(traces)},{_iters_to_tol(traces, natural, args.tol)},"
                    + ",".join(map(io.fmt, floats)) + "\n")
    with open(args.out, "w", newline="\n") as f:
        f.write("method,trials,iters_to_tol,final_err_sq,final_energy_err_sq,"
                "final_residual_sq,theoretical_rate,contraction_per_iter\n")
        f.writelines(rows)
    return EXIT_OK


def main(argv=None) -> int:
    with _stderr_logging():
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        try:
            if args.command == "generate":
                return cmd_generate(args)
            if args.command == "solve":
                return cmd_solve(args)
            return cmd_compare(args)
        except UsageError as exc:
            print(f"randiter: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, IOError) as exc:
            print(f"randiter: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (RanditerError, ValueError) as exc:
            print(f"randiter: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError:
            print("randiter: out of memory: the closed-form oracle does not fit in memory "
                  "for this problem", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
