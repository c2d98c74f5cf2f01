"""Command-line interface: generate problems, run solvers, compare methods.

Commands:
    randiter generate {consistent,inconsistent,underdetermined} N P ...
    randiter solve PROBLEM_DIR --method rk ...
    randiter compare PROBLEM_DIR --method rk --method rcd ...

Exit codes: 0 success, 2 usage error (data that overflows the oracle
or the run, and an oracle or a generated instance that does not fit in
memory, included), 3 the run did not reach --tol in its method's own
measure (see solvers.drive), 4 I/O error. Diagnostics go to stderr
(controlled by RANDITER_LOG={off,info,debug}, in any case; unset or
empty is off, any other value a usage error); data output never does.
At info and debug the CLI prints its progress lines to stderr itself:
it never imports or configures logging. A call imports only what its
command runs: solvers, kernel and ridge only for the methods that run
on them.

Run as `python -m randiter.cli`, the process switches the cyclic garbage
collector off before its imports, then freezes the objects they leave
(about 32,000) and switches it back on just before main() runs. The
run's own objects are still collected, but no collection walks the
import-time heap, at interpreter exit included; the import-time garbage
stays in memory. main() itself never touches the collector: a process
that calls it, and the installed `randiter` console script, which
imports this module rather than running it as __main__, keep the
collector as it is.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from . import Regime, io, oracle  # noqa: E402
from .errors import RanditerError  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

# One row per method: (reads --lambda > 0, else runs at lambda 0 against
# reference.vec; iterates on alpha from 0 on the n x n system, so takes no
# --beta0; runs on K from --kernel, which stands in for X X^T).
_METHODS = {
    "rk": (False, False, False),
    "rcd": (False, False, False),
    "rk-ridge": (True, True, False),
    "rcd-ridge": (True, False, False),
    "rk-krr": (True, True, True),
}
METHODS = tuple(_METHODS)


class UsageError(Exception):
    pass


def _info(args, msg: str, *values) -> None:
    """Print "randiter: " + msg % values to stderr where main() found
    RANDITER_LOG at info or debug (args.log). At off, hand the record to
    the randiter logger at INFO if the process has imported logging: if
    it has not, no handler could print it."""
    if args.log != "off":
        print("randiter: " + msg % values, file=sys.stderr)
        return
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("randiter").info(msg, *values)


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
    _info(args, "wrote %s instance to %s", args.regime, args.out)
    return EXIT_OK


def _load_problem(problem_dir):
    """(X, y, reference or None, regime) from a problem directory; the
    regime is UNKNOWN when meta.txt is missing or names none."""
    paths = io.problem_paths(problem_dir)
    try:
        X = io.read_matrix(paths["X"])
    except MemoryError:  # the data, not the oracle, which has not run
        raise UsageError(f"out of memory: {paths['X']} does not fit in memory") from None
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
        regime = Regime(meta.get("regime"))
    except ValueError:
        regime = Regime.UNKNOWN
    return X, y, reference, regime


# The run flags that only some methods read: flag -> (args attribute, the
# _METHODS column true for the methods that read it, the --kernel it needs).
_FLAG_READERS = {
    "--lambda": ("lam", 0, None),
    "--kernel": ("kernel", 2, None),
    "--gamma": ("gamma", 2, "gaussian"),
    "--degree": ("degree", 2, "poly"),
    "--offset": ("offset", 2, "poly"),
}


def _check_flags(args, methods, reference):
    """Before any method runs: --tol is finite and >= 0, what each method
    needs is there, some method reads each flag given, and KernelSpec
    takes the kernel parameters."""
    if not 0.0 <= args.tol < np.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    for method in methods:
        reads_lam, _, on_k = _METHODS[method]
        if not reads_lam:
            if reference is None:
                at_zero = "/".join(m for m, row in _METHODS.items() if not row[0])
                raise UsageError(f"{at_zero} need a reference.vec in the problem directory")
        elif args.lam is None or not 0.0 < args.lam < np.inf:
            raise UsageError(f"{method} requires a finite --lambda > 0")
        if on_k and args.kernel is None:
            raise UsageError(f"{method} requires --kernel")
    for flag, (dest, column, kernel_name) in _FLAG_READERS.items():
        readers = [m for m, row in _METHODS.items() if row[column]]
        if getattr(args, dest) is not None and (
                not set(readers) & set(methods) or kernel_name not in (None, args.kernel)):
            where = ", ".join(readers) + (f" with --kernel {kernel_name}" if kernel_name else "")
            raise UsageError(f"{flag} is unused here: it is read only by {where}")
    if args.kernel is not None:  # the checks above leave it set just where a method runs on K
        _kernel_spec(args)


def _kernel_spec(args):
    from .kernel import KernelSpec
    family = {"linear": "linear", "gaussian": "gaussian", "poly": "polynomial"}[args.kernel]
    params = {name: getattr(args, name) for name in ("gamma", "degree", "offset")}
    return KernelSpec(family, **{k: v for k, v in params.items() if v is not None})


def _oracle_step(method, X, y, reference, regime, args, beta0):
    """One method's oracle quantities (targets, M, theoretical rate),
    computed once for all trials. Returns (rate, solve), where
    solve(run_config) is the per-trial solver step. M is oracle.small_gram(X) + lambda I
    (lambda 0 where --lambda is not read), or K + lambda I. Data that overflows M, y^T y
    or the trace of the Gram the method runs on, checked before any closed form, or the
    targets the method reads, checked before any run, is a usage error."""
    n, p = X.shape
    reads_lam, dual, on_k = _METHODS[method]
    lam = args.lam if reads_lam else 0.0
    source = method
    with np.errstate(over="ignore", invalid="ignore"):
        if on_k:  # rows of X are the data points
            spec = _kernel_spec(args)
            M, name = oracle.gram_matrix(spec, X) + lam * np.eye(n), "K + lambda I"
            params = {"polynomial": f" --degree {spec.degree} --offset {spec.offset}",
                      "gaussian": f" --gamma {spec.gamma}"}.get(spec.family, "")
            source = f"--kernel {args.kernel}{params}"
        else:
            M = oracle.small_gram(X) + lam * np.eye(min(n, p))
            name = ("X^T X" if p <= n else "X X^T") + (" + lambda I" if lam else "")
        yy = y @ y
        size = n if dual else p  # the Gram + lambda I the method runs on is size x size
        trace = np.trace(M) + (size - len(M)) * lam  # the rate's denominator, the sampler's total
        if not (np.isfinite(M.min()) and np.isfinite(M.max())):  # NaN and inf show there
            raise UsageError(f"{source} overflows on this data: {name} has non-finite entries")
        if not np.isfinite(yy):
            raise UsageError("y overflows on this data: y^T y is non-finite")
        if not np.isfinite(trace):
            raise UsageError(f"{method} overflows on this data: the trace of its Gram"
                             f"{' + lambda I' if lam else ''} is non-finite")
        # for p > n, the errors measured at lambda 0 see only X^T X's positive eigenvalues
        positive_only = not reads_lam and p > n
        rate = oracle.theoretical_rate(M, positive_only, size, lam)
        if not reads_lam:
            from . import solvers
            return rate, lambda cfg: solvers.run(method, X, y, regime, cfg, reference, rate, beta0)
        beta_rr, alpha_star = ((None, oracle.krr_alpha_star(X, y, spec, lam, M)) if on_k
                               else oracle.ridge_solution(X, y, lam, M))
    # the targets the method reads: beta_RR when it runs on X, alpha* on the n x n system
    for target, value in (("beta_RR", beta_rr), ("alpha*", alpha_star if dual else None)):
        if value is not None and not np.isfinite(value).all():
            raise UsageError(f"{method} overflows at --lambda {lam}: its {target} is non-finite")
    if on_k:
        from . import kernel
        return rate, lambda cfg: kernel.krr_run(X, y, spec, lam, cfg, alpha_star, rate)
    from . import ridge
    if dual:
        return rate, lambda cfg: ridge.rk_ridge_run(X, y, lam, cfg, beta_rr, alpha_star, rate)
    return rate, lambda cfg: ridge.rcd_ridge_run(X, y, lam, cfg, beta_rr, rate, beta0)


def _runs(args, methods):
    """Load the problem and check every method's flags and --beta0; then
    yield (method, traces, theoretical_rate) per method from its oracle
    step and one run per trial, with seeds args.seed, args.seed + 1, ..."""
    from . import solvers
    X, y, reference, regime = _load_problem(args.problem_dir)
    dual = [method for method in methods if _METHODS[method][1]]
    if args.beta0 is not None and dual:
        raise UsageError(f"{dual[0]} does not take --beta0: it starts from alpha = 0")
    beta0 = None if args.beta0 is None else io.read_vector(args.beta0)
    if beta0 is not None and beta0.shape[0] != X.shape[1]:
        raise UsageError(f"--beta0 has length {beta0.shape[0]}, expected {X.shape[1]}")
    _check_flags(args, methods, reference)
    config = solvers.RunConfig(max_iters=args.iters, tol=args.tol, seed=args.seed,
                               checkpoint_every=args.checkpoint_every)
    for method in methods:
        rate, solve = _oracle_step(method, X, y, reference, regime, args, beta0)
        # an iterate that overflows is traced as inf and stops its run
        # (exit 3); numpy's warnings about it would only add noise on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            traces = [solve(dataclasses.replace(config, seed=args.seed + trial))
                      for trial in range(args.trials)]
        yield method, traces, rate


def _mean_trace(traces):
    """Entrywise mean over the checkpoint prefix common to all trials."""
    from .solvers import ConvergenceTrace, TraceRecord
    length = min(len(t.records) for t in traces)
    # trials on the last, contiguous axis: a mean along it sums in the
    # order np.mean of one list of values does
    values = np.stack([[(r.err_sq, r.energy_err_sq, r.residual_sq, r.bound)
                        for r in t.records[:length]] for t in traces], axis=-1)
    return ConvergenceTrace([TraceRecord(r.iter, *m) for r, m in
                             zip(traces[0].records, values.mean(axis=-1).tolist())])


def cmd_solve(args) -> int:
    [(_, traces, _)] = _runs(args, [args.method])
    io.write_trace_csv(args.out, traces[0])
    if len(traces) > 1:
        io.write_trace_csv(args.out + ".mean.csv", _mean_trace(traces))
    _info(args, "solve %s: final err_sq=%.3e", args.method, traces[0].final().err_sq)

    if not traces[0].converged:
        _info(args, "did not converge within %d iterations", args.iters)
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
    setting = os.environ.get("RANDITER_LOG", "").lower() or "off"
    if setting not in ("off", "info", "debug"):
        print(f"randiter: RANDITER_LOG must be off, info or debug (any case), got "
              f"{os.environ['RANDITER_LOG']!r}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.log = setting
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_compare(args)
    except OSError as exc:
        print(f"randiter: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, RanditerError, ValueError) as exc:
        print(f"randiter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        what = (f"the {args.n} x {args.p} instance does not fit in memory"
                if args.command == "generate"
                else "the closed-form oracle does not fit in memory for this problem")
        print(f"randiter: out of memory: {what}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(main())
