"""The benchmark's workloads: the calls each one makes, and how each
call's output is checked against the references in refs.py.

A workload has three phases. `setup()` is its `randiter generate` calls,
timed as `setup_s`. `prepare()` computes the numpy references from the
generated files, outside all timing. `calls()` is the fixed call set
whose wall time is `wall_s`. Every call ends at a stated iteration cap,
or at a stated accuracy within a few cheap checkpoints, so the work in a
call set hardly depends on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs

CLI_TOL = 1e-12  # the CLI's default --tol; decides exit 3
LS_RTOL = 1e-10  # stated accuracy ||beta - ref|| / ||ref|| for rk and rcd
RIDGE_RTOL = 1e-6  # the same for rk-ridge, rcd-ridge and rk-krr
# Inconsistent RK stops at a horizon, not at beta_LS: the stated accuracy
# is a multiple of ||z||^2 / sigma_min(X)^2, z = y - X beta_LS.
HORIZON_FACTOR = 4.0
# Matrix-free KRR at n = 2000 is held to a share of its initial energy
# error: the stated iteration cap is far from machine precision.
KRR_ENERGY_SHARE = 0.1
# dual-oracle's one instance, whatever the run's --seed (see DualOracle).
INSTANCE_SEED = 1


@dataclass
class Call:
    """One user call: `python -m randiter.cli ARGS`, or for kind "krr"
    `python bench/krr_child.py ARGS`."""

    name: str
    args: list[str]
    kind: str = "cli"
    ok_codes: tuple[int, ...] = (0,)
    check: Callable[[], list[str]] = field(default=lambda: [])
    # Trace whose final `own_column` is the method's own convergence
    # measure: an exit 3 with that value <= CLI_TOL^2 is a false exit 3.
    own_trace: str | None = None
    own_column: str = "residual_sq"
    # Files and directories the call writes; removed before it runs, so
    # a call that writes nothing cannot pass on a stale output.
    outputs: tuple[str, ...] = ()


class Workload:
    name = ""
    layers: tuple[str, ...] = ()  # the layers the workload exists to stress
    setup_reps = 5
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, work: str, seed: int, tiny: bool = False):
        self.work = work
        self.seed = seed
        self.p = self.TINY if tiny else self.FULL
        self.refs: dict = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def load(self, name: str):
        X = refs.read_matrix(self.path(name, "X.mtx"))
        y = refs.read_vector(self.path(name, "y.vec"))
        return X, y

    def generate(self, regime: str, n: int, p: int, name: str, seed: int) -> Call:
        """`randiter generate` with instance seed `seed`."""
        out = self.path(name)

        def check() -> list[str]:
            X, y = self.load(name)
            if X.shape != (n, p) or y.shape != (n,):
                return [f"generated X {X.shape}, y {y.shape}, expected ({n}, {p})"]
            problems = refs.check_reference(
                refs.read_vector(self.path(name, "reference.vec")), refs.ls_reference(X, y)
            )
            if refs.read_meta(self.path(name, "meta.txt")).get("regime") != regime:
                problems.append(f"meta.txt does not name the {regime} regime")
            return problems

        args = ["generate", regime, str(n), str(p), "--seed", str(seed), "--out", out]
        return Call(f"generate {regime} {n}x{p}", args, check=check, outputs=(out,))

    def instance_seed(self, k: int) -> int:
        """Seed of the workload's k-th instance under the run's --seed."""
        return 1000 * self.seed + k

    def setup(self) -> list[Call]:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def solve(self, name: str, method: str, extra: list[str], check, own_column: str) -> Call:
        out = self.path(name, f"{method}.csv")
        args = ["solve", self.path(name), "--method", method, *extra]
        args += ["--seed", str(self.seed), "--out", out]
        return Call(
            f"solve {method} {name}",
            args,
            ok_codes=(0, 3),
            check=lambda: check(out),
            own_trace=out,
            own_column=own_column,
            outputs=(out, out + ".mean.csv"),
        )


class LsLoop(Workload):
    """rk and rcd on small p = 10 instances: the sampler and step loop."""

    name = "ls-loop"
    layers = ("sampling", "solvers")
    FULL = dict(n=30, p=10, iters=15000, trials=2)
    TINY = dict(n=12, p=4, iters=2000, trials=2)

    def setup(self):
        n, p = self.p["n"], self.p["p"]
        return [
            self.generate("consistent", n, p, "consistent", self.instance_seed(1)),
            self.generate("inconsistent", n, p, "inconsistent", self.instance_seed(2)),
        ]

    def prepare(self):
        for name in ("consistent", "inconsistent"):
            X, y = self.load(name)
            beta = refs.ls_reference(X, y)
            w = np.linalg.eigvalsh(X.T @ X)
            z = y - X @ beta
            self.refs[name] = dict(
                beta_sq=float(beta @ beta),
                rate=float(1.0 - w[0] / w.sum()),
                horizon=float(z @ z) / float(w[0]),
            )

    def calls(self):
        iters, trials = str(self.p["iters"]), self.p["trials"]
        # One checkpoint at the cap: every call runs exactly trials * iters steps.
        extra = ["--iters", iters, "--trials", str(trials), "--checkpoint-every", iters]
        out = []
        for name in ("consistent", "inconsistent"):
            r = self.refs[name]
            for method in ("rk", "rcd"):
                if name == "inconsistent" and method == "rk":
                    final_max = HORIZON_FACTOR * r["horizon"]
                else:
                    final_max = LS_RTOL**2 * r["beta_sq"]

                def check(csv, r=r, final_max=final_max):
                    mean = csv + ".mean.csv" if trials > 1 else csv
                    trace = refs.read_trace(mean)
                    return refs.check_trace(trace, r["beta_sq"], r["rate"], final_max)

                out.append(self.solve(name, method, extra, check, "residual_sq"))
        return out


class LsTall(Workload):
    """A tall instance: MatrixMarket write in set-up, reads in every solve."""

    name = "ls-tall"
    layers = ("io",)
    setup_reps = 3
    FULL = dict(n=50000, p=10, rk_iters=20000)
    TINY = dict(n=400, p=5, rk_iters=2000)

    def setup(self):
        n, p = self.p["n"], self.p["p"]
        return [self.generate("consistent", n, p, "tall", self.instance_seed(1))]

    def prepare(self):
        X, y = self.load("tall")
        beta = refs.ls_reference(X, y)
        self.refs = dict(beta_sq=float(beta @ beta), rate=refs.rate(X.T @ X))

    def calls(self):
        r = self.refs

        def check(csv):
            trace = refs.read_trace(csv)
            return refs.check_trace(trace, r["beta_sq"], r["rate"], LS_RTOL**2 * r["beta_sq"])

        rk_iters = ["--iters", str(self.p["rk_iters"])]
        return [
            self.solve("tall", "rk", rk_iters, check, "residual_sq"),
            self.solve("tall", "rcd", [], check, "residual_sq"),
        ]


class DualOracle(Workload):
    """Ridge and kernel ridge on one underdetermined instance, where the
    oracle's eigen-solves dominate.

    The instance is the same for every --seed, which varies only the
    solvers' sampling. The oracle's Jacobi eigensolver runs either about
    8 sweeps or its 100-sweep cap, depending on the matrix (its stopping
    test subtracts two nearly equal sums, so it can miss a 1e-12 relative
    threshold by rounding), and a sweep costs the same either way; so the
    cost of this workload jumps up to 2.5x from one instance to the next.
    One fixed instance keeps run-to-run spread down to host noise.
    """

    name = "dual-oracle"
    layers = ("oracle", "linalg")
    setup_reps = 3
    FULL = dict(n=40, p=80, lam=10.0, gamma=0.01, iters=10000, trials=2)
    TINY = dict(n=6, p=12, lam=10.0, gamma=0.01, iters=3000, trials=2)
    METHODS = ("rk-ridge", "rcd-ridge", "rk-krr")

    def setup(self):
        return [self.generate("underdetermined", self.p["n"], self.p["p"], "dual", INSTANCE_SEED)]

    def prepare(self):
        X, y = self.load("dual")
        lam, n, p = self.p["lam"], X.shape[0], X.shape[1]
        beta = refs.ridge_beta(X, y, lam)
        K = refs.gaussian_gram(X, self.p["gamma"]) + lam * np.eye(n)
        alpha_krr = np.linalg.solve(K, y)
        self.refs = {
            "rk-ridge": (float(beta @ beta), refs.rate(X @ X.T + lam * np.eye(n))),
            "rcd-ridge": (float(beta @ beta), refs.rate(X.T @ X + lam * np.eye(p))),
            "rk-krr": (float(alpha_krr @ alpha_krr), refs.rate(K)),
        }

    def calls(self):
        p = self.p
        solve_args = ["--lambda", str(p["lam"]), "--iters", str(p["iters"])]
        summary = self.path("dual", "compare.csv")
        args = ["compare", self.path("dual")]
        for method in self.METHODS:
            args += ["--method", method]
        args += ["--kernel", "gaussian", "--gamma", str(p["gamma"]), "--trials", str(p["trials"])]
        args += solve_args + ["--seed", str(self.seed), "--out", summary]

        def check_compare() -> list[str]:
            rows = refs.read_summary(summary)
            problems = []
            for method in self.METHODS:
                if method not in rows:
                    problems.append(f"compare has no {method} row")
                    continue
                row, (target_sq, rate) = rows[method], self.refs[method]
                if int(row["trials"]) != p["trials"]:
                    problems.append(f"{method}: {row['trials']} trials")
                problems += refs.check_rate(float(row["theoretical_rate"]), rate, method)
                final = float(row["final_err_sq"])
                if not final <= RIDGE_RTOL**2 * target_sq:
                    problems.append(f"{method}: final_err_sq {final:.3e} misses the accuracy")
            return problems

        def check_solve(csv):
            target_sq, rate = self.refs["rk-ridge"]
            trace = refs.read_trace(csv)
            return refs.check_trace(trace, target_sq, rate, RIDGE_RTOL**2 * target_sq)

        return [
            Call("compare ridge+krr dual", args, check=check_compare, outputs=(summary,)),
            self.solve("dual", "rk-ridge", solve_args, check_solve, "energy_err_sq"),
        ]


class KrrMatfree(Workload):
    """Matrix-free kernel ridge at n = 2000 through kernel.krr_run."""

    name = "krr-matfree"
    layers = ("kernel",)
    FULL = dict(n=2000, p=3, gamma=0.5, lam=0.1, iters=20000)
    TINY = dict(n=80, p=3, gamma=0.5, lam=0.1, iters=3000)

    def setup(self):
        n, p = self.p["n"], self.p["p"]
        return [self.generate("inconsistent", n, p, "krr", self.instance_seed(1))]

    def prepare(self):
        X, y = self.load("krr")
        A = refs.gaussian_gram(X, self.p["gamma"]) + self.p["lam"] * np.eye(X.shape[0])
        alpha = np.linalg.solve(A, y)
        path = self.path("alpha_star.vec")  # outside the instance set-up rewrites
        with open(path, "w") as f:
            f.writelines(format(float(a), ".17g") + "\n" for a in alpha)
        self.refs = dict(alpha_path=path, energy=float(alpha @ A @ alpha), rate=refs.rate(A))

    def calls(self):
        p, r = self.p, self.refs
        out = self.path("krr", "krr.csv")
        args = [self.path("krr"), r["alpha_path"], repr(r["rate"]), str(p["iters"])]
        args += [str(self.seed), str(p["gamma"]), str(p["lam"]), out]

        def check():
            trace = refs.read_trace(out)
            final_max = KRR_ENERGY_SHARE * r["energy"]
            return refs.check_trace(
                trace, r["energy"], r["rate"], final_max, "energy_err_sq", "energy_err_sq"
            )

        return [Call("krr_run gaussian", args, kind="krr", check=check, outputs=(out,))]


WORKLOADS = {w.name: w for w in (LsLoop, LsTall, DualOracle, KrrMatfree)}
