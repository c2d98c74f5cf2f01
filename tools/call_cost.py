"""Time whole `python -m randiter.cli` calls from two source trees.

Usage: python3 tools/call_cost.py PARENT_SRC CHANGE_SRC [--runs R]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts, as
for tools/trace_identity.py. Every command is a fresh
`python -m randiter.cli` process with BLAS pinned to one thread, in a
working directory of each tree's own:

- `generate consistent 30 10`;
- `generate consistent 50000 10` (the size of the ls-tall set-up call,
  whose MatrixMarket writes take the numpy formatting path);
- `solve --method rk` on a 30 x 10 instance, 2 trials of 15000 steps
  with one checkpoint at the cap (the size of an ls-loop call);
- `solve --method rk --iters 20000` and `solve --method rcd` on
  `generate consistent 50000 10 --seed 1` (the ls-tall solves, which
  read X from its sidecar, and whose peak RSS is the workload's);
- `compare` of rk-ridge, rcd-ridge and rk-krr (gaussian, gamma 0.01,
  lambda 10) on `generate underdetermined 40 80 --seed 1`, 10000
  iterations and 2 trials (the size of the dual-oracle call);
- `generate inconsistent 2000 3` (the krr-matfree set-up call, whose
  peak RSS is that workload's).

With these, the process whose peak RSS is a workload's is timed for
every benchmark workload.

The instances are generated once per tree before any timing. Then each
of R runs (default 30, at least 2) takes every command once per tree,
the two trees alternating and the one that goes first alternating from
run to run, so that a drift in the host's speed moves both trees alike. A child's CPU time
(user + system) comes from os.wait4, its wall time from the clock around
its start and that wait, so both cover the interpreter's start-up and
exit, which an in-process profile of cli.main cannot see, and its peak
RSS (ru_maxrss) from the same os.wait4. Printed per command and tree:
the median and quartiles of each, then the change's median relative to
the parent's, the number of runs in which the change took less CPU time,
and the change in median peak RSS. A command that exits other than 0
stops the tool with its stderr.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

SETUP = [
    ["generate", "consistent", "30", "10", "--seed", "1", "--out", "ls"],
    ["generate", "underdetermined", "40", "80", "--seed", "1", "--out", "dual"],
    ["generate", "consistent", "50000", "10", "--seed", "1", "--out", "tall"],
]
COMMANDS = {
    "generate": ["generate", "consistent", "30", "10", "--seed", "2", "--out", "gen"],
    "gen-tall": ["generate", "consistent", "50000", "10", "--seed", "2", "--out", "gen-tall"],
    "solve": ["solve", "ls", "--method", "rk", "--iters", "15000", "--trials", "2",
              "--checkpoint-every", "15000", "--out", "ls/rk.csv"],
    "rk-tall": ["solve", "tall", "--method", "rk", "--iters", "20000", "--out", "tall/rk.csv"],
    "rcd-tall": ["solve", "tall", "--method", "rcd", "--out", "tall/rcd.csv"],
    "compare": ["compare", "dual", "--method", "rk-ridge", "--method", "rcd-ridge",
                "--method", "rk-krr", "--kernel", "gaussian", "--gamma", "0.01",
                "--lambda", "10", "--iters", "10000", "--trials", "2", "--out", "dual/cmp.csv"],
    "gen-krr": ["generate", "inconsistent", "2000", "3", "--seed", "2", "--out", "gen-krr"],
}


def child_env(src: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", RANDITER_LOG="off")


def timed_call(argv: list[str], src: str, workdir: str) -> tuple[float, float, float]:
    """(CPU seconds, wall seconds, peak RSS in MB) of one
    `python -m randiter.cli ARGV`."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "randiter.cli", *argv], cwd=workdir,
                                env=child_env(src), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{src}: exit {proc.returncode} from {' '.join(argv)}\n"
                               + err.read().decode(errors="replace"))
    return usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss / 1024  # Linux: kB


def summary(values: list[float]) -> str:
    """median [first quartile, third quartile], in ms."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median * 1e3:8.1f} [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--runs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2: quartiles need two values")
    trees = {"parent": args.parent_src, "change": args.change_src}
    # times[command][tree] = ([cpu_s...], [wall_s...], [peak_rss_mb...])
    times = {name: {tree: ([], [], []) for tree in trees} for name in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = {tree: os.path.join(tmp, tree) for tree in trees}
        for tree, src in trees.items():
            os.makedirs(workdirs[tree])
            for setup in SETUP:
                timed_call(setup, src, workdirs[tree])
        for run in range(args.runs):
            order = list(trees) if run % 2 == 0 else list(trees)[::-1]
            for name, command in COMMANDS.items():
                for tree in order:
                    for values, value in zip(times[name][tree],
                                             timed_call(command, trees[tree], workdirs[tree])):
                        values.append(value)

    print(f"{args.runs} runs per command and tree; ms, median [quartiles]; "
          "peak RSS in MB, median [min, max]")
    print(f"{'command':10}{'tree':8}{'cpu':>28}{'wall':>28}{'peak rss':>26}")
    for name, by_tree in times.items():
        for tree, (cpu, wall, rss) in by_tree.items():
            print(f"{name:10}{tree:8}{summary(cpu):>28}{summary(wall):>28}"
                  f"{statistics.median(rss):>10.2f} [{min(rss):.2f}, {max(rss):.2f}]")
        (cpu0, wall0, rss0), (cpu1, wall1, rss1) = by_tree.values()
        cpu_ratio = statistics.median(cpu1) / statistics.median(cpu0)
        wall_ratio = statistics.median(wall1) / statistics.median(wall0)
        wins = sum(b < a for a, b in zip(cpu0, cpu1))
        rss_change = statistics.median(rss1) - statistics.median(rss0)
        print(f"{'':18}change/parent: cpu {cpu_ratio:.3f}, wall {wall_ratio:.3f}; "
              f"change took less cpu in {wins} of {args.runs} runs; "
              f"peak rss {rss_change:+.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
