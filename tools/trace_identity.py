"""Check that two source trees of randiter give byte-identical CLI results.

Usage: python3 tools/trace_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.
Each tree runs the same commands, one process per command and one BLAS
thread, in a working directory of its own:

- `generate` of the four standard instances, and of `u20x50` once more
  as `u20x50-nometa`, whose meta.txt is then removed, so its runs see no
  regime;
- `generate` of `u20x1200`, whose epoch of columns is over 1000: rcd and
  rcd-ridge there rebuild r about once an epoch, at the first checkpoint
  at or after every 2000 steps, and rk, on rows of 1200 entries, takes
  single steps;
- `generate` of the ls-tall instance, 50000 x 10, with no runs on it:
  its X.mtx and y.vec are above io.SMALL_ARRAY values, so they are the
  files formatted in numpy;
- `generate` of `i1500x3`, solved by rk-krr (gaussian kernel) alone,
  `solve --trials 2` at each cadence: its epoch of 1500 rows is no
  multiple of 1000, so rk-krr rebases on K alpha at the first checkpoint
  at or after every 2000 steps, and its sweeps form blocks of K up to
  GRAM_TILE_ELEMS entries;
- on each instance but the ls-tall one, `solve --trials 2` with each of
  the five methods (rk-krr with the gaussian kernel), with rk-krr on each
  other kernel family, and one `compare` of all five, at the default
  checkpoint cadence and at `--checkpoint-every 7`.

Then every command's exit code and stderr, and every file the commands
wrote, are compared byte for byte. Differences are listed one a line.
Under each CSV that differs go whether its rows and its `iter` column
match, and the largest relative change |a - b| / max(|a|, |b|) in each
numeric column. That measure reads near 1 on values at the rounding
floor (say 1e-30 against 1e-31 after a run has converged), so each trace
CSV (one with an `iter` column) also gets each column's largest change
relative to its record-0 value, |a - b| / |a_0|, where a_0 is the
column's value in the parent's first row. The largest of each per
column over all CSVs closes the list. The exit status is 0 when there
are no differences and 1 otherwise.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile

INSTANCES = {
    "c50x20": ["consistent", "50", "20", "--seed", "1"],
    "i30x10": ["inconsistent", "30", "10", "--seed", "5"],
    "u20x50": ["underdetermined", "20", "50", "--seed", "4"],
    "u40x80": ["underdetermined", "40", "80", "--seed", "1"],
    "u20x50-nometa": ["underdetermined", "20", "50", "--seed", "4"],
    "u20x1200": ["underdetermined", "20", "1200", "--seed", "2"],
}
# Instances that are generated and compared, but not solved.
GENERATE_ONLY = {"c50000x10": ["consistent", "50000", "10", "--seed", "1"]}
# Instances that only rk-krr, with METHOD_FLAGS's gaussian kernel, solves.
KRR_ONLY = {"i1500x3": ["inconsistent", "1500", "3", "--seed", "3"]}
# Instances whose meta.txt is removed right after `generate`.
UNLABELLED = ("u20x50-nometa",)
METHOD_FLAGS = {
    "rk": [],
    "rcd": [],
    "rk-ridge": ["--lambda", "0.1"],
    "rcd-ridge": ["--lambda", "0.1"],
    "rk-krr": ["--kernel", "gaussian", "--gamma", "0.5", "--lambda", "0.1"],
}
# rk-krr's solves on the kernel families other than METHOD_FLAGS's gaussian
KERNEL_FLAGS = {
    "linear": ["--kernel", "linear", "--lambda", "0.1"],
    "poly": ["--kernel", "poly", "--degree", "3", "--offset", "1", "--lambda", "0.1"],
}
CADENCES = {"default": [], "every7": ["--checkpoint-every", "7"]}


def commands() -> list[list[str]]:
    """The argv of every command, in the order they run."""
    cmds = [["generate", *spec, "--out", name]
            for name, spec in {**INSTANCES, **GENERATE_ONLY, **KRR_ONLY}.items()]
    for name in INSTANCES:
        for cadence, every in CADENCES.items():
            for method, flags in METHOD_FLAGS.items():
                cmds.append(["solve", name, "--method", method, *flags, *every, "--trials", "2",
                             "--out", f"{name}/{method}-{cadence}.csv"])
            for family, flags in KERNEL_FLAGS.items():
                cmds.append(["solve", name, "--method", "rk-krr", *flags, *every, "--trials", "2",
                             "--out", f"{name}/rk-krr-{family}-{cadence}.csv"])
            compare = ["compare", name]
            for method in METHOD_FLAGS:
                compare += ["--method", method]
            cmds.append(compare + METHOD_FLAGS["rk-krr"] + every
                        + ["--out", f"{name}/compare-{cadence}.csv"])
    for name in KRR_ONLY:
        for cadence, every in CADENCES.items():
            cmds.append(["solve", name, "--method", "rk-krr", *METHOD_FLAGS["rk-krr"], *every,
                         "--trials", "2", "--out", f"{name}/rk-krr-{cadence}.csv"])
    return cmds


def run_tree(src: str, workdir: str) -> list[tuple[int, bytes]]:
    """Run every command against the tree at src; (exit code, stderr) of each."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", RANDITER_LOG="off")
    results = []
    for argv in commands():
        proc = subprocess.run([sys.executable, "-m", "randiter.cli", *argv], cwd=workdir,
                              env=env, capture_output=True)
        results.append((proc.returncode, proc.stderr))
        if argv[0] == "generate" and argv[-1] in UNLABELLED:
            os.remove(os.path.join(workdir, argv[-1], "meta.txt"))
    return results


def files_under(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values or two NaNs, 1 where
    only one side is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return 1.0
    return abs(a - b) / max(abs(a), abs(b))


def change_from_start(values: list[tuple[float, float]]) -> float:
    """max |a - b| / |a_0| over the (a, b) pairs, a_0 the first a. Equal
    values and two NaNs are no change, as in relative_change; a change
    that is not finite, or any change where a_0 is 0, is inf."""
    start = abs(values[0][0]) if values else 0.0
    worst = 0.0
    for a, b in values:
        if relative_change(a, b):
            diff = abs(a - b)
            worst = max(worst, diff / start if start and math.isfinite(diff) else math.inf)
    return worst


def column_report(before: bytes, after: bytes) -> tuple[str, dict[str, float],
                                                        dict[str, float]]:
    """How two CSVs differ: a line on their rows and `iter` columns, the
    largest relative change in each numeric column over the rows both
    have, and, for a trace CSV, each column's largest change relative to
    its record-0 value."""
    tables = []
    for data in (before, after):
        lines = data.decode().splitlines()
        tables.append((lines[0].split(","), [line.split(",") for line in lines[1:]]))
    (head, rows0), (head1, rows1) = tables
    if head != head1:
        return "    headers differ", {}, {}
    pairs = list(zip(rows0, rows1))
    rows = "rows same" if len(rows0) == len(rows1) else f"rows {len(rows0)} -> {len(rows1)}"
    changes, from_start = {}, {}
    for k, name in enumerate(head):
        try:
            values = [(float(a[k]), float(b[k])) for a, b in pairs]
        except ValueError:
            continue  # not numeric
        changes[name] = max((relative_change(a, b) for a, b in values), default=0.0)
        if "iter" in head and name != "iter":
            from_start[name] = change_from_start(values)
    if "iter" not in head:
        iters = "no iter column"
    else:
        iters = "iter same" if changes["iter"] == 0.0 and rows == "rows same" else "iter differs"
    line = f"    {rows}, {iters}; max relative change: {listing(changes)}"
    if from_start:
        line += f"\n    max change relative to record 0: {listing(from_start)}"
    return line, changes, from_start


def listing(changes: dict[str, float]) -> str:
    return ", ".join(f"{name} {change:.2g}" for name, change in changes.items())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
        runs = []
        for src, workdir in zip(argv, dirs):
            os.makedirs(workdir)
            runs.append(run_tree(src, workdir))
        files = [files_under(d) for d in dirs]

    diffs = []
    for argv_, before, after in zip(commands(), *runs):
        if before[0] != after[0]:
            diffs.append(f"exit code {before[0]} -> {after[0]}: {' '.join(argv_)}")
        if before[1] != after[1]:
            diffs.append(f"stderr differs: {' '.join(argv_)}")
    overall: dict[str, float] = {}
    overall_start: dict[str, float] = {}
    for name in sorted(set(files[0]) | set(files[1])):
        if files[0].get(name) != files[1].get(name):
            what = "differs" if name in files[0] and name in files[1] else "exists in one tree only"
            diffs.append(f"file {what}: {name}")
            if what == "differs" and name.endswith(".csv"):
                report, changes, from_start = column_report(files[0][name], files[1][name])
                diffs[-1] += "\n" + report
                for totals, found in ((overall, changes), (overall_start, from_start)):
                    for column, change in found.items():
                        totals[column] = max(totals.get(column, 0.0), change)
    for line in diffs:
        print(line)
    if overall:
        print("max relative change over all CSVs: " + listing(dict(sorted(overall.items()))))
    if overall_start:
        print("max change relative to record 0 over all trace CSVs: "
              + listing(dict(sorted(overall_start.items()))))
    codes = sorted({code for code, _ in runs[0]})
    print(f"{len(runs[0])} commands (exit codes {codes}), {len(files[0])} files: "
          + ("byte-identical" if not diffs else f"{len(diffs)} differences"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
