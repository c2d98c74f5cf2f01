"""Acceptance-criterion headroom: how close each criterion runs to its budget.

    python3 bench/headroom.py

Runs tests/test_acceptance.py once with -s, BLAS pinned to one thread,
and parses each `criterion N (...): PASS (x s, budget y s)` line into
acceptance.cN_headroom = 1 - x / y. A criterion that prints no line (it
failed before its timing check) is reported as null. Prints the result
as JSON and writes it to .bench_out/acceptance.json. Not part of the
workload runs: it is slow and its numbers come from pytest, not from a
user's call.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import run

LINE = re.compile(r"criterion (\d+) \(.*?\): PASS \(([\d.]+)s, budget ([\d.]+)s\)")
CRITERIA = range(1, 10)


def main() -> int:
    env = run.environment()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         os.path.join(run.ROOT, "tests", "test_acceptance.py")],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, timeout=900,
    )
    found = {int(n): (float(x), float(y)) for n, x, y in LINE.findall(proc.stdout)}
    metrics = {}
    for n in CRITERIA:
        value = 1.0 - found[n][0] / found[n][1] if n in found else None
        metrics[f"acceptance.c{n}_headroom"] = {"value": value, "unit": "frac"}
    env["loadavg_end"] = os.getloadavg()
    doc = {"pytest_exit": proc.returncode, "metrics": metrics, "env": env}
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "acceptance.json"), "w") as f:
        json.dump(doc, f, indent=1)
    print(json.dumps(doc))
    return 0 if proc.returncode == 0 and len(found) == len(CRITERIA) else 1


if __name__ == "__main__":
    sys.exit(main())
