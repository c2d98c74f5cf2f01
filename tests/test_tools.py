"""The measuring scripts under tools/ run and print what they promise."""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def test_step_cost_prints_one_positive_time_a_case():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "step_cost.py"), "--repeats", "1",
                           "--case", "rk:30x10"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case", "base"]
    [row] = rows
    label, us_per_step = row.split()
    assert label == "rk:30x10" and float(us_per_step) > 0.0
