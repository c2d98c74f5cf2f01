"""Tests of the benchmark itself, on tiny variants of every workload.

    python3 -m pytest bench -q

They check that every metric BENCHMARK.json names is reported with its
unit, that the correctness check can fail, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys

import pytest

import refs
import run
import tracer
from workloads import WORKLOADS

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name):
    result, runner, _ = run.run_workload(name, seed=1, seconds=0.01, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, [r.problems for r in runner.records]
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(r.peak_rss_mb > 0 for r in runner.records)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_per_layer_metrics(name):
    from randiter import kernel, sampling, solvers

    originals = (solvers.rk_step, sampling.WeightedSampler.draw, kernel.kernel_column)
    result, runner, _ = run.run_workload(name, seed=1, seconds=0.01, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0, [r.problems for r in runner.records]
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert runner.summary["dominant_layer"] in tracer.LAYERS
    assert result["metrics"]["cli.calls"]["value"] >= 1
    if name == "dual-oracle":  # the rk-ridge solve's exit 3 (ROADMAP 5a)
        assert result["metrics"]["cli.false_exit3"]["value"] >= 1
    # the tracer put every function back, and cli.main left logging alone
    assert (solvers.rk_step, sampling.WeightedSampler.draw, kernel.kernel_column) == originals
    assert logging.root.manager.disable == logging.NOTSET


def test_corrupted_reference_is_a_failure(tmp_path):
    wl = WORKLOADS["ls-loop"](str(tmp_path), seed=1, tiny=True)
    runner = run.Runner(str(tmp_path))
    setup = wl.setup()
    run.run_set(runner, setup, "setup")
    assert all(r.ok for r in runner.records)

    path = tmp_path / "consistent" / "reference.vec"
    ref = refs.read_vector(str(path))
    ref[0] += 1.0
    path.write_text("".join(f"{float(x)!r}\n" for x in ref))
    assert setup[0].check()

    wl.prepare()
    run.run_set(runner, wl.calls(), "measure")
    failed = {r.call for r in runner.records if not r.ok}
    assert {"solve rk consistent", "solve rcd consistent"} <= failed
    assert "solve rk inconsistent" not in failed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    argv = [sys.executable, *BENCHMARK["command"][1:]]
    argv += ["--workload", "ls-loop", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
