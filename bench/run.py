"""randiter's benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload ls-loop --seed 1 --seconds 20 --trace 0

Closed loop, one client: this process makes one call at a time and waits
for it. With --trace 0 every call is a fresh `python -m randiter.cli`
child (or `bench/krr_child.py` for krr-matfree) with BLAS pinned to one
thread, started and timed through `bench/spawn.py` with `os.wait4`; the
result holds the end-to-end metrics. With --trace 1 the same calls run in this process through
`cli.main` or `krr_child.krr_call`, once plain and once under the
tracer, and the result holds the per-layer metrics. Every output is
checked against numpy/LAPACK references (refs.py). A record of every
call, the environment and the trace spans goes to
.bench_out/records/ in the checkout. See bench/README.md.
"""

from __future__ import annotations

import os

# Before numpy loads BLAS here; children get the same pins in child_env().
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import refs  # noqa: E402
from workloads import CLI_TOL, WORKLOADS, Call, Workload  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
KRR_CHILD = os.path.join(BENCH, "krr_child.py")
SPAWN = os.path.join(BENCH, "spawn.py")
CALL_TIMEOUT_S = 120.0
STARTUP_SAMPLES = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Host-speed calibration. On a shared host, speed can drift by 30% over
# minutes, as much as a metric's bound, and the drift moves this fixed
# task (process start, numpy import, a Python loop of small numpy calls:
# the program's own mix, but none of its code) together with the calls.
# It runs after every call; times are reported at the host speed at
# which its median takes CALIBRATION_REF_S (its median on a 2-core Intel
# Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS).
CALIBRATION = """\
import numpy as np
a = np.arange(10.0)
c = np.cumsum(np.ones(30))
s = 0.0
for i in range(25000):
    s += float(a @ a) + int(np.searchsorted(c, 7.5))
"""
CALIBRATION_REF_S = 0.32


# --- environment ---------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RANDITER_LOG"}
    env.update({var: "1" for var in PINNED}, PYTHONPATH=SRC)
    return env


def _git(*args: str) -> str | None:
    # Stop git from searching above the checkout when it is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1")
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def environment() -> dict:
    """What a noisy or odd run needs to be explained: code, toolchain, host."""
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                src_hash.update(f.read())
    commit = status = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit, status = _git("rev-parse", "HEAD"), _git("status", "--porcelain")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            models = (line.split(":", 1)[1] for line in f if line.startswith("model name"))
            cpu_model = next(models).strip()
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
    }


# --- calls ----------------------------------------------------------------------


def spawn(argv: list[str], cwd: str, stderr_path: str, timeout_s: float = CALL_TIMEOUT_S) -> dict:
    """Run argv to completion through spawn.py; returns its JSON report:
    exit, wall_s, peak_rss_mb, cpu_s, timed_out."""
    proc = subprocess.run(
        [sys.executable, "-S", SPAWN, str(timeout_s), stderr_path, *argv],
        cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=timeout_s + 30,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


@dataclass
class Record:
    """One call: what ran, how long, how it ended, and whether it was right."""

    phase: str
    call: str
    argv: list[str]
    wall_s: float
    exit: int | None
    peak_rss_mb: float | None = None
    cpu_s: float | None = None
    problems: list[str] = field(default_factory=list)
    false_exit3: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Makes calls one at a time and keeps a record of each."""

    def __init__(self, work: str):
        self.work = work
        self.records: list[Record] = []
        self.tracer = None  # set while a traced pass runs
        self.summary: dict = {}  # per-run figures for the records file

    def run(self, call: Call, phase: str, in_process: bool = False) -> Record:
        for path in call.outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        if in_process:
            rec = self._in_process(call, phase)
        else:
            rec = self._child(call, phase)
        if rec.exit is not None and rec.exit not in call.ok_codes:
            rec.problems.insert(0, f"exit {rec.exit}")
        if rec.ok:
            try:
                rec.problems += call.check()
            except (OSError, ValueError, KeyError) as exc:
                rec.problems.append(f"unreadable output: {exc}")
        rec.false_exit3 = rec.exit == 3 and rec.ok and self._own_converged(call)
        self.records.append(rec)
        return rec

    def _child(self, call: Call, phase: str) -> Record:
        head = ["-m", "randiter.cli"] if call.kind == "cli" else [KRR_CHILD]
        argv = [sys.executable, *head, *call.args]
        stderr_path = os.path.join(self.work, "stderr.txt")
        out = spawn(argv, self.work, stderr_path)
        code = out["exit"]
        rec = Record(phase, call.name, argv, out["wall_s"], code, out["peak_rss_mb"], out["cpu_s"])
        if out["timed_out"]:
            rec.problems.append(f"timed out after {CALL_TIMEOUT_S:.0f} s")
        elif code not in call.ok_codes:
            with open(stderr_path, errors="replace") as f:
                rec.problems.append(f.read()[-2000:])
        return rec

    def _in_process(self, call: Call, phase: str) -> Record:
        from randiter import cli

        import krr_child

        if self.tracer is not None:
            self.tracer.call_id = len(self.records)
        problems = []
        start = time.perf_counter()
        try:
            if call.kind == "cli":
                code = cli.main(list(call.args))
            else:
                code = krr_child.krr_call(*call.args)
        except Exception:
            code = None
            problems.append(traceback.format_exc(limit=-3))
        finally:
            # cli.main disables logging for the whole process when
            # RANDITER_LOG is unset; undo it so later calls see no trace of it.
            logging.disable(logging.NOTSET)
        wall = time.perf_counter() - start
        return Record(phase, call.name, [call.kind, *call.args], wall, code, problems=problems)

    @staticmethod
    def _own_converged(call: Call) -> bool:
        """The method's own measure says it converged to the CLI's tol."""
        if call.own_trace is None:
            return False
        final = float(refs.read_trace(call.own_trace)[call.own_column][-1])
        return final <= CLI_TOL * CLI_TOL


# --- runs -----------------------------------------------------------------------


def run_set(runner: Runner, calls: list[Call], phase: str, in_process: bool = False) -> float:
    return sum(runner.run(call, phase, in_process).wall_s for call in calls)


def calibrated_set(runner: Runner, calls: list[Call], phase: str, calibrations: list) -> float:
    """Wall time of `calls`, each followed by one run of CALIBRATION,
    whose wall time is appended to `calibrations`."""
    total = 0.0
    for call in calls:
        total += runner.run(call, phase).wall_s
        out = spawn([sys.executable, "-c", CALIBRATION], runner.work,
                    os.path.join(runner.work, "stderr.txt"))
        if out["exit"] != 0:
            raise RuntimeError("the host-speed calibration task failed")
        calibrations.append(out["wall_s"])
    return total


def measure(wl: Workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced: set-up reps, then whole call sets until `seconds` is used.
    Returns ({metric: value}, {metric: unit}); times at the reference
    host speed (CALIBRATION_REF_S)."""
    calibrations: list[float] = []
    setup_walls = [
        calibrated_set(runner, wl.setup(), "setup", calibrations) for _ in range(wl.setup_reps)
    ]
    wl.prepare()
    set_walls = []
    start = time.perf_counter()
    while True:
        set_walls.append(calibrated_set(runner, wl.calls(), "measure", calibrations))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(set_walls) >= seconds:
            break
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    runner.summary = {
        "setup_walls": setup_walls,
        "set_walls": set_walls,
        "calibration_walls": calibrations,
        "host_scale": scale,
    }
    values = {
        "wall_s": statistics.median(set_walls) * scale,
        "setup_s": statistics.median(setup_walls) * scale,
        "peak_rss_mb": max(r.peak_rss_mb for r in runner.records),
    }
    return values, E2E_UNITS


def measure_traced(wl: Workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """In-process: pairs of a plain pass and a traced pass over set-up and
    calls, until `seconds` is used. Per-layer metrics are per traced pass."""
    import krr_child  # noqa: F401  (imported here so no pass pays for it)
    import randiter.cli  # noqa: F401
    from tracer import Tracer

    startup = []
    for _ in range(STARTUP_SAMPLES):
        argv = [sys.executable, "-c", "import randiter.cli"]
        out = spawn(argv, runner.work, os.path.join(runner.work, "stderr.txt"))
        if out["exit"] != 0:
            raise RuntimeError("python -c 'import randiter.cli' failed")
        startup.append(out["wall_s"])

    tracer = Tracer()
    overheads = []
    start = time.perf_counter()
    while True:
        plain = run_set(runner, wl.setup(), "setup", in_process=True)
        if not overheads:
            wl.prepare()
        plain += run_set(runner, wl.calls(), "measure", in_process=True)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = run_set(runner, wl.setup() + wl.calls(), "traced", in_process=True)
        finally:
            runner.tracer = None
            tracer.uninstall()
        overheads.append(traced - plain)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(overheads) >= seconds:
            break
    passes = len(overheads)
    traced_records = [r for r in runner.records if r.phase == "traced"]
    metrics = tracer.metrics(passes)
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["cli.false_exit3"] = (sum(r.false_exit3 for r in traced_records) / passes, "count")
    rate_calls = metrics["oracle.rate_calls"][0]
    metrics["oracle.rate_calls_per_instance"] = (rate_calls / len(wl.setup()), "count/instance")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    total_self = sum(tracer.layer_self.values()) or 1.0
    runner.summary = {
        "passes": passes,
        "overheads": overheads,
        "dominant_layer": tracer.dominant_layer(),
        "expected_layers": list(wl.layers),
        "layer_share": {k: v / total_self for k, v in sorted(tracer.layer_self.items())},
        "spans": tracer.spans,
    }
    values = {name: value for name, (value, _) in metrics.items()}
    return values, {name: unit for name, (_, unit) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, Runner, dict]:
    """One run; returns (result, runner, environment)."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    runner = Runner(work)
    wl = WORKLOADS[name](work, seed, tiny=tiny)
    try:
        if trace:
            if SRC not in sys.path:
                sys.path.insert(0, SRC)
            values, units = measure_traced(wl, runner, seconds)
        else:
            values, units = measure(wl, runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    failed = sum(not r.ok for r in runner.records)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(values)},
    }
    return result, runner, env


def write_records(name, seed, seconds, trace, result, runner, env) -> str:
    stem = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    path = os.path.join(OUT, "records", stem)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "result": result, **runner.summary,
        "calls": [asdict(r) for r in runner.records],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "randiter", "cli.py")):
        print(f"bench: no randiter sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    result, runner, env = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_records(args.workload, args.seed, args.seconds, args.trace, result, runner, env)
    for rec in runner.records:
        if not rec.ok:
            print(f"FAILED {rec.phase} {rec.call}: {'; '.join(rec.problems)}")
    print(f"env: {json.dumps(env)}")
    print(f"calls: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f}); records in {path}")
    if not args.trace:
        s = runner.summary
        print(f"raw medians: wall {statistics.median(s['set_walls']):.4f} s, "
              f"setup {statistics.median(s['setup_walls']):.4f} s; "
              f"host scale {s['host_scale']:.4f}")
    else:
        s = runner.summary
        shares = sorted(s["layer_share"].items(), key=lambda kv: -kv[1])
        print(f"dominant layer: {s['dominant_layer']} "
              f"(workload stresses {'+'.join(s['expected_layers'])}); "
              f"self time: {', '.join(f'{k} {v:.1%}' for k, v in shares)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
