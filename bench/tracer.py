"""Per-layer tracing of randiter from outside the library.

The layers are randiter's modules. `Tracer.install()` replaces each
public function at a layer boundary with a timing wrapper, in every
module that looks the name up (solvers, ridge and kernel import
`build_sampler` by name), and `uninstall()` puts the originals back.
Calls of ordinary functions become spans: name, start, end, parent and
the benchmark call they belong to. Per-step functions
(`WeightedSampler.draw`, the `*_step` functions and `kernel_column`) are
only counted and timed, because a span per step would cost more than the
step. Self time is a call's duration minus the traced calls under it.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

LAYERS = ("cli", "io", "oracle", "linalg", "sampling", "solvers", "ridge", "kernel")

IO_WRITES = ("write_matrix", "write_vector", "write_meta", "write_trace_csv")
IO_READS = ("read_matrix", "read_vector", "read_meta")
ORACLE_RATE = ("theoretical_rate",)
ORACLE_CLOSED_FORMS = (
    "ls_solution",
    "min_norm_solution",
    "ridge_solution",
    "ridge_alpha_star",
    "krr_alpha_star",
    "gram",
    "outer_gram",
    "gram_matrix",
)
ORACLE_GENERATE = ("gen_consistent", "gen_inconsistent", "gen_underdetermined", "null_space_basis")

# (module, attribute, traced name, layer)
SPANS = [
    ("cli", "main", "cli.main", "cli"),
    *[("io", f, f"io.{f}", "io") for f in IO_WRITES + IO_READS],
    *[
        ("oracle", f, f"oracle.{f}", "oracle")
        for f in ORACLE_RATE + ORACLE_CLOSED_FORMS + ORACLE_GENERATE
    ],
    ("linalg", "sym_eigh", "linalg.sym_eigh", "linalg"),
    ("linalg", "solve_spd", "linalg.solve_spd", "linalg"),
    *[
        (m, "build_sampler", "sampling.build_sampler", "sampling")
        for m in ("solvers", "ridge", "kernel")
    ],
    ("solvers", "run", "solvers.run", "solvers"),
    ("ridge", "rk_ridge_run", "ridge.rk_ridge_run", "ridge"),
    ("ridge", "rcd_ridge_run", "ridge.rcd_ridge_run", "ridge"),
    ("kernel", "krr_run", "kernel.krr_run", "kernel"),
    ("kernel", "apply_gram", "kernel.apply_gram", "kernel"),
]
STEPS = [
    ("sampling", "WeightedSampler.draw", "sampling.draw", "sampling"),
    ("solvers", "rk_step", "solvers.rk_step", "solvers"),
    ("solvers", "rcd_step", "solvers.rcd_step", "solvers"),
    ("ridge", "rk_ridge_step", "ridge.rk_ridge_step", "ridge"),
    ("ridge", "rcd_ridge_step", "ridge.rcd_ridge_step", "ridge"),
    ("kernel", "krr_step", "kernel.krr_step", "kernel"),
    ("kernel", "kernel_column", "kernel.kernel_column", "kernel"),
]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list[dict] = []
        self.call_id = 0  # the benchmark call the next spans belong to
        self._stack = [[0.0, None]]  # frames: [traced child time, enclosing span]
        self._open = defaultdict(int)
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        stack, stat, clock = self._stack, self.stats[name], time.perf_counter

        def wrapper(*args, **kwargs):
            record = {"name": name, "call": self.call_id, "parent": stack[-1][1]}
            self.spans.append(record)
            frame = [0.0, len(self.spans) - 1]
            stack.append(frame)
            self._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._open[name] -= 1
                self._close(stat, layer, end - start, frame[0])
                record["start"], record["end"] = start - self._t0, end - self._t0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _step(self, name, layer, fn, count_within=None):
        stack, stat, clock = self._stack, self.stats[name], time.perf_counter
        open_, counters, key = self._open, self.counters, f"{name}@{count_within}"

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self._close(stat, layer, dur, frame[0])
                if count_within is not None and open_[count_within]:
                    counters[key] += 1

        return wrapper

    def _close(self, stat, layer, dur, child):
        self._stack[-1][0] += dur
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child
        self.layer_self[layer] += dur - child

    # --- patching -----------------------------------------------------------

    def _count(self, key, size_of):
        def after(args, result):
            self.counters[key] += size_of(args, result)

        return after

    def install(self) -> None:
        file_size = lambda args, result: os.path.getsize(args[0])  # noqa: E731
        hooks = {
            **{f"io.{f}": self._count("bytes_written", file_size) for f in IO_WRITES},
            **{f"io.{f}": self._count("bytes_read", file_size) for f in IO_READS},
            "solvers.run": self._count("checkpoints", lambda args, trace: len(trace.records)),
        }
        for module, attr, name, layer in SPANS:
            owner = importlib.import_module(f"randiter.{module}")
            self._patch(owner, attr, self._span(name, layer, getattr(owner, attr), hooks.get(name)))
        for module, attr, name, layer in STEPS:
            owner = importlib.import_module(f"randiter.{module}")
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            within = "kernel.krr_run" if name == "kernel.kernel_column" else None
            self._patch(owner, attr, self._step(name, layer, getattr(owner, attr), within))

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- report -------------------------------------------------------------

    def dominant_layer(self) -> str:
        return max(LAYERS, key=lambda layer: self.layer_self[layer])

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced call set, as {name: (value, unit)}."""
        s = self.stats

        def calls(*names):
            return sum(s[n][0] for n in names)

        def own(*names):
            return sum(s[n][2] for n in names) / passes

        def us_per(timed, counted):
            """Microseconds in `timed` per call of `counted`."""
            count = calls(*counted)
            return 1e6 * sum(s[n][1] for n in timed) / count if count else 0.0

        def us_each(*names):
            return us_per(names, names)

        ls_steps = ("solvers.rk_step", "solvers.rcd_step")
        ridge_runs = ("ridge.rk_ridge_run", "ridge.rcd_ridge_run")
        ridge_steps = ("ridge.rk_ridge_step", "ridge.rcd_ridge_step")
        krr_steps = calls("kernel.krr_step")
        krr_columns = self.counters["kernel.kernel_column@kernel.krr_run"]
        out = {
            "cli.calls": (calls("cli.main") / passes, "count"),
            "io.write_matrix_s": (own("io.write_matrix"), "s"),
            "io.read_matrix_s": (own("io.read_matrix"), "s"),
            "io.read_vector_s": (own("io.read_vector"), "s"),
            "io.write_trace_s": (own("io.write_trace_csv"), "s"),
            "io.bytes_written": (self.counters["bytes_written"] / passes, "bytes"),
            "io.bytes_read": (self.counters["bytes_read"] / passes, "bytes"),
            "oracle.rate_s": (own("oracle.theoretical_rate"), "s"),
            "oracle.rate_calls": (calls("oracle.theoretical_rate") / passes, "count"),
            "oracle.closed_form_s": (own(*(f"oracle.{f}" for f in ORACLE_CLOSED_FORMS)), "s"),
            "oracle.generate_s": (own(*(f"oracle.{f}" for f in ORACLE_GENERATE)), "s"),
            "linalg.sym_eigh_s": (own("linalg.sym_eigh"), "s"),
            "linalg.sym_eigh_calls": (calls("linalg.sym_eigh") / passes, "count"),
            "linalg.solve_spd_s": (own("linalg.solve_spd"), "s"),
            "linalg.solve_spd_calls": (calls("linalg.solve_spd") / passes, "count"),
            "sampling.draw_us": (us_each("sampling.draw"), "us"),
            "sampling.draws": (calls("sampling.draw") / passes, "count"),
            "solvers.rk_step_us": (us_each("solvers.rk_step"), "us"),
            "solvers.rcd_step_us": (us_each("solvers.rcd_step"), "us"),
            "solvers.us_per_iter": (us_per(("solvers.run",), ls_steps), "us/iter"),
            "solvers.run_self_s": (own("solvers.run"), "s"),
            "solvers.iters": (calls(*ls_steps) / passes, "count"),
            "solvers.checkpoints": (self.counters["checkpoints"] / passes, "count"),
            "ridge.rk_ridge_step_us": (us_each("ridge.rk_ridge_step"), "us"),
            "ridge.rcd_ridge_step_us": (us_each("ridge.rcd_ridge_step"), "us"),
            "ridge.us_per_iter": (us_per(ridge_runs, ridge_steps), "us/iter"),
            "ridge.iters": (calls(*ridge_steps) / passes, "count"),
            "kernel.krr_step_us": (us_each("kernel.krr_step"), "us"),
            # Inclusive: apply_gram's cost is the kernel columns it evaluates.
            "kernel.apply_gram_s": (s["kernel.apply_gram"][1] / passes, "s"),
            "kernel.apply_gram_calls": (calls("kernel.apply_gram") / passes, "count"),
            "kernel.columns_per_iter": (krr_columns / krr_steps if krr_steps else 0.0, "col/iter"),
            "kernel.us_per_iter": (
                us_per(("kernel.krr_run",), ("kernel.krr_step",)),
                "us/iter",
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self[layer] / passes, "s")
        return out
