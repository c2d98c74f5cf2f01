"""The measuring scripts under tools/ run and print what they promise."""

import importlib.util
import os
import subprocess
import sys

from randiter import cli

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


def load_tool(name):
    """A script under tools/ as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceIdentity:
    tool = load_tool("trace_identity")

    def test_commands_write_distinct_outputs_with_known_methods(self):
        runs = [argv for argv in self.tool.commands() if argv[0] in ("solve", "compare")]
        outs = [argv[argv.index("--out") + 1] for argv in runs]
        assert runs and len(set(outs)) == len(outs)
        for argv in runs:
            methods = [argv[k + 1] for k, arg in enumerate(argv) if arg == "--method"]
            assert methods and set(methods) <= set(cli.METHODS)

    def test_logged_commands_run_with_outputs_of_their_own(self):
        cmds, logged = self.tool.commands(), self.tool.LOGGED
        assert all(argv in cmds for _, argv in logged)
        assert {setting for setting, _ in logged} == {"info", "debug"}
        assert {argv[0] for _, argv in logged} == {"generate", "solve", "compare"}
        outs = [argv[argv.index("--out") + 1] for argv in cmds]
        assert len(set(outs)) == len(outs)

    def test_usage_errors_break_each_rule_of_the_method_table(self):
        usage = self.tool.USAGE_ERRORS
        assert set(cli._FLAG_READERS) <= {arg for argv in usage for arg in argv}

        def breaking(method, rule):
            return any(rule(argv) for argv in usage
                       if method in [argv[k + 1] for k, arg in enumerate(argv) if arg == "--method"])

        def no_positive_lambda(argv):
            return "--lambda" not in argv or float(argv[argv.index("--lambda") + 1]) <= 0.0

        no_reference = [name for name, lost in self.tool.REMOVED.items() if lost == "reference.vec"]
        for method, (reads_lam, _, on_k) in cli._METHODS.items():
            assert breaking(method, no_positive_lambda) or not reads_lam, method
            assert breaking(method, lambda argv: argv[1] in no_reference) or reads_lam, method
            # rejected where the method starts from alpha = 0, else of the wrong length
            assert breaking(method, lambda argv: "--beta0" in argv), method
            assert breaking(method, lambda argv: "--kernel" not in argv) or not on_k, method

    def test_column_report_names_the_column_that_changed(self):
        header = "iter,err_sq,energy_err_sq,residual_sq,bound\n"
        before = header + "0,4,2,1,2\n10,2,1,0.5,1\n"
        after = header + "0,4,2,1,2\n10,2,1,0.25,1\n"
        line, changes, from_start = self.tool.column_report(before.encode(), after.encode())
        assert "rows same, iter same" in line
        assert {name for name, change in changes.items() if change} == {"residual_sq"}
        assert changes["residual_sq"] == 0.5  # |0.5 - 0.25| / 0.5
        assert {name for name, change in from_start.items() if change} == {"residual_sq"}
        assert from_start["residual_sq"] == 0.25  # |0.5 - 0.25| / record 0's 1

    def test_relative_change_of_non_finite_values(self):
        nan, inf = float("nan"), float("inf")
        assert self.tool.relative_change(nan, nan) == 0.0
        assert self.tool.relative_change(1.0, nan) == 1.0
        assert self.tool.relative_change(inf, 1.0) == 1.0
        assert self.tool.relative_change(inf, inf) == 0.0
        assert self.tool.relative_change(2.0, 1.0) == 0.5
