import logging
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randiter import cli, io, linalg


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def consistent_dir(tmp_path):
    out = tmp_path / "prob"
    assert run_cli("generate", "consistent", "50", "20", "--seed", "1",
                   "--out", str(out)) == 0
    return str(out)


class TestFileFormats:
    def test_matrix_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        X = linalg.dense_matrix(rng.standard_normal((7, 3)))
        path = str(tmp_path / "X.mtx")
        io.write_matrix(path, X)
        back = io.read_matrix(path)
        assert back.shape == X.shape
        assert np.all(back == X)

    def test_vector_round_trip_full_precision(self, tmp_path):
        v = np.random.default_rng(1).standard_normal(11)
        path = str(tmp_path / "v.vec")
        io.write_vector(path, v)
        assert np.all(io.read_vector(path) == v)

    def test_meta_round_trip(self, tmp_path):
        path = str(tmp_path / "meta.txt")
        io.write_meta(path, {"regime": "consistent", "n": 5, "noise_scale": 0.5})
        meta = io.read_meta(path)
        assert meta["regime"] == "consistent"
        assert float(meta["noise_scale"]) == 0.5

    def test_rejects_non_matrixmarket(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(IOError):
            io.read_matrix(str(path))


class TestGenerate:
    def test_writes_all_files(self, consistent_dir):
        for name in ("X.mtx", "y.vec", "reference.vec", "meta.txt"):
            assert os.path.exists(os.path.join(consistent_dir, name))

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate", "consistent", "30", "10", "--seed", "3",
                           "--out", str(out)) == 0
        for name in ("X.mtx", "y.vec", "reference.vec", "meta.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_inconsistent_metadata_records_noise(self, tmp_path):
        out = tmp_path / "inc"
        assert run_cli("generate", "inconsistent", "30", "10", "--noise", "0.5",
                       "--out", str(out)) == 0
        meta = io.read_meta(str(out / "meta.txt"))
        assert float(meta["norm_z"]) == pytest.approx(0.5, abs=1e-10)

    def test_underdetermined_round_trip_consistency(self, tmp_path):
        out = tmp_path / "und"
        assert run_cli("generate", "underdetermined", "20", "50", "--seed", "2",
                       "--out", str(out)) == 0
        X = io.read_matrix(str(out / "X.mtx"))
        y = io.read_vector(str(out / "y.vec"))
        ref = io.read_vector(str(out / "reference.vec"))
        assert np.max(np.abs(X @ ref - y)) <= 1e-9

    def test_shape_incompatibility_is_usage_error(self, tmp_path):
        assert run_cli("generate", "consistent", "10", "40",
                       "--out", str(tmp_path / "x")) == cli.EXIT_USAGE


class TestSolve:
    def test_rk_converges_end_to_end(self, consistent_dir, tmp_path):
        trace_out = str(tmp_path / "trace.csv")
        code = run_cli("solve", consistent_dir, "--method", "rk",
                       "--iters", "10000", "--seed", "4", "--out", trace_out)
        assert code == 0
        lines = open(trace_out).read().splitlines()
        assert lines[0] == "iter,err_sq,energy_err_sq,residual_sq,bound"
        final_err = float(lines[-1].split(",")[1])
        assert final_err <= 1e-12

    def test_rcd_on_inconsistent_hits_least_squares(self, tmp_path):
        prob = tmp_path / "inc"
        run_cli("generate", "inconsistent", "30", "10", "--noise", "0.5",
                "--seed", "5", "--out", str(prob))
        trace_out = str(tmp_path / "trace.csv")
        assert run_cli("solve", str(prob), "--method", "rcd",
                       "--iters", "50000", "--seed", "6", "--out", trace_out) == 0
        final_err = float(open(trace_out).read().splitlines()[-1].split(",")[1])
        assert final_err <= 1e-10

    def test_identical_runs_are_byte_identical(self, consistent_dir, tmp_path):
        outs = [str(tmp_path / f"t{i}.csv") for i in range(2)]
        for out in outs:
            assert run_cli("solve", consistent_dir, "--method", "rcd",
                           "--iters", "20000", "--seed", "9", "--out", out) == 0
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    def test_nonconvergence_exit_code(self, consistent_dir, tmp_path):
        code = run_cli("solve", consistent_dir, "--method", "rk", "--iters", "5",
                       "--tol", "1e-13", "--seed", "1", "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_NO_CONVERGENCE

    def test_missing_problem_dir_is_io_error(self, tmp_path):
        code = run_cli("solve", str(tmp_path / "nope"), "--method", "rk",
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_IO

    def test_ridge_requires_lambda(self, consistent_dir, tmp_path):
        code = run_cli("solve", consistent_dir, "--method", "rk-ridge",
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE

    def test_ridge_judged_by_energy_error_not_residual(self, tmp_path):
        # the ridge solution keeps a nonzero residual, so a converged run
        # must not exit 3
        prob = str(tmp_path / "und")
        assert run_cli("generate", "underdetermined", "40", "80", "--seed", "1",
                       "--out", prob) == 0
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", prob, "--method", "rk-ridge", "--lambda", "10",
                       "--out", out) == cli.EXIT_OK
        final = open(out).read().splitlines()[-1].split(",")
        assert float(final[2]) <= 1e-24 < float(final[3])

    def test_ridge_judged_in_inconsistent_regime(self, tmp_path):
        prob = str(tmp_path / "inc")
        assert run_cli("generate", "inconsistent", "30", "10", "--out", prob) == 0
        code = run_cli("solve", prob, "--method", "rcd-ridge", "--lambda", "0.1",
                       "--iters", "5", "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("flag", ["--iters", "--checkpoint-every", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_run_flag_is_usage_error(self, consistent_dir, tmp_path, capsys,
                                                  flag, value):
        code = run_cli("solve", consistent_dir, "--method", "rk", flag, value,
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert f"{flag}: must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t.csv")

    def test_trials_emit_mean_trace(self, consistent_dir, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", consistent_dir, "--method", "rk", "--iters", "20000",
                       "--trials", "3", "--seed", "2", "--out", out) == 0
        assert os.path.exists(out + ".mean.csv")

    def test_krr_solve(self, tmp_path):
        prob = tmp_path / "krr"
        run_cli("generate", "consistent", "25", "5", "--seed", "8", "--out", str(prob))
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", str(prob), "--method", "rk-krr", "--lambda", "0.1",
                       "--kernel", "gaussian", "--gamma", "0.5",
                       "--iters", "20000", "--out", out) == 0
        final_err = float(open(out).read().splitlines()[-1].split(",")[1])
        assert final_err <= 1e-12


class TestLogging:
    def test_main_leaves_process_logging_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RANDITER_LOG", raising=False)
        logger = logging.getLogger("randiter")
        before = (logging.root.manager.disable, logger.level, logger.handlers[:])
        assert run_cli("generate", "consistent", "12", "3", "--out", str(tmp_path / "p")) == 0
        assert (logging.root.manager.disable, logger.level, logger.handlers) == before

    def test_info_goes_to_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RANDITER_LOG", "info")
        assert run_cli("generate", "consistent", "12", "3", "--out", str(tmp_path / "p")) == 0
        assert "randiter: wrote consistent instance" in capsys.readouterr().err
        assert not logging.getLogger("randiter").handlers


class TestCompare:
    def test_rk_vs_rcd_contraction_below_rate(self, consistent_dir, tmp_path):
        out = str(tmp_path / "cmp.csv")
        assert run_cli("compare", consistent_dir, "--method", "rk", "--method", "rcd",
                       "--iters", "3000", "--seed", "3", "--out", out) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            rate = float(fields[6])
            contraction = float(fields[7])
            assert contraction <= rate + 0.05

    def test_underdetermined_rk_wins(self, tmp_path):
        prob = tmp_path / "und"
        run_cli("generate", "underdetermined", "20", "50", "--seed", "4", "--out", str(prob))
        out = str(tmp_path / "cmp.csv")
        assert run_cli("compare", str(prob), "--method", "rk", "--method", "rcd",
                       "--iters", "60000", "--seed", "5", "--tol", "1e-6",
                       "--out", out) == 0
        rows = {line.split(",")[0]: line.split(",") for line in open(out).read().splitlines()[1:]}
        assert float(rows["rk"][3]) <= 1e-12       # ||beta - beta_MN||^2
        assert float(rows["rcd"][3]) > 1e-4        # floor above 1e-2 in norm

    def test_single_config_degenerates_to_solve_summary(self, consistent_dir, tmp_path):
        out = str(tmp_path / "cmp.csv")
        assert run_cli("compare", consistent_dir, "--method", "rk",
                       "--iters", "2000", "--seed", "1", "--out", out) == 0
        assert len(open(out).read().splitlines()) == 2


class TestStopAtTol:
    def test_ridge_stops_at_first_checkpoint_at_tol(self, tmp_path):
        prob = str(tmp_path / "und")
        assert run_cli("generate", "underdetermined", "40", "80", "--seed", "1",
                       "--out", prob) == 0
        args = ("solve", prob, "--method", "rk-ridge", "--lambda", "0.1", "--iters", "20000")
        full, stopped = str(tmp_path / "full.csv"), str(tmp_path / "stopped.csv")
        run_cli(*args, "--tol", "0", "--out", full)
        assert run_cli(*args, "--out", stopped) == cli.EXIT_OK
        full_lines = open(full).read().splitlines()
        lines = open(stopped).read().splitlines()
        assert full_lines[-1].startswith("20000,")
        assert len(lines) < len(full_lines)
        assert lines == full_lines[:len(lines)]
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        assert energies[-1] <= 1e-24 < min(energies[:-1])

    def test_compare_summarises_each_trial_at_its_own_stop(self, tmp_path):
        prob = str(tmp_path / "und")
        assert run_cli("generate", "underdetermined", "40", "80", "--seed", "1",
                       "--out", prob) == 0
        args = ("--method", "rk-ridge", "--lambda", "0.1", "--iters", "20000")
        out = str(tmp_path / "cmp.csv")
        assert run_cli("compare", prob, *args, "--seed", "3", "--trials", "2",
                       "--out", out) == 0
        row = open(out).read().splitlines()[1].split(",")
        finals = []
        for seed in ("3", "4"):  # the seeds of the two trials
            trace = str(tmp_path / f"t{seed}.csv")
            assert run_cli("solve", prob, *args, "--seed", seed, "--out", trace) == 0
            finals.append(open(trace).read().splitlines()[-1].split(","))
        assert finals[0][0] != finals[1][0]
        assert int(row[2]) == max(int(final[0]) for final in finals)
        for col in (1, 2, 3):  # err_sq, energy_err_sq, residual_sq
            assert float(row[col + 2]) == float(np.mean([float(f[col]) for f in finals]))


class TestInputContract:
    @pytest.mark.parametrize("method", ["rk-ridge", "rk-krr"])
    def test_dual_methods_reject_beta0(self, consistent_dir, tmp_path, capsys, method):
        beta0 = str(tmp_path / "b.vec")
        io.write_vector(beta0, np.ones(20))
        code = run_cli("solve", consistent_dir, "--method", method, "--lambda", "0.1",
                       "--kernel", "gaussian", "--beta0", beta0,
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert method in err and "--beta0" in err
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("method", ["rk", "rcd", "rcd-ridge"])
    def test_beta0_length_checked_against_p(self, consistent_dir, tmp_path, capsys, method):
        beta0 = str(tmp_path / "b.vec")
        io.write_vector(beta0, np.ones(21))
        code = run_cli("solve", consistent_dir, "--method", method, "--lambda", "0.1",
                       "--beta0", beta0, "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "--beta0 has length 21, expected 20" in capsys.readouterr().err

    def test_compare_rejects_beta0_before_running(self, consistent_dir, tmp_path):
        beta0 = str(tmp_path / "b.vec")
        io.write_vector(beta0, np.ones(20))
        out = str(tmp_path / "cmp.csv")
        code = run_cli("compare", consistent_dir, "--method", "rk", "--method", "rk-ridge",
                       "--lambda", "0.1", "--beta0", beta0, "--out", out)
        assert code == cli.EXIT_USAGE
        assert not os.path.exists(out)

    def test_beta0_is_the_start(self, consistent_dir, tmp_path):
        beta0 = str(tmp_path / "b.vec")
        io.write_vector(beta0, np.ones(20))
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", consistent_dir, "--method", "rcd", "--beta0", beta0,
                       "--iters", "20000", "--out", out) == cli.EXIT_OK
        ref = io.read_vector(os.path.join(consistent_dir, "reference.vec"))
        first = open(out).read().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(float((1.0 - ref) @ (1.0 - ref)))

    def _solve(self, problem_dir, tmp_path):
        return run_cli("solve", problem_dir, "--method", "rk", "--out", str(tmp_path / "t.csv"))

    def test_truncated_matrix_is_io_error(self, consistent_dir, tmp_path, capsys):
        path = os.path.join(consistent_dir, "X.mtx")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as f:
            f.writelines(lines[:-7])
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "X.mtx" in err and "expected 1000 values, found 993" in err

    def test_coordinate_header_is_io_error(self, consistent_dir, tmp_path, capsys):
        path = os.path.join(consistent_dir, "X.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix coordinate real general\n50 20 1\n1 1 2.5\n")
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "X.mtx" in err and "coordinate" in err

    @pytest.mark.parametrize("bad", ["abc", "1.0 2.0", "nan"])
    def test_bad_vector_value_is_io_error(self, consistent_dir, tmp_path, capsys, bad):
        path = os.path.join(consistent_dir, "y.vec")
        lines = open(path).read().splitlines()
        lines[3] = bad
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        assert "y.vec" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["y.vec", "reference.vec"])
    def test_vector_length_mismatch_is_io_error(self, consistent_dir, tmp_path, capsys, name):
        path = os.path.join(consistent_dir, name)
        lines = open(path).read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        assert name in capsys.readouterr().err

    def test_overflowing_kernel_is_usage_error(self, tmp_path, capsys):
        prob = str(tmp_path / "c")
        assert run_cli("generate", "consistent", "30", "10", "--seed", "1", "--out", prob) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run_cli("solve", prob, "--method", "rk-krr", "--kernel", "poly",
                           "--degree", "200", "--offset", "1000", "--lambda", "0.1",
                           "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--kernel poly --degree 200 --offset 1000.0 overflows" in err
        assert "non-finite" in err
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("size_line", ["50", "50 x", "0 20", ""])
    def test_bad_size_line_is_io_error(self, tmp_path, size_line):
        path = tmp_path / "X.mtx"
        path.write_text(io.MM_HEADER + "\n" + size_line + "\n1.0\n")
        with pytest.raises(IOError, match="X.mtx"):
            io.read_matrix(str(path))


def _rewrite(path, edit):
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in edit(lines)))


def _set_line(k, text):
    return lambda lines: lines[:k] + [text] + lines[k + 1:]


# file name -> edit of its lines; None leaves the problem intact
CORRUPTIONS = {
    "intact": None,
    "truncated X": ("X.mtx", lambda lines: lines[:-3]),
    "coordinate X": ("X.mtx", _set_line(0, "%%MatrixMarket matrix coordinate real general")),
    "non-numeric X": ("X.mtx", _set_line(5, "1.0e")),
    "bad size line": ("X.mtx", _set_line(1, "8")),
    "NaN in X": ("X.mtx", _set_line(4, "nan")),
    "short y": ("y.vec", lambda lines: lines[:-1]),
    "long reference": ("reference.vec", lambda lines: lines + ["0"]),
    "non-numeric y": ("y.vec", _set_line(2, "one")),
    "empty y": ("y.vec", lambda lines: []),
    "unknown regime": ("meta.txt", lambda lines: ["regime=other"]),
}


@pytest.fixture(scope="module")
def tiny_problem(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tiny") / "prob")
    assert run_cli("generate", "consistent", "8", "4", "--seed", "2", "--out", out) == 0
    return out


# capsys is function-scoped; each example reads it empty before it runs
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    method=st.sampled_from(cli.METHODS),
    iters=st.sampled_from([0, 1, 5, 40, 300, 1500]),
    every=st.sampled_from([None, None, 1, 7, 40, 0]),
    trials=st.sampled_from([1, 1, 2, 3, 0]),
    lam=st.sampled_from([None, "-1", "0", "1e-3", "0.5", "10"]),
    kernel=st.sampled_from([None, "linear", "gaussian", "poly"]),
    beta0_len=st.sampled_from([None, None, None, 0, 3, 4]),  # p = 4
    corruption=st.just("intact") | st.sampled_from(sorted(CORRUPTIONS)),
)
def test_solve_exits_with_a_documented_code(tiny_problem, capsys, method, iters, every,
                                            trials, lam, kernel, beta0_len, corruption):
    with tempfile.TemporaryDirectory() as tmp:
        prob = os.path.join(tmp, "prob")
        shutil.copytree(tiny_problem, prob)
        if CORRUPTIONS[corruption] is not None:
            name, edit = CORRUPTIONS[corruption]
            _rewrite(os.path.join(prob, name), edit)
        argv = ["solve", prob, "--method", method, "--iters", str(iters),
                "--trials", str(trials), "--out", os.path.join(tmp, "t.csv")]
        if every is not None:
            argv += ["--checkpoint-every", str(every)]
        if lam is not None:
            argv += ["--lambda", lam]
        if kernel is not None:
            argv += ["--kernel", kernel]
        if beta0_len is not None:
            beta0 = os.path.join(tmp, "b.vec")
            with open(beta0, "w") as f:
                f.write("0.5\n" * beta0_len)
            argv += ["--beta0", beta0]
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NO_CONVERGENCE, cli.EXIT_IO)
    assert "Traceback" not in err
