import argparse
import gc
import hashlib
import logging
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randiter import cli, io, kernel, linalg, oracle, solvers

from conftest import traced_peak

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    return cli.main(list(argv))


def _rewrite(path, edit):
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in edit(lines)))


def _set_line(k, text):
    return lambda lines: lines[:k] + [text] + lines[k + 1:]


def sidecar(path):
    return str(path) + io.SIDECAR_SUFFIX


def write_sidecar(path, values, digest=None):
    """A sidecar for path holding values, with the SHA-256 of path's
    bytes unless another digest is given."""
    if digest is None:
        digest = hashlib.sha256(open(path, "rb").read()).digest()
    with open(sidecar(path), "wb") as f:
        f.write(digest)
        np.save(f, values, allow_pickle=False)


def reference_values_text(values):
    """The value lines the writers must produce, one format() per value."""
    return "".join(format(float(x), ".17g") + "\n" for x in values)


# The sign of zero, the smallest subnormal, the largest float and a
# value whose 17 digits are all significant.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0 / 3.0, -1.0 / 3.0]


@pytest.fixture(scope="module")
def wide_problem(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("wide") / "prob")
    assert run_cli("generate", "underdetermined", "40", "80", "--seed", "1", "--out", out) == 0
    return out


@pytest.fixture
def consistent_dir(tmp_path):
    out = tmp_path / "prob"
    assert run_cli("generate", "consistent", "50", "20", "--seed", "1",
                   "--out", str(out)) == 0
    return str(out)


class TestFileFormats:
    def test_matrix_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        chunk = io.WRITE_CHUNK
        edges = np.array(EDGE_VALUES * 2).reshape((4, 4))
        straddling = rng.standard_normal((chunk // 3 + 7, 4))  # columns cross chunk edges
        straddling[chunk // 3 - 2:chunk // 3 + 2, :] = edges
        cases = [
            rng.standard_normal((7, 3)),
            edges,
            straddling,
            np.ascontiguousarray(straddling),
            rng.standard_normal((chunk + 1, 1)),
        ]
        path = str(tmp_path / "X.mtx")
        for X in cases:
            X = linalg.dense_matrix(X)
            n, p = X.shape
            io.write_matrix(path, X)
            column_major = [X[i, j] for j in range(p) for i in range(n)]
            expected = f"{io.MM_HEADER}\n{n} {p}\n" + reference_values_text(column_major)
            assert open(path, "rb").read() == expected.encode()
            cached = io.read_matrix(path)
            os.remove(sidecar(path))
            for back in (cached, io.read_matrix(path)):
                assert back.shape == X.shape
                assert back.tobytes() == X.tobytes()

    def test_vector_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        chunk = io.WRITE_CHUNK
        cases = [
            rng.standard_normal(11),
            np.array(EDGE_VALUES),
            rng.standard_normal(chunk + 1),
            np.concatenate([rng.standard_normal(chunk - 4), EDGE_VALUES]),
        ]
        path = str(tmp_path / "v.vec")
        for v in cases:
            io.write_vector(path, v)
            assert open(path, "rb").read() == reference_values_text(v).encode()
            cached = io.read_vector(path)
            os.remove(sidecar(path))
            for back in (cached, io.read_vector(path)):
                assert back.tobytes() == v.tobytes()

    def test_meta_round_trip(self, tmp_path):
        path = str(tmp_path / "meta.txt")
        io.write_meta(path, {"regime": "consistent", "n": 5, "noise_scale": 0.5})
        meta = io.read_meta(path)
        assert meta["regime"] == "consistent"
        assert float(meta["noise_scale"]) == 0.5

    def test_meta_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "meta.txt"
        path.write_text("# written by hand\n\nregime=consistent\n   \n  # n=7\nn=5\n")
        assert io.read_meta(str(path)) == {"regime": "consistent", "n": "5"}

    def test_comment_lines_before_the_size_line_change_nothing(self, consistent_dir, tmp_path):
        path = os.path.join(consistent_dir, "X.mtx")
        X = io.read_matrix(path)
        first = str(tmp_path / "first.csv")
        assert run_cli("solve", consistent_dir, "--method", "rk", "--out", first) == 0
        _rewrite(path, lambda lines: lines[:1] + ["% a comment", "%"] + lines[1:])
        os.remove(sidecar(path))
        assert io.read_matrix(path).tobytes() == X.tobytes()
        again = str(tmp_path / "again.csv")
        assert run_cli("solve", consistent_dir, "--method", "rk", "--out", again) == 0
        assert open(again, "rb").read() == open(first, "rb").read()

    def test_rejects_non_matrixmarket(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(IOError):
            io.read_matrix(str(path))

    def test_only_arrays_above_small_array_are_formatted_in_numpy(self, tmp_path, monkeypatch):
        chunks, format_lines = [], io._format_lines

        def spy(x):
            chunks.append(x.size)
            return format_lines(x)

        monkeypatch.setattr(io, "_format_lines", spy)
        path = str(tmp_path / "v.vec")
        for size in (io.SMALL_ARRAY, io.SMALL_ARRAY + 1):
            v = np.random.default_rng(size).standard_normal(size)
            io.write_vector(path, v)
            assert open(path, "rb").read() == reference_values_text(v).encode()
        sizes = [io.NUMPY_CHUNK] * (io.SMALL_ARRAY // io.NUMPY_CHUNK) + [1]
        assert chunks == sizes


def _float_from_bits(bits):
    return float(np.array(bits, np.uint64).view(np.float64))


def _ten_to(k, steps):
    """float("1e<k>") moved `steps` floats up (down for steps < 0)."""
    x = float(f"1e{k}")
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


def _ties(s):
    """Values r / 2**(s + 1), r odd, with 17 digits before the point once
    multiplied by 10**s, where they end in exactly .5: their 17th digit
    rounds half to even."""
    scale = Fraction(2 ** (s + 1))
    low = math.ceil(scale * Fraction(10) ** (16 - s))
    high = min(2 ** 53 - 2, math.ceil(scale * Fraction(10) ** (17 - s)) - 2)
    return st.integers(low, high).map(lambda r: (r | 1) / 2.0 ** (s + 1))


# "%g" switches to exponent notation below 1e-4 and from 1e17 up
G_SWITCHES = [9.9999999999999991e-06, 1e-05, 9.9999999999999991e-05, 1e-04,
              1.0000000000000001e-04, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17,
              1.0000000000000002e17]
FORMAT_VALUES = st.builds(
    lambda x, negate: -x if negate else x,
    st.one_of(
        st.floats(),
        st.integers(0, 2 ** 64 - 1).map(_float_from_bits),
        st.builds(_ten_to, st.integers(-330, 308), st.integers(-3, 3)),
        st.integers(1, 22).flatmap(_ties),
        st.sampled_from(EDGE_VALUES + G_SWITCHES + [1234567890123456.75, math.inf, math.nan]),
    ),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(extra=st.integers(1, 2 * io.NUMPY_CHUNK), seed=st.integers(0, 2 ** 32 - 1),
       placed=st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 31), FORMAT_VALUES),
                       max_size=12),
       matrix=st.booleans())
def test_numpy_formatting_matches_format_per_value(extra, seed, placed, matrix):
    """Above SMALL_ARRAY values, each writer's lines are format(x, ".17g")
    per value, with values placed mid-chunk and at chunk edges, and the
    sidecar holds the digest of those bytes."""
    size = io.SMALL_ARRAY + extra
    values = np.random.default_rng(seed).standard_normal(size)
    edges = sorted({k + d for k in range(0, size, io.NUMPY_CHUNK) for d in (-1, 0)
                    if k + d >= 0} | {size - 1})
    for on_edge, i, x in placed:
        values[edges[i % len(edges)] if on_edge else i % size] = x
    with tempfile.TemporaryDirectory() as tmp:
        if matrix:  # size x 1, so column-major order is the values' own
            path = os.path.join(tmp, "X.mtx")
            io.write_matrix(path, values.reshape((size, 1)))
            head = f"{io.MM_HEADER}\n{size} 1\n"
        else:
            path = os.path.join(tmp, "v.vec")
            io.write_vector(path, values)
            head = ""
        with open(path, "rb") as f:
            data = f.read()
        with open(sidecar(path), "rb") as f:
            digest = f.read(32)
    expected = (head + reference_values_text(values)).encode()
    same = data == expected  # a bool: pytest's diff of two 400 kB strings takes minutes
    assert same, next((i, a, b) for i, (a, b) in
                      enumerate(zip(data.split(b"\n"), expected.split(b"\n"))) if a != b)
    assert digest == hashlib.sha256(data).digest()


class TestSidecar:
    """A matrix or vector file's values come from its sidecar only when
    the sidecar holds the file's digest and a 1-D float64 array; in
    every other case the text is parsed."""

    @pytest.fixture
    def written(self, tmp_path):
        X = linalg.dense_matrix(np.random.default_rng(3).standard_normal((9, 4)))
        path = str(tmp_path / "X.mtx")
        io.write_matrix(path, X)
        return path, X

    def test_holds_digest_then_values_in_file_order(self, written):
        path, X = written
        with open(sidecar(path), "rb") as f:
            assert f.read(32) == hashlib.sha256(open(path, "rb").read()).digest()
            values = np.load(f, allow_pickle=False)
        assert values.dtype == np.float64
        assert values.tobytes() == X.ravel(order="F").tobytes()

    def test_matching_sidecar_is_read_instead_of_the_text(self, written):
        path, X = written
        write_sidecar(path, X.ravel(order="F") + 1.0)
        assert io.read_matrix(path).tobytes() == (X + 1.0).tobytes()

    @pytest.mark.parametrize("keep", [20, 32 + 20, -8], ids=["digest", "header", "values"])
    def test_truncated_sidecar_is_parsed(self, written, keep):
        path, X = written
        data = open(sidecar(path), "rb").read()
        with open(sidecar(path), "wb") as f:
            f.write(data[:keep])
        assert io.read_matrix(path).tobytes() == X.tobytes()

    @pytest.mark.parametrize("stored", [
        lambda X: X.ravel(order="F").astype(np.float32),
        lambda X: X.T,  # 2-D, and read in column-major order it is not X
        lambda X: np.float64(X[0, 0]),
    ], ids=["float32", "2-D", "0-D"])
    def test_sidecar_of_another_dtype_or_ndim_is_parsed(self, written, stored):
        path, X = written
        write_sidecar(path, stored(X))
        assert io.read_matrix(path).tobytes() == X.tobytes()

    def test_flipped_digest_byte_is_parsed(self, written):
        path, X = written
        digest = bytearray(hashlib.sha256(open(path, "rb").read()).digest())
        digest[7] ^= 1
        write_sidecar(path, X.ravel(order="F") + 1.0, bytes(digest))
        assert io.read_matrix(path).tobytes() == X.tobytes()

    def test_edited_text_beside_its_old_sidecar_reads_the_edit(self, written):
        path, X = written
        _rewrite(path, _set_line(2 + 5, "2.5"))  # X[5, 0]
        expected = X.copy()
        expected[5, 0] = 2.5
        assert io.read_matrix(path).tobytes() == expected.tobytes()

    def test_read_holds_the_matrix_once(self, tmp_path):
        # the sidecar's array is X: no column-major copy of it
        n, p = 20000, 10
        X = linalg.dense_matrix(np.random.default_rng(4).standard_normal((n, p)))
        path = str(tmp_path / "X.mtx")
        io.write_matrix(path, X)
        back, peak = traced_peak(io.read_matrix, path)
        assert back.flags["F_CONTIGUOUS"] and back.tobytes() == X.tobytes()
        assert peak < 1.5 * 8 * n * p

    def test_read_holds_the_vector_once(self, tmp_path):
        # the sidecar's array is y: no copy of it (and n large enough that
        # the copy would outweigh io.HASH_BLOCK)
        n = 200000
        y = np.random.default_rng(5).standard_normal(n)
        path = str(tmp_path / "y.vec")
        io.write_vector(path, y)
        back, peak = traced_peak(io.read_vector, path)
        assert back.tobytes() == y.tobytes()
        assert peak < 1.5 * 8 * n

    def test_small_file_is_hashed_in_a_buffer_of_its_size(self, tmp_path):
        # a 1 MB read block for a 403 KB file would peak near 1.4 MB
        y = np.random.default_rng(6).standard_normal(20000)
        path = str(tmp_path / "y.vec")
        io.write_vector(path, y)
        size = os.path.getsize(path)
        assert size < io.HASH_BLOCK
        back, peak = traced_peak(io.read_vector, path)
        assert back.tobytes() == y.tobytes()
        assert peak < 2 * size

    def test_sidecar_write_failure_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "prob"
        os.makedirs(out / ("y.vec" + io.SIDECAR_SUFFIX))
        assert run_cli("generate", "consistent", "12", "3", "--out", str(out)) == cli.EXIT_IO
        assert "y.vec" + io.SIDECAR_SUFFIX in capsys.readouterr().err

    def test_stale_sidecar_gives_the_parsed_exit_code_for_every_bad_value(self, tiny_problem,
                                                                          tmp_path, capsys):
        for name in ("X.mtx", "y.vec"):
            for bad, edit in BAD_VALUES.items():
                prob = str(tmp_path / f"{name}-{bad}")
                shutil.copytree(tiny_problem, prob)
                path = os.path.join(prob, name)
                head = 2 if name == "X.mtx" else 0
                _rewrite(path, lambda lines: lines[:head] + edit(lines[head:]))
                argv = ("solve", prob, "--method", "rk", "--out", str(tmp_path / "t.csv"))
                stale = run_cli(*argv)
                os.remove(sidecar(path))
                assert (stale, run_cli(*argv)) == (cli.EXIT_IO, cli.EXIT_IO), (name, bad)
                assert "Warning" not in capsys.readouterr().err


class TestGenerate:
    def test_writes_all_files(self, consistent_dir):
        for name in ("X.mtx", "y.vec", "reference.vec", "meta.txt"):
            assert os.path.exists(os.path.join(consistent_dir, name))

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate", "consistent", "30", "10", "--seed", "3",
                           "--out", str(out)) == 0
        names = ["X.mtx", "y.vec", "reference.vec", "meta.txt"]
        for name in names + [name + io.SIDECAR_SUFFIX for name in names[:3]]:
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

    @pytest.mark.parametrize("noise", ["inf", "1e308"])
    def test_noise_that_overflows_is_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "inc"
        assert run_cli("generate", "inconsistent", "30", "10", "--noise", noise,
                       "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("randiter: noise_scale") and "Warning" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["generate", "consistent", "30", "10", "--seed", "-1"], "--seed"),
    (["generate", "underdetermined", "0", "5"], "n"),
    (["generate", "consistent", "5", "0"], "p"),
    (["generate", "consistent", "5", "-1"], "p"),
    (["solve", "{prob}", "--method", "rk", "--seed", "-1"], "--seed"),
    (["compare", "{prob}", "--method", "rk", "--seed", "-1"], "--seed"),
], ids=lambda v: v if isinstance(v, str) else "-".join(v[:1] + v[-2:]))
def test_int_below_its_lower_bound_is_usage_error(consistent_dir, tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    argv = [consistent_dir if arg == "{prob}" else arg for arg in argv]
    assert run_cli(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert f"argument {name}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,name,value", [
    (["solve", "{prob}", "--method", "rk", "--iters", "1.5"], "--iters", "1.5"),
    (["compare", "{prob}", "--method", "rk", "--checkpoint-every", "ten"],
     "--checkpoint-every", "ten"),
    (["generate", "consistent", "30", "1e1"], "p", "1e1"),
], ids=lambda v: v if isinstance(v, str) else "-".join(v[:1] + v[-2:]))
def test_int_flag_that_is_no_int_is_usage_error(consistent_dir, tmp_path, capsys, argv, name,
                                                value):
    out = tmp_path / "out"
    argv = [consistent_dir if arg == "{prob}" else arg for arg in argv]
    assert run_cli(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert f"argument {name}: invalid int value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


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

    def test_directory_without_meta_runs_unjudged_with_a_falling_bound(self, tmp_path):
        # without meta.txt the regime is unknown, so rcd is not judged; the
        # rate still comes from the shape: X X^T's positive eigenvalues
        prob, out = tmp_path / "und", str(tmp_path / "t.csv")
        assert run_cli("generate", "underdetermined", "20", "50", "--seed", "4",
                       "--out", str(prob)) == 0
        os.remove(prob / "meta.txt")
        assert run_cli("solve", str(prob), "--method", "rcd", "--iters", "200",
                       "--out", out) == cli.EXIT_OK
        bound = [float(line.split(",")[4]) for line in open(out).read().splitlines()[1:]]
        assert bound[0] == pytest.approx(35199.7, rel=1e-5)
        assert bound[-1] == pytest.approx(3924.6, rel=1e-5)
        assert all(later < earlier for earlier, later in zip(bound, bound[1:]))

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, command, tol):
        prob, out = tmp_path / "prob", tmp_path / "t.csv"
        assert run_cli("generate", "consistent", "30", "10", "--seed", "1",
                       "--out", str(prob)) == 0
        code = run_cli(command, str(prob), "--method", "rk", "--iters", "3000",
                       "--tol", tol, "--out", str(out))
        assert code == cli.EXIT_USAGE
        assert "--tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_krr_solve_writes_the_library_run(self, tmp_path):
        # the CLI forms K + lambda I for alpha* and the rate only; the
        # run, checkpoints included, is kernel.krr_run's, byte for byte
        prob = str(tmp_path / "u")
        assert run_cli("generate", "underdetermined", "20", "50", "--seed", "4",
                       "--out", prob) == 0
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", prob, "--method", "rk-krr", "--kernel", "gaussian",
                       "--gamma", "0.5", "--lambda", "0.1", "--out", out) == 0
        X = io.read_matrix(os.path.join(prob, "X.mtx"))
        y = io.read_vector(os.path.join(prob, "y.vec"))
        spec, lam = kernel.KernelSpec("gaussian", gamma=0.5), 0.1
        M = oracle.gram_matrix(spec, X) + lam * np.eye(20)
        rate = oracle.theoretical_rate(M, False, 20, lam)
        trace = kernel.krr_run(X, y, spec, lam, solvers.RunConfig(max_iters=10000),
                               oracle.krr_alpha_star(X, y, spec, lam, M), rate)
        io.write_trace_csv(str(tmp_path / "lib.csv"), trace)
        assert open(out, "rb").read() == open(tmp_path / "lib.csv", "rb").read()


class TestPlateau:
    # K is nearly I in both cases, so a step solves its row and steps
    # that revisit solved rows change nothing. Checkpoints more often
    # than once an epoch must not read a few such steps as a plateau:
    # the window spans as many steps as 5 epochs. (A window of one epoch
    # still stops the second case at iteration 497, with one row undrawn.)
    @pytest.mark.parametrize("instance,every,iters,seed", [
        (("underdetermined", "40", "80"), "1", "2500", "3"),
        (("consistent", "50", "20"), "7", "20000", "4"),
    ], ids=["every-1", "every-7"])
    def test_window_spans_epochs_at_any_cadence(self, tmp_path, instance, every, iters, seed):
        prob = str(tmp_path / "prob")
        assert run_cli("generate", *instance, "--seed", "1", "--out", prob) == 0
        out = str(tmp_path / "t.csv")
        assert run_cli("solve", prob, "--method", "rk-krr", "--kernel", "gaussian",
                       "--gamma", "0.5", "--lambda", "0.1", "--checkpoint-every", every,
                       "--iters", iters, "--seed", seed, "--out", out) == cli.EXIT_OK
        assert float(open(out).read().splitlines()[-1].split(",")[2]) <= 1e-24


class TestLogging:
    def test_main_leaves_process_logging_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RANDITER_LOG", raising=False)
        logger = logging.getLogger("randiter")
        before = (logging.root.manager.disable, logger.level, logger.handlers[:])
        assert run_cli("generate", "consistent", "12", "3", "--out", str(tmp_path / "p")) == 0
        assert (logging.root.manager.disable, logger.level, logger.handlers) == before

    def test_main_leaves_the_collector_alone(self, tmp_path):
        # only a process that runs the module as __main__ freezes the
        # collector's import-time heap (see test_module_run_freezes_its_imports)
        enabled = gc.isenabled()
        try:
            for state in (False, True):
                (gc.enable if state else gc.disable)()
                frozen = gc.get_freeze_count()
                assert run_cli("generate", "consistent", "12", "3",
                               "--out", str(tmp_path / f"p{state}")) == 0
                assert (gc.isenabled(), gc.get_freeze_count()) == (state, frozen)
        finally:
            (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("value", ["info", "INFO", "debug", "Debug"])
    def test_info_goes_to_stderr(self, tmp_path, monkeypatch, capsys, value):
        # the line is printed, not logged: a handler the host attached to
        # the root logger gets no record, and the randiter logger is untouched
        monkeypatch.setenv("RANDITER_LOG", value)
        logger = logging.getLogger("randiter")
        before = (logger.level, logger.handlers[:], logger.propagate)
        records, host = [], logging.Handler(logging.DEBUG)
        host.emit = records.append
        level = logging.root.level
        logging.root.addHandler(host)
        logging.root.setLevel(logging.DEBUG)
        try:
            assert run_cli("generate", "consistent", "12", "3",
                           "--out", str(tmp_path / "p")) == 0
        finally:
            logging.root.removeHandler(host)
            logging.root.setLevel(level)
        line = f"randiter: wrote consistent instance to {tmp_path / 'p'}\n"
        assert capsys.readouterr().err == line
        assert records == []
        assert (logger.level, logger.handlers, logger.propagate) == before

    @pytest.mark.parametrize("value", ["", "OFF", "Off"])
    def test_empty_or_off_in_any_case_logs_nothing(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("RANDITER_LOG", value)
        assert run_cli("generate", "consistent", "12", "3", "--out", str(tmp_path / "p")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["of", "banana", "1", "information"])
    def test_unknown_value_is_usage_error_before_any_command(self, tmp_path, monkeypatch, capsys,
                                                             value):
        monkeypatch.setenv("RANDITER_LOG", value)
        out = tmp_path / "p"
        assert run_cli("generate", "consistent", "12", "3", "--out", str(out)) == cli.EXIT_USAGE
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("randiter: RANDITER_LOG must be off, info or debug")
        assert repr(value) in line
        assert not out.exists() and not logging.getLogger("randiter").handlers

    def test_records_reach_a_handler_the_host_attached(self, tmp_path, monkeypatch, caplog):
        # this process has imported logging, so the records go out with
        # RANDITER_LOG unset, as they did when the cli imported it itself
        monkeypatch.delenv("RANDITER_LOG", raising=False)
        with caplog.at_level(logging.INFO, logger="randiter"):
            assert run_cli("generate", "consistent", "12", "3", "--out", str(tmp_path / "p")) == 0
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("randiter", "INFO", f"wrote consistent instance to {tmp_path / 'p'}")]


def fresh_imports(args, cwd, **env):
    """(exit code, the modules imported, the other stderr lines) of a fresh
    `python -X importtime ARGS`, which lists every import on stderr, with
    RANDITER_LOG unset unless given in env."""
    base = {k: v for k, v in os.environ.items() if k != "RANDITER_LOG"}
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          env=dict(base, PYTHONPATH=SRC, **env), capture_output=True, text=True)
    modules, lines = set(), []
    for line in done.stderr.splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            lines.append(line)
    return done.returncode, modules, lines


class TestImportsPerCommand:
    # with no bytecode written, a CLI process compiles every module it
    # imports: each loads only the modules its command runs, and never
    # logging, under RANDITER_LOG too
    CLI = ["-m", "randiter.cli"]

    def test_generate_loads_no_solver_and_no_logging(self, tmp_path):
        # and numpy.random, whose normals it draws
        code, modules, _ = fresh_imports([*self.CLI, "generate", "consistent", "30", "10",
                                          "--out", "p"], tmp_path)
        assert code == 0 and {"randiter.oracle", "numpy.random"} <= modules
        assert not modules & {"logging", "randiter.solvers", "randiter.sampling",
                              "randiter.kernel", "randiter.ridge"}

    # method and its flags -> (the run modules it loads, those it does not)
    SOLVES = {
        "rk": ((), ("kernel", "ridge")),
        "rcd": ((), ("kernel", "ridge")),
        "rk-ridge --lambda 0.1": (("ridge",), ("kernel",)),
        "rcd-ridge --lambda 0.1": (("ridge",), ("kernel",)),
        "rk-krr --lambda 0.1 --kernel gaussian": (("kernel",), ("ridge",)),
    }

    @pytest.mark.parametrize("method", list(SOLVES), ids=lambda m: m.split()[0])
    def test_solve_loads_only_its_methods_modules(self, tmp_path, method):
        assert run_cli("generate", "consistent", "30", "10", "--out", str(tmp_path / "p")) == 0
        code, modules, _ = fresh_imports([*self.CLI, "solve", "p", "--method", *method.split(),
                                          "--iters", "300", "--out", "t.csv"], tmp_path)
        loads, skips = (["randiter." + name for name in names] for names in self.SOLVES[method])
        assert code in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
        assert {"randiter.solvers", "randiter.sampling", *loads} <= modules
        assert not modules & {"logging", "numpy.random", *skips}

    def test_compare_loads_no_numpy_random(self, tmp_path):
        # runs draw from sampling.PCG64Stream
        assert run_cli("generate", "underdetermined", "20", "40", "--out",
                       str(tmp_path / "u")) == 0
        code, modules, _ = fresh_imports([*self.CLI, "compare", "u", "--method", "rk-ridge",
                                          "--method", "rcd-ridge", "--method", "rk-krr",
                                          "--kernel", "gaussian", "--lambda", "0.1",
                                          "--iters", "300", "--out", "c.csv"], tmp_path)
        assert code == cli.EXIT_OK
        assert {"randiter.ridge", "randiter.kernel"} <= modules
        assert "numpy.random" not in modules

    def test_library_solvers_load_no_oracle_or_cli(self, tmp_path):
        # nor numpy.random, through a whole rk-krr run
        run = ("import numpy as np\n"
               "from randiter import io, kernel, solvers\n"
               "data, y = np.eye(4, 2), np.ones(4)\n"
               "trace = kernel.krr_run(data, y, kernel.KernelSpec('linear'), 0.5,\n"
               "                       solvers.RunConfig(max_iters=20), np.zeros(4), 0.9)\n"
               "print(trace.final().iter)\n")
        code, modules, _ = fresh_imports(["-c", run], tmp_path)
        assert code == 0 and "randiter.kernel" in modules
        assert not modules & {"randiter.oracle", "randiter.cli", "numpy.random"}

    def test_rk_krr_under_randiter_log_prints_its_lines(self, tmp_path):
        # compare logs no line of its own; generate and solve do
        krr = ["--method", "rk-krr", "--kernel", "gaussian", "--lambda", "0.1"]
        calls = [["generate", "underdetermined", "20", "40", "--seed", "1", "--out", "u"],
                 ["compare", "u", *krr, "--out", "c.csv"],
                 ["solve", "u", *krr, "--out", "t.csv"]]
        outputs = [fresh_imports([*self.CLI, *argv], tmp_path, RANDITER_LOG="debug")
                   for argv in calls]
        assert all(code == 0 and "logging" not in modules for code, modules, _ in outputs)
        assert outputs[0][2] == ["randiter: wrote underdetermined instance to u"]
        [line] = outputs[2][2]
        assert line.startswith("randiter: solve rk-krr: final err_sq=")


def test_module_entry_point_matches_main(tmp_path):
    # the CLI started as the randiter script and the benchmark start it:
    # a fresh interpreter that imports randiter.cli by itself

    def calls(root):
        return (["generate", "consistent", "12", "4", "--seed", "1", "--out", str(root / "p")],
                ["solve", str(root / "p"), "--method", "rk", "--out", str(root / "t.csv")])

    for argv in calls(tmp_path / "sub"):
        done = subprocess.run([sys.executable, "-m", "randiter.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
        assert done.returncode == 0, done.stderr
    for argv in calls(tmp_path / "main"):
        assert run_cli(*argv) == 0
    assert (tmp_path / "sub" / "t.csv").read_bytes() == (tmp_path / "main" / "t.csv").read_bytes()


def test_module_run_freezes_its_imports(tmp_path):
    # run as __main__, the module freezes what its imports left and runs
    # main() with the collector back on
    child = ("import gc, runpy\n"
             "try:\n"
             "    runpy.run_module('randiter.cli', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    print(exc.code, gc.isenabled(), gc.get_freeze_count())\n")
    done = subprocess.run([sys.executable, "-c", child, "generate", "consistent", "12", "3",
                           "--out", str(tmp_path / "p")],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, enabled, frozen = done.stdout.split()
    assert (code, enabled) == ("0", "True")
    assert int(frozen) > 0
    assert (tmp_path / "p" / "X.mtx").exists()


@pytest.mark.parametrize("method", [["rk-krr", "--kernel", "gaussian", "--gamma", "0.5",
                                     "--lambda", "0.1"], ["rcd"]], ids=lambda m: m[0])
def test_fresh_processes_write_the_same_trace(tmp_path, method):
    # README's determinism contract: with one numpy, one BLAS build and
    # one BLAS thread count (here, one environment), a seeded solve
    # writes the same bytes in every process
    problem = str(tmp_path / "p")
    assert run_cli("generate", "inconsistent", "300", "4", "--seed", "2", "--out", problem) == 0
    traces, codes = [], []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-m", "randiter.cli", "solve", problem,
                               "--method", *method, "--iters", "3000", "--trials", "2",
                               "--seed", "5", "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
        assert done.returncode in (0, 3), done.stderr
        codes.append(done.returncode)
        traces.append(out.read_bytes())
    assert codes[0] == codes[1]
    assert traces[0] == traces[1] and traces[0].count(b"\n") > 2


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

    def test_contraction_is_zero_without_two_positive_errors(self, consistent_dir, tmp_path):
        # started at the reference, fewer than two checkpoints of either
        # run have a positive error in its natural column to fit between
        out = str(tmp_path / "cmp.csv")
        start = os.path.join(consistent_dir, "reference.vec")
        assert run_cli("compare", consistent_dir, "--method", "rk", "--method", "rcd",
                       "--beta0", start, "--out", out) == 0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        assert [(row[0], float(row[7])) for row in rows] == [("rk", 0.0), ("rcd", 0.0)]

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


# id -> edit of the value lines of a vector or matrix file. Each value
# file holds exactly one float per line: no '#' comments, no '_' digit
# separators, no line with two values even when the count comes out right.
BAD_VALUES = {
    "abc": _set_line(3, "abc"),
    "1.0 2.0": _set_line(3, "1.0 2.0"),
    "nan": _set_line(3, "nan"),
    "# c": lambda lines: lines[:3] + ["# c"] + lines[3:],  # the count stays right
    "1_0": _set_line(3, "1_0"),
    "two per line": lambda lines: [f"{a} {b}" for a, b in zip(lines[::2], lines[1::2])],
    "empty": lambda lines: [],
    "blank": lambda lines: ["", "  ", "\t"],
}


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

    @pytest.mark.parametrize("method", ["rk", "rcd"])
    def test_overflowing_start_exits_3_with_nothing_on_stderr(self, tmp_path, capsys, method):
        # at beta0 = 1e200 every checkpoint measure overflows: the trace
        # records inf and the run stops, and numpy's overflow warnings,
        # which pytest turns into errors, are not raised
        problem, beta0 = str(tmp_path / "prob"), str(tmp_path / "b.vec")
        assert run_cli("generate", "consistent", "15", "6", "--seed", "9",
                       "--out", problem) == cli.EXIT_OK
        io.write_vector(beta0, np.full(6, 1e200))
        out = str(tmp_path / "t.csv")
        capsys.readouterr()
        code = run_cli("solve", problem, "--method", method, "--beta0", beta0, "--out", out)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == ""
        record0 = open(out).read().splitlines()[1].split(",")
        assert record0[0] == "0" and all(float(x) == math.inf for x in record0[1:4])

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

    @pytest.mark.parametrize("bad", list(BAD_VALUES))
    def test_bad_vector_value_is_io_error(self, consistent_dir, tmp_path, capsys, bad):
        _rewrite(os.path.join(consistent_dir, "y.vec"), BAD_VALUES[bad])
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "y.vec" in err and "Warning" not in err

    @pytest.mark.parametrize("bad", list(BAD_VALUES))
    def test_bad_matrix_value_is_io_error(self, consistent_dir, tmp_path, capsys, bad):
        edit = BAD_VALUES[bad]
        _rewrite(os.path.join(consistent_dir, "X.mtx"), lambda lines: lines[:2] + edit(lines[2:]))
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "X.mtx" in err and "Warning" not in err

    @pytest.mark.parametrize("name", ["X.mtx", "y.vec"])
    def test_undecodable_byte_is_io_error(self, consistent_dir, tmp_path, capsys, name):
        path = os.path.join(consistent_dir, name)
        data = bytearray(open(path, "rb").read())
        data[60] = 0xFF  # in X.mtx, a byte the header read decodes
        with open(path, "wb") as f:
            f.write(data)
        assert self._solve(consistent_dir, tmp_path) == cli.EXIT_IO
        assert f"{name}: 'utf-8' codec can't decode" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags,message", [
        (["gaussian", "--gamma", "inf"], "gaussian kernel requires a finite gamma > 0, got inf"),
        (["poly", "--offset", "nan"], "polynomial kernel requires a finite offset >= 0, got nan"),
        (["poly", "--offset", "inf"], "polynomial kernel requires a finite offset >= 0, got inf"),
    ])
    def test_non_finite_kernel_parameter_is_usage_error(self, tmp_path, capsys, flags, message):
        # the parameter is named, not the data
        prob = str(tmp_path / "c")
        assert run_cli("generate", "consistent", "12", "3", "--out", prob) == 0
        capsys.readouterr()
        code = run_cli("solve", prob, "--method", "rk-krr", "--kernel", *flags, "--lambda", "0.1",
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"randiter: {message}\n"
        assert not os.path.exists(tmp_path / "t.csv")

    def test_overflowing_data_is_usage_error_for_every_method(self, tmp_path, capsys):
        # X^T X, X X^T and K overflow at entries around 1e160, and y^T y at
        # y entries around 1e160 whatever X is (a gaussian K stays finite);
        # each method's M and y^T y are checked before any closed form or
        # run starts on them. Data sets: X and y around 1e160, then y only.
        rng = np.random.default_rng(5)
        for x_scale in (1e160, 1.0):
            prob = tmp_path / f"big-{x_scale:g}"
            os.makedirs(prob)
            io.write_matrix(str(prob / "X.mtx"), rng.standard_normal((30, 10)) * x_scale)
            io.write_vector(str(prob / "y.vec"), rng.standard_normal(30) * 1e160)
            io.write_vector(str(prob / "reference.vec"), rng.standard_normal(10))
            io.write_meta(str(prob / "meta.txt"), {"regime": "consistent"})
            for kernel_name in ("linear", "gaussian"):
                for method in cli.METHODS:
                    # each method gets only the flags it reads
                    flags = [] if method in ("rk", "rcd") else ["--lambda", "0.1"]
                    if method == "rk-krr":
                        flags += ["--kernel", kernel_name]
                    capsys.readouterr()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
                        code = run_cli("solve", str(prob), "--method", method, *flags,
                                       "--out", str(tmp_path / "t.csv"))
                    err = capsys.readouterr().err
                    assert code == cli.EXIT_USAGE, (x_scale, kernel_name, method)
                    assert "overflows on this data" in err and "non-finite" in err, err
                    assert "Warning" not in err
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("lam", ["5e307", "1e308"])
    @pytest.mark.parametrize("method", ["rk-ridge", "rcd-ridge", "rk-krr"])
    def test_lambda_that_overflows_the_trace_is_usage_error(self, wide_problem, tmp_path,
                                                            capsys, method, lam):
        # n lambda overflows: the trace of the Gram + lambda I, which is
        # the rate's denominator and the sampler's total, is checked first
        flags = ["--kernel", "gaussian"] if method == "rk-krr" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run_cli("solve", wide_problem, "--method", method, "--lambda", lam, *flags,
                           "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"randiter: {method} overflows")
        assert "non-finite" in err and "Warning" not in err
        assert not os.path.exists(tmp_path / "t.csv")

    def test_huge_lambda_with_a_finite_trace_runs_without_warnings(self, tmp_path, capsys):
        # at p = 1, rcd-ridge's Gram + lambda I is 1 x 1, near the
        # largest float; symmetrizing it for the rate must not overflow
        prob = str(tmp_path / "c")
        assert run_cli("generate", "consistent", "2", "1", "--seed", "1", "--out", prob) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run_cli("solve", prob, "--method", "rcd-ridge", "--lambda", "1e308",
                           "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method,expected,err", [
        ("rk-ridge", cli.EXIT_USAGE,
         "randiter: rk-ridge overflows at --lambda 1e-320: its alpha* is non-finite\n"),
        ("rcd-ridge", cli.EXIT_OK, ""),
    ], ids=["rk-ridge", "rcd-ridge"])
    def test_subnormal_lambda_is_judged_by_the_targets_a_method_reads(self, tmp_path, capsys,
                                                                      method, expected, err):
        # on tall data alpha* = (y - X beta_RR) / lambda overflows at a
        # subnormal lambda; rk-ridge reads alpha*, rcd-ridge only beta_RR
        prob = str(tmp_path / "i")
        assert run_cli("generate", "inconsistent", "12", "5", "--seed", "1", "--out", prob) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run_cli("solve", prob, "--method", method, "--lambda", "1e-320",
                           "--out", str(tmp_path / "t.csv"))
        assert (code, capsys.readouterr().err) == (expected, err)

    @pytest.mark.parametrize("method,expected", [("rk", cli.EXIT_OK),
                                                 ("rcd", cli.EXIT_NO_CONVERGENCE)])
    def test_positive_part_cutoff_where_the_gram_norm_squared_overflows(self, tmp_path, capsys,
                                                                        method, expected):
        # X and y times 1e79: ||X X^T||_F^2 overflows, but the cutoff
        # 1e-10 ||X X^T||_F is about 2e149, below every eigenvalue (3.5e157
        # to 1.9e159). rcd's residual_sq then rests near 1e125, above --tol.
        prob = str(tmp_path / "u")
        assert run_cli("generate", "underdetermined", "4", "8", "--seed", "1", "--out", prob) == 0
        for name, read, write in (("X.mtx", io.read_matrix, io.write_matrix),
                                  ("y.vec", io.read_vector, io.write_vector)):
            path = os.path.join(prob, name)
            write(path, read(path) * 1e79)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = run_cli("solve", prob, "--method", method, "--out", str(tmp_path / "t.csv"))
        assert (code, capsys.readouterr().err) == (expected, "")

    @pytest.mark.parametrize("method", ["rk-ridge", "rcd-ridge"])
    def test_ridge_oracles_need_no_outer_gram_on_tall_data(self, consistent_dir, tmp_path,
                                                           monkeypatch, method):
        # On tall data both ridge oracles work from the p x p X^T X, so an
        # n x n X X^T that would not fit in memory is never asked for.
        def outer_gram(X):
            raise MemoryError("Unable to allocate an n x n array")

        monkeypatch.setattr(oracle, "outer_gram", outer_gram)
        code = run_cli("solve", consistent_dir, "--method", method, "--lambda", "0.1",
                       "--out", str(tmp_path / "t.csv"))
        assert code in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
        assert os.path.exists(tmp_path / "t.csv")

    def test_oracle_out_of_memory_is_usage_error(self, consistent_dir, tmp_path, capsys,
                                                 monkeypatch):
        # rk-krr's kernel matrix K is n x n; numpy raises MemoryError when
        # it does not fit in memory.
        def gram_matrix(spec, data):
            raise MemoryError("Unable to allocate an n x n array")

        monkeypatch.setattr(oracle, "gram_matrix", gram_matrix)
        code = run_cli("solve", consistent_dir, "--method", "rk-krr", "--kernel", "gaussian",
                       "--lambda", "0.1", "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "oracle does not fit in memory" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t.csv")

    def test_problem_out_of_memory_names_its_data(self, consistent_dir, tmp_path, capsys,
                                                  monkeypatch):
        # an X.mtx too large to load: the oracle has not run
        def read_matrix(path):
            raise MemoryError("Unable to allocate an n x p array")

        monkeypatch.setattr(io, "read_matrix", read_matrix)
        code = run_cli("solve", consistent_dir, "--method", "rk", "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "X.mtx does not fit in memory" in err
        assert "oracle" not in err
        assert not os.path.exists(tmp_path / "t.csv")

    def test_generate_out_of_memory_names_the_instance(self, tmp_path, capsys, monkeypatch):
        # generate has no oracle: what does not fit is the n x p instance
        def gen_consistent(n, p, seed):
            raise MemoryError("Unable to allocate an n x p array")

        monkeypatch.setattr(oracle, "gen_consistent", gen_consistent)
        code = run_cli("generate", "consistent", "100000000", "10000",
                       "--out", str(tmp_path / "prob"))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "the 100000000 x 10000 instance does not fit in memory" in err
        assert "oracle" not in err
        assert not os.path.exists(tmp_path / "prob")

    @pytest.mark.parametrize("size_line", ["50", "50 x", "0 20", ""])
    def test_bad_size_line_is_io_error(self, tmp_path, size_line):
        path = tmp_path / "X.mtx"
        path.write_text(io.MM_HEADER + "\n" + size_line + "\n1.0\n")
        with pytest.raises(IOError, match="X.mtx"):
            io.read_matrix(str(path))


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
    lam=st.sampled_from([None, "-1", "0", "1e-320", "1e-3", "0.5", "10"]),
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
    # README's stderr half of the contract: a run says nothing, a failure
    # one `randiter: ` line, or argparse's own usage text on exit 2
    if code in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE):
        assert err == ""
    elif not (code == cli.EXIT_USAGE and err.startswith("usage: ")):
        assert err.startswith("randiter: ") and err.count("\n") == 1 and err.endswith("\n"), err


# Bytes a random edit writes: any byte, or one that often keeps the file
# numeric, so that both parse errors and changed values come up.
EDIT_BYTES = st.integers(0, 255) | st.sampled_from(list(b"0123456789.-+e\n "))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["X.mtx", "y.vec"]),
       where=st.floats(0.0, 1.0, exclude_max=True), byte=EDIT_BYTES)
def test_stale_sidecar_never_changes_a_solve(tiny_problem, capsys, name, where, byte):
    """After one byte of X.mtx or y.vec changes, solve behaves the same
    with the file's old sidecar present as with it deleted."""
    with tempfile.TemporaryDirectory() as tmp:
        prob = os.path.join(tmp, "prob")
        shutil.copytree(tiny_problem, prob)
        path = os.path.join(prob, name)
        data = bytearray(open(path, "rb").read())
        data[int(where * len(data))] = byte
        with open(path, "wb") as f:
            f.write(data)
        out = os.path.join(tmp, "t.csv")
        argv = ["solve", prob, "--method", "rk", "--iters", "300", "--out", out]
        runs = []
        for _ in range(2):
            capsys.readouterr()
            code = cli.main(argv)
            written = open(out, "rb").read() if os.path.exists(out) else None
            runs.append((code, written, capsys.readouterr().err))
            if os.path.exists(out):
                os.remove(out)
            if os.path.exists(sidecar(path)):
                os.remove(sidecar(path))
    assert runs[0] == runs[1]


KRR = ["solve", "{prob}", "--method", "rk-krr", "--lambda", "10"]
# the benchmark's dual-oracle compare, at its tiny size
DUAL_ORACLE = ["compare", "{prob}", "--method", "rk-ridge", "--method", "rcd-ridge",
               "--method", "rk-krr", "--kernel", "gaussian", "--lambda", "10.0",
               "--iters", "3000", "--trials", "2"]

# (argv without --out, a flag with its value, whether a method run reads it)
FLAG_CASES = [
    (["solve", "{prob}", "--method", "rk"], ["--lambda", "0.1"], False),
    (["solve", "{prob}", "--method", "rcd"], ["--kernel", "poly"], False),
    (["solve", "{prob}", "--method", "rcd-ridge", "--lambda", "10"], ["--kernel", "linear"],
     False),
    (["solve", "{prob}", "--method", "rk-ridge"], ["--lambda", "0.1"], True),
    (KRR + ["--kernel", "linear"], ["--gamma", "5"], False),
    (KRR + ["--kernel", "gaussian"], ["--degree", "3"], False),
    (KRR + ["--kernel", "gaussian"], ["--offset", "1"], False),
    (KRR + ["--kernel", "gaussian"], ["--gamma", "0.5"], True),
    (KRR + ["--kernel", "poly"], ["--degree", "2"], True),
    (KRR + ["--kernel", "poly"], ["--offset", "1"], True),
    (["compare", "{prob}", "--method", "rk", "--method", "rcd"], ["--lambda", "0.1"], False),
    (["compare", "{prob}", "--method", "rk", "--method", "rk-ridge"], ["--lambda", "0.1"], True),
    (["compare", "{prob}", "--method", "rk", "--method", "rk-krr", "--kernel", "linear",
      "--lambda", "0.1"], ["--gamma", "5"], False),
    (DUAL_ORACLE, ["--gamma", "0.01"], True),
    (DUAL_ORACLE, ["--degree", "3"], False),
    (["generate", "consistent", "30", "10"], ["--noise", "9"], False),
    (["generate", "underdetermined", "10", "30"], ["--noise", "9"], False),
    (["generate", "inconsistent", "30", "10"], ["--noise", "9"], True),
]


@pytest.fixture(scope="module")
def flags_problem(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flags") / "prob")
    assert run_cli("generate", "underdetermined", "6", "12", "--seed", "3", "--out", out) == 0
    return out


@pytest.mark.parametrize("argv,flag,read", FLAG_CASES,
                         ids=[f"{a[0]}-{' '.join(a[2:])}-{f[0]}" for a, f, _ in FLAG_CASES])
def test_flag_that_nothing_reads_is_usage_error(flags_problem, tmp_path, capsys, argv, flag,
                                                read):
    argv = [arg.replace("{prob}", flags_problem) for arg in argv]
    out = str(tmp_path / "out")
    code = run_cli(*argv, *flag, "--out", out)
    err = capsys.readouterr().err
    if read:
        assert code == cli.EXIT_OK, err
        assert os.path.exists(out)
        return
    assert code == cli.EXIT_USAGE
    assert f"{flag[0]} is unused here" in err, err
    assert not os.path.exists(out)
    # the same command without the flag runs
    assert run_cli(*argv, "--out", out) == cli.EXIT_OK


class TestComparePrecheck:
    """compare checks every method's flags and files before it runs any."""

    @pytest.fixture
    def trials(self, monkeypatch):
        calls = []
        oracle_step = cli._oracle_step

        def counting(method, *args):
            calls.append(method)
            return oracle_step(method, *args)

        monkeypatch.setattr(cli, "_oracle_step", counting)
        return calls

    @pytest.mark.parametrize("flags,message", [
        (["--method", "rk-krr"], "rk-krr requires --kernel"),
        (["--method", "rk"], "rk/rcd need a reference.vec"),
        (["--method", "rk-krr", "--kernel", "linear", "--gamma", "2"], "--gamma is unused here"),
        (["--method", "rk-krr", "--kernel", "gaussian", "--gamma", "inf"], "finite gamma > 0"),
    ])
    def test_exits_before_any_trial(self, consistent_dir, tmp_path, capsys, trials, flags,
                                    message):
        # two ridge methods that run for seconds come first
        os.remove(os.path.join(consistent_dir, "reference.vec"))
        out = str(tmp_path / "cmp.csv")
        code = run_cli("compare", consistent_dir, "--method", "rk-ridge", "--method", "rcd-ridge",
                       *flags, "--lambda", "0.1", "--iters", "200000", "--tol", "0", "--out", out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert trials == []
        assert not os.path.exists(out)


def test_readme_method_table_says_what_the_cli_does():
    # README's one table of per-method rules, row by row against cli._METHODS
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.startswith("| ")]
    header, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["method", "solves", "reads `--lambda`", "takes `--beta0`",
                      "needs `reference.vec`", "`--kernel`", "stops on"]
    assert [row[0] for row in rows] == list(cli.METHODS)
    yes = {"yes": True, "no": False}
    for method, solves, lam, beta0, reference, kernel_flag, stop in rows:
        reads_lam, dual, on_k = cli._METHODS[method]
        assert ([yes[lam], yes[beta0], yes[reference], yes[kernel_flag]]
                == [reads_lam, not dual, not reads_lam, on_k]), method
        assert ["λ" in solves, "α" in solves, "K" in solves] == [reads_lam, dual, on_k], method
        assert stop == ("`energy_err_sq`" if reads_lam else "`residual_sq`"), method


def _readme():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        return f.read()


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every `randiter ...` line of README's sh blocks, continuations
    # joined, runs in order and exits 0, with /tmp/ mapped into tmp_path
    blocks = re.findall(r"^```sh\n(.*?)^```", _readme(), re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("randiter ")]
    assert len(commands) > 1
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = [arg.replace("/tmp/", f"{tmp_path}/") for arg in shlex.split(command)[1:]]
        assert cli.main(argv) == cli.EXIT_OK, (command, capsys.readouterr().err)


def test_readme_names_the_whole_cli_surface():
    # every option string but --help, every choice of every argument, each
    # exit code with its meaning and every RANDITER_LOG value
    text = _readme()
    parser = cli._build_parser()
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    actions = [action for p in parsers for action in p._actions]
    words = ({s for action in actions for s in action.option_strings} - {"-h", "--help"}
             | {str(c) for action in actions for c in action.choices or ()})
    assert [w for w in sorted(words)
            if not re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", text)] == []
    meanings = {cli.EXIT_OK: "success", cli.EXIT_USAGE: "usage error",
                cli.EXIT_NO_CONVERGENCE: "did not reach `--tol`", cli.EXIT_IO: "I/O error"}
    assert {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")} == set(meanings)
    for code, meaning in meanings.items():
        assert f"- `{code}` {meaning}" in text, code
    assert all(f"`{value}`" in text for value in ("RANDITER_LOG", "off", "info", "debug"))
