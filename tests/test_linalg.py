import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randiter import linalg
from randiter.errors import DimensionError, NotPositiveDefinite, NotSymmetric

from conftest import traced_peak


def brute_force_row_norms(X):
    """Independent oracle: entry-by-entry summation."""
    n, p = X.shape
    out = np.zeros(n)
    for i in range(n):
        for j in range(p):
            out[i] += X[i, j] ** 2
    return out


class TestConstruction:
    def test_matrix_is_column_major_float64(self):
        X = linalg.dense_matrix([[1, 2], [3, 4]])
        assert X.flags["F_CONTIGUOUS"]
        assert X.dtype == np.float64

    def test_column_major_float64_input_is_returned_without_a_copy(self):
        a = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert linalg.dense_matrix(a) is a
        rows = np.ascontiguousarray(a)
        assert not np.shares_memory(linalg.dense_matrix(rows), rows)  # row-major: copied
        a[2, 1] = np.inf
        with pytest.raises(ValueError):
            linalg.dense_matrix(a)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linalg.dense_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            linalg.dense_vector([np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_rejects_a_non_finite_first_or_last_entry(self, bad, at):
        a = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        a.T.flat[at] = bad  # the first or last entry in storage order
        with pytest.raises(ValueError):
            linalg.dense_matrix(a)
        v = np.arange(5.0)
        v[at] = bad
        with pytest.raises(ValueError):
            linalg.dense_vector(v)

    def test_finiteness_check_makes_no_temporary(self):
        a = np.asfortranarray(np.random.default_rng(0).standard_normal((20000, 10)))
        back, peak = traced_peak(linalg.dense_matrix, a)
        assert back is a
        assert peak < 0.01 * 8 * a.size

    def test_1d_float64_vector_is_returned_without_a_copy(self):
        v = np.arange(4.0)
        assert linalg.dense_vector(v) is v
        for other in (np.arange(4), v.reshape(2, 2)):  # ints, 2-D: copied, flat
            out = linalg.dense_vector(other)
            assert out.dtype == np.float64 and out.shape == (4,)
            assert not np.shares_memory(out, other)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            linalg.dense_matrix(np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            linalg.dense_vector([])

    def test_rejects_a_3d_array(self):
        with pytest.raises(DimensionError, match="ndim=3"):
            linalg.dense_matrix(np.zeros((2, 2, 2)))


class TestNorms:
    def test_row_norms_identity(self):
        X = linalg.dense_matrix(np.eye(2))
        assert np.allclose(linalg.row_norms_sq(X), [1.0, 1.0])

    def test_row_norms_forced(self):
        X = linalg.dense_matrix([[3.0, 4.0], [0.0, 0.0]])
        assert np.allclose(linalg.row_norms_sq(X), [25.0, 0.0], atol=0)

    def test_row_norms_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        X = linalg.dense_matrix(rng.standard_normal((5, 3)))
        assert np.max(np.abs(linalg.row_norms_sq(X) - brute_force_row_norms(X))) < 1e-12

    def test_col_norms_identity(self):
        X = linalg.dense_matrix(np.eye(2))
        assert np.allclose(linalg.col_norms_sq(X), [1.0, 1.0])

    def test_col_norms_forced(self):
        X = linalg.dense_matrix([[3.0, 0.0], [4.0, 0.0]])
        assert np.allclose(linalg.col_norms_sq(X), [25.0, 0.0], atol=0)

    def test_col_norms_matches_transpose_oracle(self):
        rng = np.random.default_rng(12)
        X = linalg.dense_matrix(rng.standard_normal((5, 3)))
        via_transpose = linalg.row_norms_sq(linalg.dense_matrix(X.T))
        assert np.max(np.abs(linalg.col_norms_sq(X) - via_transpose)) < 1e-12

    def test_frobenius_trivial(self):
        assert linalg.frobenius_sq(linalg.dense_matrix(np.eye(3))) == 3.0
        assert linalg.frobenius_sq(linalg.dense_matrix([[3.0, 4.0]])) == 25.0

    def test_frobenius_equals_row_sum(self):
        rng = np.random.default_rng(13)
        X = linalg.dense_matrix(rng.standard_normal((6, 4)))
        assert abs(linalg.frobenius_sq(X) - float(np.sum(linalg.row_norms_sq(X)))) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_frobenius_row_col_identity(self, n, p, seed):
        X = np.random.default_rng(seed).standard_normal((n, p))
        f = linalg.frobenius_sq(X)
        rel = 1e-12 * (1.0 + f)
        assert abs(f - float(np.sum(linalg.row_norms_sq(X)))) <= rel
        assert abs(f - float(np.sum(linalg.col_norms_sq(X)))) <= rel


class TestSolveSpd:
    def test_identity(self):
        x = linalg.solve_spd(np.eye(2), np.array([4.0, 5.0]))
        assert np.allclose(x, [4.0, 5.0])

    def test_diagonal(self):
        x = linalg.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((8, 8))
        A = M.T @ M + 0.1 * np.eye(8)
        b = rng.standard_normal(8)
        x = linalg.solve_spd(A, b)
        assert np.max(np.abs(A @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.solve_spd(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_a_non_square_a_or_a_b_of_the_wrong_length(self):
        with pytest.raises(DimensionError, match="square"):
            linalg.solve_spd(np.eye(3, 2), np.ones(3))
        with pytest.raises(DimensionError, match=r"\(2, 2\) x \(3,\)"):
            linalg.solve_spd(np.eye(2), np.ones(3))


class TestSymEigs:
    def test_diagonal(self):
        assert np.allclose(linalg.sym_eigs(np.diag([1.0, 4.0])), [1.0, 4.0])

    def test_forced_2x2(self):
        w = linalg.sym_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])

    def test_constructed_spectrum(self):
        # orthogonal Q from repeated Householder reflections, known d
        rng = np.random.default_rng(16)
        n = 9
        Q = np.eye(n)
        for _ in range(3):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            Q = Q @ (np.eye(n) - 2.0 * np.outer(v, v))
        d = np.sort(rng.uniform(0.5, 5.0, n))
        A = Q @ np.diag(d) @ Q.T
        assert np.max(np.abs(linalg.sym_eigs(A) - d)) < 1e-8

    def test_trace_identity(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((10, 10))
        A = M + M.T
        w = linalg.sym_eigs(A)
        tr = float(np.trace(A))
        assert abs(float(np.sum(w)) - tr) <= 1e-8 * (1.0 + abs(tr))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.sym_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_eigenvectors_reconstruct(self):
        rng = np.random.default_rng(18)
        M = rng.standard_normal((7, 7))
        A = M @ M.T
        w, V = linalg.sym_eigh(A)
        assert np.max(np.abs(A @ V - V @ np.diag(w))) < 1e-8

