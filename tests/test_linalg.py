"""Cauchy/Levy matrix assembly and the two least-squares kernels."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit.linalg import (
    IGNORE,
    Iterate,
    assemble_levy_system,
    build_cauchy,
    denominator_weighting,
    levy_matrix,
    min_unit_norm_solution,
    pivoted_weighted_lsq,
)
from helpers import random_instance


def test_build_cauchy_hand_values():
    assert_array_equal(build_cauchy([2.0], [1.0]), [[1.0 + 0j]])
    assert_array_equal(build_cauchy([1.0, 2.0], [0.0]), [[1.0 + 0j], [0.5 + 0j]])
    assert_allclose(build_cauchy([0.0], [1j]), [[1j]], rtol=1e-15)


def test_build_cauchy_rejects_coincident_point():
    with pytest.raises(ValueError):
        build_cauchy([1.0, 2.0], [2.0])


def test_assemble_levy_system_rejects_unpaired_lengths():
    for args in (([1.0, 2.0], [2.0], [0.0], [1.0]), ([1.0, 2.0], [2.0, 3.0], [0.0], [1.0, 2.0])):
        with pytest.raises(ValueError, match="pair up"):
            assemble_levy_system(*args)


def test_levy_matrix_single_support_hand_column():
    system = assemble_levy_system([1.0, 2.0], [2.0, 3.0], [0.0], [1.0])
    assert_allclose(levy_matrix(system), [[1.0], [1.0]], rtol=1e-15)


def test_levy_matrix_constant_data_is_zero():
    system = assemble_levy_system([1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [0.0, -1.0], [4.0, 4.0])
    assert_array_equal(levy_matrix(system), np.zeros((3, 2)))


def test_levy_matrix_one_by_one():
    system = assemble_levy_system([2.0], [4.0], [0.0], [1.0])
    assert_allclose(levy_matrix(system), [[1.5]], rtol=1e-15)


def test_levy_matrix_entries_match_direct_formula():
    rng = np.random.default_rng(5)
    supports, interp_values, data = random_instance(rng, 4, 9)
    system = assemble_levy_system(data.points, data.values, supports, interp_values)
    L = levy_matrix(system)
    for i in range(9):
        for j in range(4):
            expected = (data.values[i] - interp_values[j]) / (data.points[i] - supports[j])
            assert_allclose(L[i, j], expected, rtol=1e-15)


def test_levy_system_residual_helpers_are_consistent():
    rng = np.random.default_rng(6)
    supports, interp_values, data = random_instance(rng, 3, 8)
    system = assemble_levy_system(data.points, data.values, supports, interp_values)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    n = system.numerators(w)
    d = system.denominators(w)
    with np.errstate(**IGNORE):
        it = system.evaluate(w)
    assert isinstance(it, Iterate) and it.weights is w
    assert it.n.tobytes() == n.tobytes() and it.d.tobytes() == d.tobytes()
    assert it.res.tobytes() == np.abs(n / d - data.values).tobytes()
    expected = float(np.sum(np.abs(n / d - data.values) ** 2))
    assert_allclose(system.residual_sq_sum(w), expected, rtol=1e-14)
    assert system.residual_sq_sum(w) == it.err
    res, res_eval = np.empty(data.size), np.empty(data.size)
    assert system.residual_sq_sum(w, out=res) == it.err
    with np.errstate(**IGNORE):
        assert system.evaluate(w, out=res_eval).res is res_eval
    assert res.tobytes() == res_eval.tobytes() == it.res.tobytes()
    # the Levy matrix encodes -(n - d H) column-combined
    assert_allclose(levy_matrix(system) @ w, -(n - d * data.values), rtol=1e-13)
    # supports 0 and 1 with weights 1 and 1: d(z) = 1/z + 1/(z - 1) vanishes
    # exactly at the active sample z = 0.5, where r has a pole; neither
    # call warns, evaluate under the caller's errstate, residual_sq_sum
    # under its own
    system = assemble_levy_system([0.5, 2.0], [1.0, 1.0], [0.0, 1.0], [1.0, 2.0])
    w = np.ones(2, dtype=complex)
    assert system.denominators(w)[0] == 0
    res = np.empty(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(**IGNORE):
            it = system.evaluate(w)
        assert system.residual_sq_sum(w, out=res) == np.inf
    assert it.err == np.inf
    assert it.res[0] == np.inf and np.isfinite(it.res[1])
    assert res[0] == np.inf and res[1] == it.res[1]
    # with h = (1, 1) the numerator vanishes there too; the residual of 0/0
    # reads inf, not nan, so that it ranks first
    system = assemble_levy_system([0.5, 2.0], [1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    with np.errstate(**IGNORE):
        it = system.evaluate(w)
    assert it.n[0] == it.d[0] == 0
    assert it.res[0] == np.inf and it.err == np.inf and np.isfinite(it.res[1])


def test_min_unit_norm_diagonal_case():
    v = min_unit_norm_solution(np.diag([1.0, 2.0]))
    assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-15)
    assert_allclose(np.linalg.norm(np.diag([1.0, 2.0]) @ v), 1.0, rtol=1e-14)


def test_min_unit_norm_rank_deficient_case():
    A = np.ones((2, 2))
    v = min_unit_norm_solution(A)
    assert_allclose(np.linalg.norm(A @ v), 0.0, atol=1e-14)
    assert_allclose(np.abs(v), [1.0 / np.sqrt(2)] * 2, rtol=1e-14)


def test_min_unit_norm_scalar_case():
    v = min_unit_norm_solution(np.array([[3.0]]))
    assert abs(abs(v[0]) - 1.0) < 1e-15
    assert_allclose(np.linalg.norm(np.array([[3.0]]) @ v), 3.0, rtol=1e-14)


def test_min_unit_norm_beats_random_unit_vectors():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    v = min_unit_norm_solution(A)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    best = np.linalg.norm(A @ v)
    scale = np.linalg.norm(A)
    for _ in range(1000):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u /= np.linalg.norm(u)
        assert best <= np.linalg.norm(A @ u) + 1e-12 * scale


def test_min_unit_norm_wide_matrix_has_null_vector():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    v = min_unit_norm_solution(A)
    assert np.linalg.norm(A @ v) <= 1e-12 * np.linalg.norm(A)


def _graded_matrix(rng, rows, cols):
    """Complex rows x cols matrix with singular values 1 down to 1e-12."""
    def orthonormal_columns(n, m):
        q, _ = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        return q

    sigma = np.logspace(0, -12, cols)
    U = orthonormal_columns(rows, cols)
    V = orthonormal_columns(cols, cols)
    return (U * sigma) @ V.conj().T, sigma[-1]


# the R-factor path runs from floor(17k/9) rows on, 96 at k = 51 and 17 at
# k = 9, once rows * k^2 >= 4096, 51 rows at k = 9; each pair straddles a bound
@pytest.mark.parametrize(
    "rows, cols",
    [(1000, 51), (25, 25), (52, 51), (96, 51), (95, 51), (17, 9), (16, 9), (51, 9),
     (50, 9)],
)
def test_min_unit_norm_tall_and_square_reach_smallest_singular_value(rows, cols):
    rng = np.random.default_rng(rows + cols)
    A, sigma_min = _graded_matrix(rng, rows, cols)
    v = min_unit_norm_solution(A)
    assert v.shape == (cols,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    # rounding in A v is of size eps * ||A||_2 = eps here
    assert abs(np.linalg.norm(A @ v) - sigma_min) < 1e-14
    assert abs(np.linalg.norm(A @ v) - np.linalg.svd(A, compute_uv=False)[-1]) < 1e-14


def test_levy_system_numerators_match_the_numerator_matrix():
    rng = np.random.default_rng(31)
    supports, interp_values, data = random_instance(rng, 17, 400)
    system = assemble_levy_system(data.points, data.values, supports, interp_values)
    w = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    P = system.shifted_numerator_matrix(np.zeros(system.data_values.size))
    expected = P @ w
    # both sum the same k products; they differ only in where h_j w_j rounds
    bound = 4 * 17 * np.finfo(float).eps * (np.abs(P) @ np.abs(w))
    assert np.all(np.abs(system.numerators(w) - expected) <= bound)


def test_numerator_matrix_serves_the_gradients_and_the_wf_split_bit_for_bit():
    """P = C diag(h), formed as C * h, once per system: the shifted matrix
    P - diag(a) C for any a, the one matrix of the gradients and of the WF
    step, keeps the bits of forming P afresh for each, and overwriting one
    shifted matrix leaves the next one as it was."""
    rng = np.random.default_rng(37)
    supports, interp_values, data = random_instance(rng, 6, 40)
    system = assemble_levy_system(data.points, data.values, supports, interp_values)
    C = system.cauchy
    P = C * system.interp_values[None, :]
    for a in (data.values, rng.standard_normal(40) + 0j, -data.values):
        F = system.shifted_numerator_matrix(a)
        assert F.tobytes() == (P - a[:, None] * C).tobytes()
        F[:] = 0.0


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (4, 2), (4, 4), (6, 9)])
def test_levy_system_products_of_a_weight_stack_match_its_columns(k, m):
    """A (k, m) stack of weight columns gives (m, M-k) products, row j that
    of column j up to summation order; the square stack m = k catches h
    scaling the wrong axis of the stack, which broadcasts without error.
    One vector takes the plain matrix-vector products, byte for byte."""
    rng = np.random.default_rng(40 + 10 * k + m)
    supports, interp_values, data = random_instance(rng, k, 12)
    system = assemble_levy_system(data.points, data.values, supports, interp_values)
    W = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    n, d = system.numerators(W), system.denominators(W)
    assert n.shape == d.shape == (m, 12)
    eps = np.finfo(float).eps
    absC = np.abs(system.cauchy)
    for j in range(m):
        w = W[:, j].copy()
        n_j, d_j = system.numerators(w), system.denominators(w)
        assert n_j.tobytes() == (system.cauchy @ (interp_values * w)).tobytes()
        assert d_j.tobytes() == (system.cauchy @ w).tobytes()
        # both sum the same k products, possibly in another order
        assert np.all(np.abs(n[j] - n_j) <= 2 * k * eps * (absC @ np.abs(interp_values * w)))
        assert np.all(np.abs(d[j] - d_j) <= 2 * k * eps * (absC @ np.abs(w)))


def test_min_unit_norm_empty_rows_returns_unit_vector():
    v = min_unit_norm_solution(np.zeros((0, 3)))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="at least one column"):
        min_unit_norm_solution(np.zeros((3, 0)))


def test_denominator_weighting_inverts_magnitudes():
    d = np.array([2.0, -1j, 0.5 + 0j])
    assert_allclose(denominator_weighting(d), [0.5, 1.0, 2.0], rtol=1e-15)


def test_denominator_weighting_clamps_underflow():
    d = np.array([1.0, 0.0])
    out = denominator_weighting(d)
    assert np.all(np.isfinite(out))
    assert out[0] == 1.0
    assert out[1] == 1.0 / np.finfo(float).eps


def test_denominator_weighting_rejects_all_zero():
    with pytest.raises(ValueError):
        denominator_weighting(np.zeros(3))


def test_denominator_weighting_empty_passthrough():
    assert denominator_weighting(np.zeros(0)).size == 0


def test_pivoted_lsq_single_column_is_fixed():
    w = pivoted_weighted_lsq(np.ones(3), np.ones((3, 1)), np.zeros(3))
    assert_array_equal(w, [1.0 + 0j])


def test_pivoted_lsq_hand_case():
    F = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([2.0, 0.0])
    w = pivoted_weighted_lsq(np.ones(2), F, b, pivot=0)
    assert_allclose(w, [1.0, 2.0], rtol=1e-14)


def test_pivoted_lsq_consistent_system_has_zero_residual():
    rng = np.random.default_rng(29)
    F = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    target = np.array([1.0, -2.0 + 1j, 0.5j])
    b = F @ target
    w = pivoted_weighted_lsq(rng.uniform(0.5, 2.0, 6), F.copy(), b.copy(), pivot=0)
    assert_allclose(w, target, rtol=1e-12)
    assert np.linalg.norm(F @ w - b) <= 1e-12 * np.linalg.norm(F)


def test_pivoted_lsq_nontrivial_pivot_index():
    rng = np.random.default_rng(31)
    F = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    target = np.array([2.0 + 1j, 0.5, 1.0])
    b = F @ target
    w = pivoted_weighted_lsq(np.ones(5), F, b, pivot=2)
    assert w[2] == 1.0 + 0j
    # the constraint slice scales the solution by target[2] = 1, so exact here
    assert_allclose(w, target, rtol=1e-12)


def test_pivoted_lsq_weighted_residual_orthogonal_to_free_columns():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rows, k = 12, 4
        F = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        d = rng.uniform(0.1, 3.0, rows)
        pivot = int(rng.integers(0, k))
        w = pivoted_weighted_lsq(d, F.copy(), b.copy(), pivot)
        resid = d * (F @ w - b)
        DF = d[:, None] * F
        tol = 1e-10 * np.linalg.norm(DF) * max(1.0, np.linalg.norm(resid))
        for j in range(k):
            if j == pivot:
                continue
            assert abs(np.vdot(DF[:, j], resid)) <= tol


@pytest.mark.parametrize("k, pivot", [(5, 0), (5, 2), (5, 4), (1, 0)])
def test_pivoted_lsq_on_the_view_is_the_solve_on_a_contiguous_copy(k, pivot):
    """The solve scales the whole F, then drops the pinned column, as a
    strided view at pivot 0: the bytes of lstsq on the free columns formed
    explicitly as one contiguous array, with 1 inserted at the pivot."""
    rng = np.random.default_rng(43 + 10 * k + pivot)
    F = rng.standard_normal((30, k)) + 1j * rng.standard_normal((30, k))
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    d = rng.uniform(0.1, 3.0, 30)
    free = np.ascontiguousarray(np.delete(F * d[:, None], pivot, 1))
    sol = np.linalg.lstsq(free, d * (b - F[:, pivot]), rcond=None)[0]
    want = np.insert(sol, pivot, 1.0)
    got = pivoted_weighted_lsq(d, F.copy(), b.copy(), pivot)
    assert got.tobytes() == want.tobytes()


def test_pivoted_lsq_rejects_bad_pivot():
    with pytest.raises(ValueError):
        pivoted_weighted_lsq(np.ones(2), np.ones((2, 2)), np.zeros(2), pivot=5)
