"""Property tests on inputs the builtins never produce.

Each property holds for every drawn input, so the tests check invariants
and bands, not golden numbers. The draws are derandomized, so a run is
reproducible and no example database is written.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from baryfit import (
    FitConfig,
    NlaaaConfig,
    RationalModel,
    SampleSet,
    aaa_fit,
    nlaaa_fit,
    sample_builtin,
)
from baryfit.core import _BLOCK, NumericalError, PoleAtPointError
from baryfit.data import BUILTIN_FUNCTIONS

FITS = ((aaa_fit, FitConfig), (nlaaa_fit, NlaaaConfig))
SEEDS = st.integers(0, 2**32 - 1)


def _settings(examples):
    return settings(derandomize=True, deadline=None, database=None, max_examples=examples)


def _fit_without_runtime_warnings(fit, data, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fit(data, cfg)


def _transfer_function_samples(seed, order, count=20):
    """c^T (sI - A)^{-1} b of a random stable real A of the given order, at
    +-i omega for `count` log-spaced omega in [10^-1.5, 10^1.5]: samples
    closed under conjugation, of a rational of degree `order`."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((order, order))
    # every eigenvalue of A has real part <= -0.1
    A = M - (np.abs(np.linalg.eigvals(M)).max() + 0.1) * np.eye(order)
    b, c = rng.standard_normal(order), rng.standard_normal(order)
    omega = np.logspace(-1.5, 1.5, count)
    s = 1j * np.concatenate([omega, -omega])
    H = np.array([c @ np.linalg.solve(si * np.eye(order) - A, b) for si in s])
    return SampleSet(s, H)


@_settings(12)
@given(seed=SEEDS, order=st.integers(1, 6))
def test_nlaaa_recovers_a_stable_real_system_on_the_imaginary_axis(seed, order):
    data = _transfer_function_samples(seed, order)
    _, trace = _fit_without_runtime_warnings(
        nlaaa_fit, data, NlaaaConfig(max_degree=order, tol=0.0)
    )
    l2 = [r.l2_norm for r in trace.records]
    assert all(b <= a for a, b in zip(l2, l2[1:]))
    assert l2[-1] <= 1e-10


@_settings(8)
@given(j=st.integers(-700, 700))
def test_fits_are_equivariant_under_any_power_of_two_scale(j):
    data = sample_builtin("abs", 41)
    scaled = SampleSet(data.points, np.ldexp(data.values.real, j))
    for fit, config in FITS:
        cfg = config(max_degree=8, tol=0.0)
        model, trace = fit(data, cfg)
        got, got_trace = _fit_without_runtime_warnings(fit, scaled, cfg)
        assert_array_equal(got.weights, model.weights)
        assert_array_equal(got.values, np.ldexp(model.values.real, j))
        assert [(r.branch, r.l2_norm, r.linf_norm) for r in got_trace.records] == [
            (r.branch, r.l2_norm, r.linf_norm) for r in trace.records
        ]


def _trace_columns(trace):
    return [(r.branch, r.raw_active_sq_err, r.l2_norm, r.linf_norm) for r in trace.records]


@_settings(8)
@given(case=st.sampled_from([("relu", 201), ("abs_sin3pi", 201), ("triwave", 101), ("abs", 501)]),
       j=st.integers(-60, 60))
def test_fits_are_equivariant_under_a_power_of_two_scale_of_the_points(case, j):
    # 2^j (z - lambda) scales every Cauchy entry by 2^-j exactly, and the
    # weights are scale-free. The WF iterates that overflow on abs_sin3pi and
    # triwave warn, at places that move with the scale; the warnings are not
    # compared.
    data = sample_builtin(*case)
    scaled = SampleSet(data.points * 2.0**j, data.values)
    for fit, config in FITS:
        cfg = config(max_degree=10, tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model, trace = fit(data, cfg)
            got, got_trace = fit(scaled, cfg)
        assert_array_equal(got.weights, model.weights)
        assert_array_equal(got.supports, model.supports * 2.0**j)
        assert _trace_columns(got_trace) == _trace_columns(trace)


@pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS) + ["transfer"])
def test_fits_are_invariant_under_a_power_of_two_dilation_of_the_points(name):
    # z -> 2^j z, the exact case of an affine map of z: every Cauchy entry
    # scales by 2^-j and the SK/WF row weights 1/|d| undo that scaling, so
    # the weights and every trace column stay bit for bit the same. At these
    # j no fit warns, so unlike the test above this one ignores no warning.
    if name == "transfer":
        data = _transfer_function_samples(seed=3, order=4, count=30)
    else:
        data = sample_builtin(name, 101)
    for fit, config in FITS:
        cfg = config(max_degree=12, tol=0.0)
        model, trace = fit(data, cfg)
        for j in (-7, -1, 3, 20):
            got, got_trace = fit(SampleSet(data.points * 2.0**j, data.values), cfg)
            assert_array_equal(got.weights, model.weights)
            assert_array_equal(got.supports, model.supports * 2.0**j)
            assert _trace_columns(got_trace) == _trace_columns(trace)


@_settings(6)
@given(value=st.sampled_from([2.5, 1 + 2j]), count=st.integers(2, 80))
def test_fits_of_constant_data_finish_at_rounding_level(value, count):
    data = SampleSet(sample_builtin("abs", count).points, np.full(count, value))
    for fit, config in FITS:
        _, trace = _fit_without_runtime_warnings(fit, data, config(max_degree=10, tol=0.0))
        l2 = [r.l2_norm for r in trace.records]
        assert max(l2) <= 1e-15
        if fit is nlaaa_fit:
            assert all(b <= a for a, b in zip(l2, l2[1:]))


@_settings(4)
@given(count=st.integers(2, 80))
def test_fits_of_all_zero_data_raise(count):
    data = SampleSet(sample_builtin("abs", count).points, np.zeros(count))
    for fit, config in FITS:
        with pytest.raises(NumericalError, match="all sample values are zero"):
            fit(data, config(max_degree=10, tol=0.0))


@_settings(10)
@given(seed=SEEDS, count=st.integers(2, 8))
def test_fewer_samples_than_the_budget_end_at_one_support_short(seed, count):
    rng = np.random.default_rng(seed)
    data = SampleSet(
        np.sort(rng.uniform(-1.0, 1.0, count)),
        rng.standard_normal(count) + 1j * rng.standard_normal(count),
    )
    for fit, config in FITS:
        _, trace = fit(data, config(max_degree=count + 2, tol=0.0))
        assert trace.records[-1].k == count - 1
        assert trace.budget_exhausted


@_settings(6)
@given(name=st.sampled_from(sorted(BUILTIN_FUNCTIONS)), i=st.integers(0, 39))
def test_fits_finish_on_near_coincident_points(name, i):
    # a sample 1e-15 to the right of grid point i
    x = sample_builtin("abs", 41).points.real
    x = np.insert(x, i + 1, x[i] + 1e-15)
    data = SampleSet(x, BUILTIN_FUNCTIONS[name](x))
    for fit, config in FITS:
        _, trace = fit(data, config(max_degree=10, tol=0.0))
        assert len(trace.records) == 11


def _evaluation(model, z):
    """The bytes of model(z), or the message of the PoleAtPointError it raises."""
    try:
        return model(z).tobytes()
    except PoleAtPointError as exc:
        return str(exc)


@_settings(25)
@given(seed=SEEDS, k=st.integers(1, 120), count=st.integers(1, 10_000),
       blocks=st.integers(0, 3), shift=st.integers(-1, 1), far=st.booleans())
def test_zero_weight_supports_drop_out_of_model_evaluation(seed, k, count, blocks, shift, far):
    rng = np.random.default_rng(seed)

    def cplx(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    supports, values, weights = cplx(k), cplx(k), cplx(k)
    weights[rng.permutation(k)[: k // 3]] = 0.0
    live = weights != 0
    if blocks:
        # a count at a block boundary of the evaluation, give or take one
        count = min(max(blocks * max(2, _BLOCK // np.count_nonzero(live)) + shift, 1), 10_000)
    z = cplx(count)
    # some points on supports of nonzero and of zero weight
    on = rng.permutation(count)[: min(count, 2 * k)]
    z[on] = supports[rng.integers(0, k, on.size)]
    if far:
        # scaled by an exact 2^-70, the denominator underflows to zero out
        # there: a pole of the evaluation, named in the error message
        weights *= 2.0 ** -70
        z[rng.integers(0, count)] = 1e305 * np.exp(2j * np.pi * rng.uniform())
    whole = RationalModel.barycentric(supports, values, weights)
    compact = RationalModel.barycentric(supports[live], values[live], weights[live])
    assert _evaluation(whole, z) == _evaluation(compact, z)
