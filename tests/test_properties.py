"""Property tests on inputs the builtins never produce.

Each property holds for every drawn input, so the tests check invariants
and bands, not golden numbers. The draws are derandomized, so a run is
reproducible and no example database is written.
"""

import warnings
from fractions import Fraction

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
from baryfit.aaa import levy_weights
from baryfit.core import _BLOCK, NumericalError, PoleAtPointError
from baryfit.data import BUILTIN_FUNCTIONS, residual_metrics
from baryfit.refine import RefineConfig, refit
from helpers import rational_samples

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


@_settings(40)
@given(seed=SEEDS, degree=st.integers(1, 8))
def test_a_refit_from_perturbed_exact_weights_recovers_a_rational(seed, degree):
    """On 201 samples of a rational of degree d with its poles off [-1, 1],
    the refit kernel at k = d + 1 supports, started from the exact weights
    (the Levy null vector) perturbed by 1% per entry, returns weights whose
    full-data l2 is at rounding level. The supports are evenly spread over
    the grid: over 300 seeds the largest l2 read 5.3e-15, so the band of
    1e-10 leaves four orders of magnitude. Supports at random sample
    indices can cluster, and then 4 of 300 draws end above 1e-10 (at most
    1.0e-9): that measures the conditioning of the support set."""
    rng = np.random.default_rng(seed)
    data = rational_samples(rng, degree, 201)
    idx = np.linspace(0, data.size - 1, degree + 1).round().astype(int)
    work = data
    for i in idx:
        work = work.deactivate(i)
    system = work.levy_system(data.points[idx], data.values[idx])
    noise = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    start = levy_weights(system) * (1 + 1e-2 * noise)
    weights, _, (_, _, full), _ = refit(system, work, start, RefineConfig())
    assert weights.all()
    assert residual_metrics(full, work.values).l2 < 1e-10


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
    # the weights and every trace column stay bit for bit the same. At
    # |j| = 40 the products of a diverging WF iterate overflow, which ends
    # that iterate as at j = 0. No fit warns, so unlike the test above this
    # one ignores no warning.
    if name == "transfer":
        data = _transfer_function_samples(seed=3, order=4, count=30)
    else:
        data = sample_builtin(name, 101)
    for fit, config in FITS:
        cfg = config(max_degree=12, tol=0.0)
        model, trace = fit(data, cfg)
        for j in (-40, -7, -1, 3, 20, 40):
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
        # there, and the point is evaluated again scaled
        weights *= 2.0 ** -70
        z[rng.integers(0, count)] = 1e305 * np.exp(2j * np.pi * rng.uniform())
    whole = RationalModel.barycentric(supports, values, weights)
    compact = RationalModel.barycentric(supports[live], values[live], weights[live])
    assert _evaluation(whole, z) == _evaluation(compact, z)


# scales at the edges of the double range and in between: subnormal, near
# the smallest normal, ordinary, and where z - lambda or the parts of
# numpy's complex reciprocal overflow
EDGE_SCALES = (1e-320, 1e-310, 1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300, 1e307, 1e308,
               1.5e308)


def _edge_model(rng):
    """1-5 supports at one scale, real ones in half the draws; each weight
    is zero with probability 0.2. None when the draw makes no model
    (repeated supports or no nonzero weight)."""
    k = int(rng.integers(1, 6))
    scale = rng.choice(EDGE_SCALES)
    supports = scale * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k) * rng.integers(0, 2))
    values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    weights = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * (rng.uniform(size=k) >= 0.2)
    try:
        return RationalModel.barycentric(supports, values, weights)
    except ValueError:
        return None


# offsets of the points next to a support, from the smallest subnormal on
EDGE_OFFSETS = (5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-20, 1e-16)


def _edge_points(rng, supports):
    """Six points at offsets of 5e-324 to 1e-16 from the supports, in one of
    the four axis directions or at a random angle, and four at the scales."""
    turns = [rng.choice([1, 1j, -1, -1j, np.exp(2j * np.pi * rng.uniform())]) for _ in range(6)]
    near = rng.choice(supports, 6) + rng.choice(EDGE_OFFSETS, 6) * np.array(turns)
    far = rng.choice(EDGE_SCALES, 4) * (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    return np.concatenate([near, far])


def _rounding_bound(model, z, r):
    """Twice the rounding bound of a barycentric evaluation r at z, a point
    off the live supports: (k + 10) eps (sum |h_j w_j c_j| + |r| sum |w_j c_j|)
    / |sum w_j c_j| with c_j = 1 / (z - lambda_j). The c_j are exact, scaled
    by one power of two: the bound does not change under that scale."""
    live = model.weights != 0
    hw, w = model.values[live] * model.weights[live], model.weights[live]
    c = []
    for lam in model.supports[live]:
        a, b = Fraction(z.real) - Fraction(lam.real), Fraction(z.imag) - Fraction(lam.imag)
        c.append((a / (a * a + b * b), -b / (a * a + b * b)))
    top = max(max(abs(a), abs(b)) for a, b in c)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    c = np.array([complex(a * scale, b * scale) for a, b in c])
    eps = np.finfo(float).eps
    return ((w.size + 10) * eps * (np.abs(hw * c).sum() + abs(r) * np.abs(w * c).sum())
            / abs((w * c).sum()))


def test_evaluation_at_the_edges_of_the_double_range_is_finite_and_pointwise():
    """A model evaluates next to its supports and far from them with no
    warning and finite values, unless a pole raises, and every point of a
    call agrees with that point alone to the rounding bound. A call scales
    by 2^-2 for its largest point and rescues a point by its own nearest
    support, so the two may round apart."""
    rng = np.random.default_rng(2026)
    for _ in range(300):
        model = _edge_model(rng)
        if model is None:
            continue
        z = _edge_points(rng, model.supports)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = model(z)
            except PoleAtPointError:
                got = None
            alone = []
            for zi in z:
                try:
                    alone.append(model(zi))
                except PoleAtPointError:
                    alone.append(None)
        assert (got is None) == (None in alone), (model.supports, z)
        if got is None:
            continue
        assert np.isfinite(got).all() and np.isfinite(alone).all(), (model.supports, z, got)
        for zi, a, b in zip(z, got, alone):
            if a != b:  # never at a support: both return its value exactly
                assert abs(a - b) <= _rounding_bound(model, zi, max(abs(a), abs(b))), (
                    model.supports, zi, a, b)
