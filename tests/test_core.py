"""Model evaluation, sample-set bookkeeping, and state-space realization."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import RationalModel, SampleSet, core, realize
from baryfit.core import PoleAtPointError
from helpers import (
    count_assemblies,
    distinct_complex,
    nonzero_complex,
    random_instance,
    random_model,
)

EPS = np.finfo(float).eps


def test_one_point_model_is_the_constant_h1():
    model = RationalModel.barycentric([0.0], [5.0], [1.0])
    assert model(2.0) == 5.0 + 0j


def test_eval_at_support_returns_stored_value():
    model = RationalModel.barycentric([1.0, -1.0], [2.0, 4.0], [1.0, 1.0])
    assert model(1.0) == 2.0 + 0j
    assert model(-1.0) == 4.0 + 0j


def test_eval_two_point_hand_value():
    # (2/1 + 4/3) / (1/1 + 1/3) at z = 2
    model = RationalModel.barycentric([1.0, -1.0], [2.0, 4.0], [1.0, 1.0])
    assert_allclose(model(2.0), 2.5 + 0j, rtol=1e-15)


def test_eval_is_vectorized_and_keeps_shape():
    model = RationalModel.barycentric([1.0, -1.0], [2.0, 4.0], [1.0, 1.0])
    z = np.array([[2.0, 1.0], [-1.0, 3.0]])
    out = model(z)
    assert out.shape == z.shape
    assert out[0, 1] == 2.0 + 0j and out[1, 0] == 4.0 + 0j
    assert_allclose(out[0, 0], 2.5, rtol=1e-15)


def test_eval_pole_at_non_support_point_raises():
    # d(z) = 1/(z-1) + 1/(z+1) = 2z/(z^2-1) vanishes at z = 0
    model = RationalModel.barycentric([1.0, -1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(PoleAtPointError):
        model(0.0)


def test_eval_zero_weight_support_drops_from_both_sums():
    model = RationalModel.barycentric([0.0, 1.0], [5.0, 9.0], [1.0, 0.0])
    # the j = 1 term vanishes, so z = 1 evaluates through the remaining term
    # and does not interpolate h_1
    assert model(1.0) == 5.0 + 0j
    assert_allclose(model(3.0), 5.0 + 0j, rtol=1e-15)


def _direct_eval(model, z):
    """The barycentric quotient point by point, with the support rules."""
    out = np.empty(z.size, dtype=complex)
    for i, zi in enumerate(z):
        at = np.nonzero(model.supports == zi)[0]
        if at.size and model.weights[at[0]] != 0:
            out[i] = model.values[at[0]]
            continue
        keep = model.supports != zi
        q = model.weights[keep] / (zi - model.supports[keep])
        out[i] = np.sum(q * model.values[keep]) / np.sum(q)
    return out


def test_eval_across_many_blocks_matches_the_direct_formula():
    rng = np.random.default_rng(41)
    # several supports share a real part, so finding hits must order by both
    supports = np.array([0, 0.5j, -0.5j, 1, 1 + 0.5j, -1, -1 - 0.5j, 0.25, 0.25j])
    k = supports.size
    weights = nonzero_complex(rng, k)
    weights[6] = 0.0
    model = RationalModel.barycentric(
        supports, rng.standard_normal(k) + 1j * rng.standard_normal(k), weights
    )
    z = distinct_complex(rng, 5000, scale=2.0)
    # support hits early and late, the zero-weight one in a later block
    hits = [3, 1200, 2500, 4000, 4990]
    z[hits] = supports[[0, 2, 6, 4, 1]]
    got = model(z)
    expected = _direct_eval(model, z)
    assert_array_equal(got[[3, 1200, 4000, 4990]], model.values[[0, 2, 4, 1]])
    assert np.isfinite(got[2500])
    assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("k, m", [(2, 50), (7, 300), (40, 500)])
def test_model_evaluates_at_active_samples_as_its_levy_system(k, m):
    """With no zero weight, the model at every sample (supports included,
    several row blocks) gives at the active samples the system's n/d bit for
    bit on complex data: both take one matrix-vector product per row with
    the coefficients h*w and w, so a fit's trace metrics can come from the
    system's residuals."""
    rng = np.random.default_rng(k)
    supports, interp, data = random_instance(rng, k, m)
    w = nonzero_complex(rng, k)
    points = np.concatenate([supports, data.points])
    values = np.concatenate([interp, data.values])
    work = SampleSet(points, values, np.arange(k + m) >= k)
    system = work.levy_system(supports, interp)
    model = RationalModel.barycentric(supports, interp, w)
    r = model(points)
    assert r[k:].tobytes() == (system.numerators(w) / system.denominators(w)).tobytes()
    assert r[:k].tobytes() == interp.tobytes()


def test_eval_pole_in_a_later_block_names_the_point():
    # d(z) = 1/(z-1) + 1/(z+1) vanishes at z = 0 only
    model = RationalModel.barycentric([1.0, -1.0], [1.0, 1.0], [1.0, 1.0])
    z = np.linspace(2.0, 3.0, 10000)
    z[7321] = 0.0
    with pytest.raises(PoleAtPointError, match=r"z = 0j"):
        model(z)


def test_eval_next_to_a_support_is_the_support_value():
    """Within 2^-1024 of a support, 1 / (z - lambda) overflows (1e-320), or
    the products do (1e-308): those rows are evaluated again with every
    z - lambda divided by the power of two of the nearest one, without a
    warning. Rows that were finite keep their bits, and a support itself
    still returns its value exactly."""
    model = RationalModel.barycentric([0.0, 1.0], [3 - 4j, 1.0], [1.0, 1.0])
    near = np.array([1e-320, 1e-308, -5e-324, 1e-320j, 1 + 5e-324j])
    far = np.array([0.25, 2.0 - 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(np.concatenate([near, far, [0.0, 1.0]]))
        assert model(1e-320) == got[0]
        alone = model(far)
    assert_allclose(got[:5], [3 - 4j] * 4 + [1.0], rtol=4 * EPS, atol=0)
    assert got[5:7].tobytes() == alone.tobytes()
    assert_array_equal(got[7:], model.values)
    # num and den stay finite at 1e-308, their ratio overflows inside
    model = RationalModel.barycentric([0.0, 1.0], [1.0, 2.0], [1 + 1j, 1 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_allclose(model(1e-308), 1.0, rtol=4 * EPS, atol=0)


def test_eval_next_to_a_support_drops_supports_too_far_to_count():
    # the other supports are more than 2^1024 times as far as the nearest
    # one: their scaled z - lambda overflows to inf in one part or in both
    model = RationalModel.barycentric([0.0, 1.0, 1 + 1j], [3 - 4j, 1.0, 2.0], [1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert model(1e-320) == 3 - 4j


def test_eval_where_z_minus_a_support_overflows_keeps_every_term():
    """Supports +-L with L = 1e308, values 1 and 2 and weights 1 give
    r(z) = 3/2 + 1 / (2z/L). Where z - lambda overflows, or both of its parts
    reach 2^1023 so that numpy's complex reciprocal of it does, a term was
    dropped (r = 2 at 1.5e308); the points and supports scaled by 2^-2 give
    the ratio, and the supports their values."""
    L = 1e308
    model = RationalModel.barycentric([-L, L], [1.0, 2.0], [1.0, 1.0])
    z = np.array([1.5e308, -1.7e308, 1e308j, 1e308 + 1e308j, -L, L])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(z)
        assert model(1.5e308) == got[0]
    assert_allclose(got[:4], 1.5 + 0.5 / (z[:4] / L), rtol=4 * EPS)
    assert got[4] == 1.0 and got[5] == 2.0


def test_eval_where_the_denominator_is_subnormal_is_finite():
    """Supports +-L with L = 1e308 give r(z) = 3/2 + L / (2z). At |z| = 1e300
    the two terms of the denominator cancel to about 2e-316, a subnormal,
    and numpy's complex division num / den overflows inside: those points
    are evaluated again next to their nearest support. The cancellation
    amplifies the rounding of z -+ L by L / |z| = 1e8, hence the band."""
    L = 1e308
    model = RationalModel.barycentric([-L, L], [1.0, 2.0], [1.0, 1.0])
    z = np.array([1e300, 5e-324 + 1e300j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(z)
    assert np.isfinite(got).all()
    assert_allclose(got, 1.5 + L / (2 * z), rtol=4 * EPS * L / 1e300)


def test_eval_where_both_parts_of_a_point_reach_2_to_the_1023():
    """At z = 1e308 + 1e308j the denominator of numpy's reciprocal of every
    z - lambda overflows, so each term reads 0 and so does d(z): the point
    is evaluated again with every z - lambda divided by the power of two of
    the nearest one, r(z) = (8z - 3) / (2z - 1), alike alone and in a call.
    A true pole in the same call still raises, and an ordinary point keeps
    its bits."""
    model = RationalModel.barycentric([0.0, 1.0], [3.0, 5.0], [1.0, 1.0])
    z = np.array([1e308 + 1e308j, -1.7e308 - 1.7e308j, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(z)
        assert model(1e308 + 1e308j) == got[0]
        assert model(0.3) == got[2]
    assert_allclose(got[:2], 4.0, rtol=4 * EPS)
    # d(z) = 1/z + 1/(z - 1) vanishes at z = 1/2
    with pytest.raises(PoleAtPointError, match=r"z = \(0\.5\+0j\)"):
        model(np.array([1e308 + 1e308j, 0.5]))


def test_eval_where_the_wide_scaling_moves_a_point_onto_a_support():
    """Support 1e300 is beyond 2^969, so with 1e308 in the same call the
    points and supports are scaled by 2^-2: 1e300 + 5e-324j then reads
    exactly the support. It takes the support's value, as it does alone."""
    model = RationalModel([1e300], [2.0], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(np.array([1e300 + 5e-324j, 1e308]))
        alone = model(1e300 + 5e-324j)
    assert_array_equal(got, [2.0, 2.0])
    assert alone == 2.0


def test_eval_far_out_with_nearly_cancelling_weights_is_finite():
    """At z = 1e308 + 1e308j both supports are at the same z - lambda, whose
    reciprocal numpy reads as 0: evaluated again scaled, r(z) is
    sum h w / sum w, up to the cancellation bound 4 eps sum |w| / |sum w|."""
    model = RationalModel([0.0, 1.0], [1.0, 2.0], [1.0, -1.0 + 1e-15])
    w = model.weights
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = model(1e308 + 1e308j)
    want = (model.values * w).sum() / w.sum()
    assert np.isfinite(got)
    assert abs(got - want) <= 4 * EPS * np.abs(w).sum() / abs(w.sum()) * abs(want)


def test_eval_where_the_denominator_underflows_is_not_a_pole():
    """With weights 2^-70 the denominator at z = 1e305 is about 1e-326 and
    reads 0, which is no pole: evaluated again scaled, the point gets the
    value of the same model with weights 1, r(z) = (8z - 3) / (2z - 1)."""
    z = np.array([1e305, -3e304j])
    tiny = RationalModel.barycentric([0.0, 1.0], [3.0, 5.0], [2.0 ** -70] * 2)
    unit = RationalModel.barycentric([0.0, 1.0], [3.0, 5.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_allclose(tiny(z), unit(z), rtol=4 * EPS, atol=0)


def test_eval_at_a_nan_point_is_nan_and_at_an_infinite_one_raises():
    """A nan point, which a points file may hold, reads nan and is no pole;
    at +-inf every reciprocal is 0 and so is the denominator, as the message
    names. The finite points of the call keep their bits."""
    model = RationalModel.barycentric([0.0, 1.0], [3.0, 5.0], [1.0, 1.0])
    got = model(np.array([np.nan, complex(np.nan, 1.0), 0.25, 2.0]))
    assert np.isnan(got[:2]).all()
    assert got[2:].tobytes() == model(np.array([0.25, 2.0])).tobytes()
    with pytest.raises(PoleAtPointError, match=r"z = \(-inf\+0j\)"):
        model(np.array([0.25, -np.inf]))


def test_constant_model_evaluates_everywhere():
    model = RationalModel.barycentric([0.0], [3 - 2j], [1.0])
    assert_allclose(model(17.0), 3 - 2j, rtol=4 * EPS)
    out = model(np.zeros((2, 3)))  # at the support: h exactly
    assert out.shape == (2, 3)
    assert np.all(out == 3 - 2j)


def test_one_support_models_are_the_constant_h_to_rounding():
    """One support is degree 0: r(z) = (h w / (z - lambda)) / (w / (z - lambda))
    is h, and so is the order-1 realization's h w / w, up to the rounding of
    h w, the two products and the division. 3,000,000 seeded evaluations of
    this kind gave a worst relative error of 2.84 eps for the model and 1.93
    eps for the realization; 4 eps bounds both."""
    rng = np.random.default_rng(59)
    for t in range(200):
        lam, h, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if t % 3 == 0:  # far from unit scale, h w still finite and normal
            h *= 2.0 ** int(rng.integers(-500, 500))
            w *= 2.0 ** int(rng.integers(-400, 400))
        model = RationalModel.barycentric([lam], [h], [w])
        assert model.k == 1 and model.degree == 0 and model.is_constant
        z = distinct_complex(rng, 100, scale=3.0)
        assert np.abs(z - lam).min() > 1e-6  # off the support
        assert_allclose(model(z), h, rtol=4 * EPS, atol=0)
        assert_allclose(realize(model).transfer(z), h, rtol=4 * EPS, atol=0)


def test_is_constant_counts_the_nonzero_weights():
    assert not RationalModel.barycentric([0.0, 1.0], [2.0, 3.0], [1.0, -1j]).is_constant
    model = RationalModel.barycentric([0.0, 1.0, 2.0], [2.0, 3.0, 4.0], [2 - 1j, 0.0, 0.0])
    assert model.is_constant and model.k == 3 and model.degree == 2


def test_interpolation_is_exact_for_random_models():
    rng = np.random.default_rng(7)
    for k in (1, 2, 5, 9):
        model = random_model(rng, k)
        assert_array_equal(model(model.supports), model.values)


def test_eval_is_weight_scale_invariant():
    rng = np.random.default_rng(11)
    model = random_model(rng, 6)
    z = distinct_complex(rng, 100, scale=3.0)
    base = model(z)
    for c in (2.0, -0.5j, 1e8, 1e-8 * (1 + 1j)):
        scaled = RationalModel.barycentric(model.supports, model.values, c * model.weights)
        assert_allclose(scaled(z), base, rtol=1e-13)


def _expanded_num_den(model):
    """Coefficient arrays (highest power first) of the barycentric form
    expanded over the common denominator prod_j (z - lambda_j)."""
    k = model.k
    num = np.zeros(k, dtype=complex)
    den = np.zeros(k, dtype=complex)
    for j in range(k):
        others = np.delete(model.supports, j)
        coeffs = np.atleast_1d(np.poly(others)).astype(complex)
        num += model.weights[j] * model.values[j] * coeffs
        den += model.weights[j] * coeffs
    return num, den


def test_expansion_gives_degree_k_minus_1_polynomial_ratio():
    rng = np.random.default_rng(13)
    for k in (1, 2, 3, 4):
        model = random_model(rng, k)
        num, den = _expanded_num_den(model)
        assert num.size == k and den.size == k
        z = distinct_complex(rng, 20, scale=2.0)
        expected = np.polyval(num, z) / np.polyval(den, z)
        assert_allclose(model(z), expected, rtol=1e-8)


def test_sample_set_basic_accessors():
    data = SampleSet([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    assert data.size == 3 and data.active_count == 3
    smaller = data.deactivate(1)
    assert data.active_count == 3  # original untouched
    assert smaller.active_count == 2
    assert_array_equal(smaller.active_indices(), [0, 2])
    assert_array_equal(smaller.active_points(), [0.0 + 0j, 2.0 + 0j])
    assert_array_equal(smaller.active_values(), [5.0 + 0j, 7.0 + 0j])
    with pytest.raises(ValueError):
        smaller.deactivate(1)


def test_deactivate_shares_the_checked_samples():
    data = SampleSet([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], [True, False, True])
    smaller = data.deactivate(2)
    assert smaller.points is data.points and smaller.values is data.values
    assert not smaller.active_mask.flags.writeable
    assert_array_equal(smaller.active_mask, [True, False, False])
    assert_array_equal(data.active_mask, [True, False, True])
    for index in (1, 2):
        with pytest.raises(ValueError):
            smaller.deactivate(index)


def test_levy_system_is_built_once_per_support_set(monkeypatch):
    calls = count_assemblies(monkeypatch)
    supports, interp, data = random_instance(np.random.default_rng(401), 3, 12)
    system = data.levy_system(supports, interp)
    assert data.levy_system(supports, interp) is system
    assert data.levy_system(supports.copy(), list(interp)) is system
    assert len(calls) == 1
    assert system.cauchy.shape == (12, 3)
    assert_array_equal(system.active_points, data.active_points())


def test_levy_system_rebuilds_for_other_support_bytes(monkeypatch):
    calls = count_assemblies(monkeypatch)
    data = SampleSet([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.25, 0.125])
    supports = np.array([0.0, 5.0 + 1j])
    interp = np.array([0.0, 2.0])
    first = data.levy_system(supports, interp)
    moved = supports.copy()
    moved[1] += 1e-12
    changed = interp.copy()
    changed[1] = 3.0
    signed = interp.copy()
    signed[0] = -0.0  # equal to 0.0, other bytes
    for other_supports, other_interp in ((moved, interp), (supports, changed),
                                         (supports, signed)):
        assert data.levy_system(other_supports, other_interp) is not first
    # one cached entry: going back to the first arrays builds again
    assert data.levy_system(supports, interp) is not first
    assert len(calls) == 5


def test_levy_system_does_not_alias_the_callers_arrays():
    supports, interp, data = random_instance(np.random.default_rng(403), 3, 10)
    lam, h = supports.copy(), interp.copy()
    system = data.levy_system(lam, h)
    cauchy = system.cauchy.copy()
    lam[0] += 1.0
    h[0] += 1.0
    assert_array_equal(system.supports, supports)
    assert_array_equal(system.interp_values, interp)
    assert_array_equal(system.cauchy, cauchy)
    assert not system.cauchy.flags.writeable
    assert data.levy_system(supports, interp) is system


def test_deactivate_returns_a_set_without_a_cached_system(monkeypatch):
    calls = count_assemblies(monkeypatch)
    data = SampleSet([0.0, 1.0, 2.0, 3.0], [5.0, 6.0, 7.0, 8.0])
    supports, interp = [10.0], [1.0]
    system = data.levy_system(supports, interp)
    smaller = data.deactivate(1)
    other = smaller.levy_system(supports, interp)
    assert len(calls) == 2
    assert other.cauchy.shape == (3, 1) and system.cauchy.shape == (4, 1)
    assert data.levy_system(supports, interp) is system


def test_sample_set_rejects_bad_input():
    with pytest.raises(ValueError):
        SampleSet([0.0, 0.0], [1.0, 2.0])  # duplicate points
    with pytest.raises(ValueError):
        SampleSet([0.0, 1.0], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        SampleSet([0.0, np.nan], [1.0, 2.0])  # non-finite
    with pytest.raises(ValueError):
        SampleSet([], [])  # empty
    with pytest.raises(ValueError, match="one-dimensional"):
        SampleSet([[0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="active_mask"):
        SampleSet([0.0, 1.0], [1.0, 2.0], [True])


def test_model_rejects_bad_input():
    with pytest.raises(ValueError):
        RationalModel.barycentric([1.0, 1.0], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        RationalModel.barycentric([1.0, 2.0], [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        RationalModel.barycentric([1.0], [np.inf], [1.0])
    with pytest.raises(ValueError):
        RationalModel.barycentric([1.0], [1.0], [np.nan])
    with pytest.raises(ValueError, match="equal length"):
        RationalModel.barycentric([1.0, 2.0], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="at least one support"):
        RationalModel.barycentric([], [], [])


def test_degree_bookkeeping():
    model = RationalModel.barycentric([1.0], [1.0], [1.0])
    assert model.k == 1 and model.degree == 0
    model = random_model(np.random.default_rng(3), 5)
    assert model.k == 5 and model.degree == 4


def test_realize_single_point_hand_case():
    model = RationalModel.barycentric([1.0], [2.0], [3.0])
    rom = realize(model)
    assert rom.order == 1
    assert_array_equal(rom.E, [[0.0 + 0j]])
    assert_array_equal(rom.A, [[-3.0 + 0j]])
    assert_array_equal(rom.b, [1.0 + 0j])
    assert_array_equal(rom.c, [6.0 + 0j])
    for z in (0.0, 5.0, 1j):
        assert_allclose(rom.transfer(z), 2.0, rtol=1e-15)
    # a 1 x 1 pencil takes no elimination step, for any number of points
    assert_array_equal(rom.transfer(np.linspace(-3.0, 3.0, 7)), np.full(7, 2.0 + 0j))


def test_realize_two_point_matches_eval():
    model = RationalModel.barycentric([1.0, -1.0], [2.0, 4.0], [1.0, 1.0])
    rom = realize(model)
    assert_allclose(rom.transfer(2.0), 2.5, rtol=1e-14)
    assert_allclose(rom.transfer(2.0), model(2.0), rtol=1e-14)


def test_realize_matrix_layout():
    model = RationalModel.barycentric([2.0, 5.0, -3.0], [1.0, 4.0, 9.0], [1.0, 2.0, 3.0])
    rom = realize(model)
    lam, w, h = model.supports, model.weights, model.values
    assert_array_equal(rom.E, [[1, -1, 0], [1, 0, -1], [0, 0, 0]])
    assert_array_equal(rom.A[0], [lam[0], -lam[1], 0.0])
    assert_array_equal(rom.A[1], [lam[0], 0.0, -lam[2]])
    assert_array_equal(rom.A[2], -w)
    assert_array_equal(rom.b, [0.0, 0.0, 1.0])
    assert_array_equal(rom.c, h * w)


def test_realize_transfer_equals_eval_at_random_points():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 11))
        model = random_model(rng, k)
        rom = realize(model)
        z = distinct_complex(rng, 100, scale=3.0)
        expected = model(z)
        got = rom.transfer(z)
        assert_allclose(got, expected, rtol=1e-8)


def test_realize_transfer_keeps_the_shape_of_its_input():
    rng = np.random.default_rng(43)
    model = random_model(rng, 6)
    rom = realize(model)
    z = distinct_complex(rng, 6000, scale=3.0).reshape(40, 150)
    got = rom.transfer(z)
    assert got.shape == z.shape
    assert_allclose(got, model(z), rtol=1e-8)
    scalar = rom.transfer(complex(z[3, 7]))
    assert isinstance(scalar, complex)
    assert_allclose(scalar, got[3, 7], rtol=1e-14)
    assert rom.transfer(np.empty(0)).shape == (0,)


def test_realization_arrays_are_read_only():
    rom = realize(RationalModel.barycentric([2.0, 5.0, -3.0], [1.0, 4.0, 9.0], [1.0, 2.0, 3.0]))
    for arr in (rom.E, rom.A, rom.b, rom.c):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_realize_rejects_a_model_whose_c_overflows():
    # c = h*w of the realization is the model's own h*w: a model holding an
    # overflowing product cannot be built, so neither evaluation nor realize
    # ever sees one
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for values, weights in (([1e200, 1.0], [1e200, 1.0]),
                                ([1e200 + 1e200j, 1.0], [1e200 - 1e200j, 1.0])):
            with pytest.raises(ValueError, match="overflows"):
                RationalModel.barycentric([0.0, 1.0], values, weights)


def test_transfer_raises_where_the_pencil_is_singular():
    model = RationalModel.barycentric([0.0, 1.0], [1.0, 3.0], [1.0, 1.0])  # pole at 0.5
    rom = realize(model)
    with pytest.raises(PoleAtPointError):
        model(0.5)
    with pytest.raises(PoleAtPointError, match=r"z = \(0\.5\+0j\)"):
        rom.transfer(0.5)
    with pytest.raises(PoleAtPointError, match=r"z = \(0\.5\+0j\)"):
        rom.transfer([2.0, 0.5, 3.0])
    # at a support of zero weight the model is finite, the pencil singular
    model = RationalModel.barycentric([0.0, 1.0, 2.0], [1.0, 3.0, 5.0], [1.0, 0.0, -1.0])
    assert model(1.0) == 3.0
    with pytest.raises(PoleAtPointError, match=r"z = \(1\+0j\)"):
        realize(model).transfer([0.5, 1.0])
    # a zero pivot inside the elimination, in column 1 of 0..2, not at the
    # last pivot: the multiplier 5e-324 / 4 of column 0 underflows to zero.
    # The pencil is regular there (z = 0 is a support of weight 1, where the
    # model interpolates), so this raise comes from rounding alone.
    model = RationalModel.barycentric([4.0, 5e-324, 0.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):  # 1 / (0 - 5e-324)
        assert model(0.0) == 3.0
    with pytest.raises(PoleAtPointError, match=r"z = 0j"):
        realize(model).transfer(0.0)


def test_transfer_pole_in_a_later_block_names_the_point():
    # pole at 0.5, at a point past the first block of the transfer
    rom = realize(RationalModel.barycentric([0.0, 1.0], [1.0, 3.0], [1.0, 1.0]))
    z = np.linspace(2.0, 3.0, 2 * core._TRANSFER_BLOCK + 10)
    z[core._TRANSFER_BLOCK + 7] = 0.5
    with pytest.raises(PoleAtPointError, match=r"z = \(0\.5\+0j\)"):
        rom.transfer(z)
    # singular at a support of zero weight, in the last (partial) block
    rom = realize(RationalModel.barycentric([0.0, 1.0, 2.0], [1.0, 3.0, 5.0], [1.0, 0.0, -1.0]))
    z[-3] = 1.0
    with pytest.raises(PoleAtPointError, match=r"z = \(1\+0j\)"):
        rom.transfer(z)
    # a zero pivot inside the elimination, at column 1 (see the test above)
    rom = realize(RationalModel.barycentric([4.0, 5e-324, 0.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
    z[-3] = 0.0
    with pytest.raises(PoleAtPointError, match=r"z = 0j"):
        rom.transfer(z)


def _dense_transfer(rom, z):
    """Oracle: c^T (zE - A)^{-1} b by one dense solve per point."""
    return np.array([np.linalg.solve(p * rom.E - rom.A, rom.b) @ rom.c for p in z])


def _assert_near_dense_solve(rom, model, z, got):
    """`got` is within ten times the dense solve's own deviation from the
    model (at least k eps times the model's size) of that solve."""
    want = _dense_transfer(rom, z)
    r = model(z)
    band = 10 * max(np.abs(want - r).max(), model.k * EPS * np.abs(r).max())
    assert np.abs(got - want).max() <= band


def _model_with_zero_weights(rng, k):
    """Random complex model; up to a third of its weights are zero."""
    weights = nonzero_complex(rng, k)
    if k > 1:
        weights[rng.choice(k, size=int(rng.integers(0, k // 3 + 1)), replace=False)] = 0
    values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return RationalModel.barycentric(distinct_complex(rng, k, scale=2.0), values, weights)


def test_transfer_matches_a_dense_solve_on_random_models():
    rng = np.random.default_rng(61)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(1, 31):
            model = _model_with_zero_weights(rng, k)
            rom = realize(model)
            z = distinct_complex(rng, 100, scale=3.0)
            _assert_near_dense_solve(rom, model, z, rom.transfer(z))


def test_transfer_interpolates_at_supports_of_nonzero_weight():
    rng = np.random.default_rng(67)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(1, 31):
            model = _model_with_zero_weights(rng, k)
            rom = realize(model)
            live = model.weights != 0
            got = rom.transfer(model.supports[live])
            _assert_near_dense_solve(rom, model, model.supports[live], got)
            assert_allclose(got, model.values[live], rtol=0, atol=100 * k * EPS * np.abs(model.values).max())


@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_transfer_across_block_boundaries(k):
    rng = np.random.default_rng(71 + k)
    model = _model_with_zero_weights(rng, k)
    rom = realize(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for count in (core._TRANSFER_BLOCK - 1, core._TRANSFER_BLOCK, core._TRANSFER_BLOCK + 1):
            z = distinct_complex(rng, count, scale=3.0)
            _assert_near_dense_solve(rom, model, z, rom.transfer(z))


def _rounding_bound(model, z, r):
    """First-order bound on the rounding error of the barycentric formula
    at points off the supports, as in perfbench/checks.bary_eval:
    (k+3) eps (sum|w h/(z-l)| + |r| sum|w/(z-l)|) / |d(z)|."""
    terms = model.weights / (z[:, None] - model.supports)
    sizes = np.abs(terms) @ np.abs(model.values) + np.abs(r) * np.abs(terms).sum(axis=1)
    return (model.k + 3) * EPS * sizes / np.abs(terms.sum(axis=1))


@pytest.mark.parametrize("k, zero", [(21, [0, 5, 11, 17]), (21, [9]), (30, [3, 8, 14, 20, 27, 29]),
                                     (12, [1, 2, 3])])
def test_transfer_keeps_to_the_rounding_bound_with_zero_weight_supports(k, zero):
    """Chebyshev points of [-1, 1] in scrambled order, zero weights at the
    `zero` positions of the realization (0 is the pencil's first column),
    and weights of alternating sign over the other supports in increasing
    order, so no pole on the real line. On a grid of [-1, 1], transfer and
    model differ by at most twice the bound, the most two correct
    evaluations can differ by."""
    rng = np.random.default_rng(k)
    supports = np.cos(np.pi * (rng.permutation(k) + 0.5) / k)
    weights = np.zeros(k)
    live = np.setdiff1d(np.arange(k), zero)
    weights[live[np.argsort(supports[live])]] = (-1.0) ** np.arange(live.size)
    model = RationalModel.barycentric(supports, np.abs(supports) + 0.5j * supports, weights)
    z = -1 + (2 * np.arange(4000) + 1) / 4000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = realize(model).transfer(z)
    r = model(z)
    assert np.all(np.abs(got - r) <= 2 * _rounding_bound(model, z, r))
