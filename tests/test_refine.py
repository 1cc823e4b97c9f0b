"""SK and WF inner refinement iterations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import FitConfig, NlaaaConfig, SampleSet, aaa_fit, nlaaa_fit, sample_builtin
from baryfit import aaa, nlaaa, refine
from baryfit.aaa import levy_weights
from baryfit.core import NumericalError
from baryfit.gradients import error_wf_step, grad_nonlinear
from baryfit.linalg import (
    IGNORE,
    LevySystem,
    assemble_levy_system,
    denominator_weighting,
    pivoted_weighted_lsq,
)
from baryfit.nlaaa import select_weights
from baryfit.refine import RefineConfig, nonzero_denominators, sk_iterate, wf_iterate, wf_step
from helpers import distinct_complex, random_instance, rationals, unit_grid


def _system_for(supports, interp, data):
    return assemble_levy_system(
        data.active_points(), data.active_values(), supports, interp
    )


def _iterate(system, w):
    """The Iterate of w on the system, the `prev` of wf_step."""
    with np.errstate(**IGNORE):
        return system.evaluate(w)


def _exact_instance(count=21, holdout=(0, 10)):
    """Samples of a degree-1 rational with two grid points promoted to
    supports, so the remaining active data admits an exact fit."""
    x = unit_grid(count)
    H = 1.0 / (x + 2.0)
    mask = np.ones(count, dtype=bool)
    mask[list(holdout)] = False
    data = SampleSet(x, H, mask)
    return x[list(holdout)], H[list(holdout)], data


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(p_max=0)
    with pytest.raises(ValueError):
        RefineConfig(p_max=2.5)
    with pytest.raises(ValueError):
        RefineConfig(tol_sk=-1.0)
    with pytest.raises(ValueError):
        RefineConfig(tol_wf=-1.0)


def test_sk_first_iterate_is_the_levy_solution():
    rng = np.random.default_rng(51)
    supports, interp, data = random_instance(rng, 3, 12)
    result = sk_iterate(_system_for(supports, interp, data), RefineConfig(p_max=1))
    w_levy = levy_weights(data.levy_system(supports, interp))
    system = _system_for(supports, interp, data)
    probes = distinct_complex(rng, 100, scale=2.0)
    probe_sys = assemble_levy_system(probes, np.zeros(100), supports, interp)
    r_sk = rationals(probe_sys, result.final_weights)
    r_levy = rationals(probe_sys, w_levy)
    assert np.all(np.abs(r_sk - r_levy) <= 1e-10 * (1.0 + np.abs(r_levy)))
    assert_allclose(result.errors[0], system.residual_sq_sum(w_levy), rtol=1e-12)


def test_sk_cannot_converge_on_the_first_iterate():
    rng = np.random.default_rng(53)
    supports, interp, data = random_instance(rng, 3, 10)
    result = sk_iterate(_system_for(supports, interp, data), RefineConfig(p_max=5))
    assert len(result.errors) >= 2


def test_sk_exact_data_converges_at_second_iterate():
    supports, interp, data = _exact_instance()
    result = sk_iterate(_system_for(supports, interp, data), RefineConfig())
    assert result.errors[0] < 1e-20
    assert result.converged
    assert len(result.errors) == 2


def test_sk_constant_data_finishes_fast_with_zero_error():
    data = SampleSet([0.5, 1.5, 2.5, 3.5], [3.0, 3.0, 3.0, 3.0], [True, True, True, False])
    result = sk_iterate(_system_for([3.5], [3.0], data), RefineConfig())
    assert result.errors[0] < 1e-25
    assert result.converged
    assert len(result.errors) <= 2


def test_sk_returns_the_best_recorded_iterate():
    data = sample_builtin("triwave", 101)
    _, trace = aaa_fit(data, FitConfig(max_degree=8))
    supports = np.array([rec.support for rec in trace.records])
    mask = ~np.isin(data.points, supports)
    work = SampleSet(data.points, data.values, mask)
    # interpolated values aligned with the support order
    interp = np.array([data.values[np.nonzero(data.points == s)[0][0]] for s in supports])
    result = sk_iterate(_system_for(supports, interp, work), RefineConfig(p_max=15))
    system = _system_for(supports, interp, work)
    assert result.best_index == int(np.argmin(result.errors))
    assert_allclose(
        system.residual_sq_sum(result.weights),
        float(np.min(result.errors)),
        rtol=1e-12,
    )
    assert len(result.errors) <= 15


def test_wf_step_single_support_returns_one():
    rng = np.random.default_rng(59)
    supports, interp, data = random_instance(rng, 1, 6)
    w = wf_step(_system_for(supports, interp, data), np.array([2.0 - 1j]))
    assert w.shape == (1,) and w[0] == 1.0 + 0j


def test_wf_step_rejects_all_zero_weights(monkeypatch):
    """From scratch and from its Iterate alike, before any evaluation."""
    rng = np.random.default_rng(61)
    supports, interp, data = random_instance(rng, 2, 6)
    system = _system_for(supports, interp, data)
    zero = np.zeros(2, dtype=complex)
    prev = _iterate(system, zero)
    calls = []
    for name in ("numerators", "denominators"):
        monkeypatch.setattr(LevySystem, name, lambda self, W, name=name: calls.append(name))
    for given in (None, prev):
        with pytest.raises(ValueError, match="all-zero weight vector"):
            wf_step(system, zero, given)
    assert calls == []


def test_wf_step_zero_residual_weights_are_a_fixed_point():
    supports, interp, data = _exact_instance()
    system = _system_for(supports, interp, data)
    # recover the exact weights from the Levy null vector
    w_exact = levy_weights(data.levy_system(supports, interp))
    assert system.residual_sq_sum(w_exact) < 1e-20
    w_next = wf_step(_system_for(supports, interp, data), w_exact)
    assert_allclose(
        rationals(system, w_next), rationals(system, w_exact), rtol=1e-8
    )


def test_wf_step_pivots_on_largest_entry_when_first_weight_vanishes():
    rng = np.random.default_rng(67)
    supports, interp, data = random_instance(rng, 2, 8)
    w = wf_step(_system_for(supports, interp, data), np.array([0.0, 1.0 + 0j]))
    assert w[1] == 1.0 + 0j


def test_wf_step_minimizes_the_linearized_objective():
    rng = np.random.default_rng(71)
    supports, interp, data = random_instance(rng, 2, 9)
    w_prev = np.array([1.0 + 0.3j, -0.7 + 0.2j])
    w = wf_step(_system_for(supports, interp, data), w_prev)
    best = error_wf_step(supports, interp, data, w, w_prev)
    for _ in range(1000):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if abs(u[0]) < 1e-6:
            continue
        u = u / u[0]  # same pivot normalization as the solver
        trial = error_wf_step(supports, interp, data, u, w_prev)
        assert best <= trial * (1.0 + 1e-10) + 1e-20


@pytest.mark.parametrize("first", [1.0, 1e-14])
def test_wf_step_is_the_solve_on_the_shifted_numerator_matrix_bit_for_bit(first):
    """wf_step solves on the system's P - diag(n/d) C, the gradients'
    shifted numerator matrix, for pivot 0 and for the largest entry when
    entry 0 is negligible; test_linalg checks that solve against lstsq on
    an explicit formation. From scratch it evaluates w into its Iterate
    and takes the one path of a step from that Iterate."""
    rng = np.random.default_rng(61)
    supports, interp, data = random_instance(rng, 7, 150)
    system = _system_for(supports, interp, data)
    for _ in range(5):
        w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        w[0] *= first
        n, d = system.numerators(w), system.denominators(w)
        pivot = 0 if first == 1.0 else int(np.argmax(np.abs(w)))
        F = system.shifted_numerator_matrix(n / d)
        want = pivoted_weighted_lsq(denominator_weighting(d), F, -n + d * system.data_values, pivot)
        assert wf_step(system, w).tobytes() == want.tobytes()
        assert wf_step(system, w, _iterate(system, w)).tobytes() == want.tobytes()


def test_wf_iterate_exact_start_converges_immediately():
    supports, interp, data = _exact_instance()
    w0 = levy_weights(data.levy_system(supports, interp))
    result = wf_iterate(_system_for(supports, interp, data), w0, RefineConfig())
    assert result.converged
    assert len(result.errors) == 2
    assert np.all(result.errors < 1e-18)


def test_wf_iterate_pmax_one_records_start_plus_one_step():
    rng = np.random.default_rng(73)
    supports, interp, data = random_instance(rng, 3, 10)
    w0 = np.ones(3, dtype=complex)
    result = wf_iterate(_system_for(supports, interp, data), w0, RefineConfig(p_max=1))
    assert len(result.errors) == 2
    assert not result.converged


def test_wf_iterate_never_returns_worse_than_its_start():
    data = sample_builtin("relu", 101)
    _, trace = aaa_fit(data, FitConfig(max_degree=10))
    supports = np.array([rec.support for rec in trace.records])
    interp = np.array(
        [data.values[np.nonzero(data.points == s)[0][0]] for s in supports]
    )
    mask = ~np.isin(data.points, supports)
    work = SampleSet(data.points, data.values, mask)
    sk = sk_iterate(_system_for(supports, interp, work), RefineConfig())
    result = wf_iterate(_system_for(supports, interp, work), sk.weights, RefineConfig())
    system = _system_for(supports, interp, work)
    assert_allclose(result.errors[0], system.residual_sq_sum(sk.weights), rtol=1e-12)
    best = float(np.min(result.errors))
    assert best <= result.errors[0]
    assert_allclose(system.residual_sq_sum(result.weights), best, rtol=1e-12)
    assert result.best_index == int(np.argmin(result.errors))


def test_wf_iterate_single_support_converges_to_constant_weight():
    rng = np.random.default_rng(79)
    supports, interp, data = random_instance(rng, 1, 5)
    result = wf_iterate(_system_for(supports, interp, data), np.array([3.0 + 0j]), RefineConfig())
    assert result.converged
    assert result.final_weights[0] == 1.0 + 0j


def test_wf_iterate_stops_on_a_start_whose_denominator_vanishes():
    # d(z) = 1/(z-1) + 1/(z+1) = 0 exactly at the active sample z = 0
    data = SampleSet([0.0, 0.5, -2.0], [1.0, 2.0, 3.0])
    supports = np.array([1.0, -1.0], dtype=complex)
    interp = np.array([4.0, 5.0], dtype=complex)
    w0 = np.ones(2, dtype=complex)
    with pytest.raises(NumericalError):
        wf_step(_system_for(supports, interp, data), w0)
    result = wf_iterate(_system_for(supports, interp, data), w0, RefineConfig())
    assert result.errors[0] == np.inf
    assert len(result.errors) == 1
    assert not result.converged
    assert_array_equal(result.weights, w0)


def test_select_weights_survives_a_previous_model_with_a_pole_at_a_sample():
    # the zero-extended previous weights (1, 1, 0) put d(0) = 0 on an active
    # sample, so the one-step WF from them is undefined and must lose to SK
    x = unit_grid(21)
    assert x[0] == -1.0 and x[10] == 0.0 and x[20] == 1.0
    picked = [20, 0, 15]
    mask = np.ones(21, dtype=bool)
    mask[picked] = False
    work = SampleSet(x, np.abs(x) + 0.25, mask)
    supports = work.points[picked]
    interp = work.values[picked]
    w_prev_ext = np.array([1.0, 1.0, 0.0], dtype=complex)
    cfg = NlaaaConfig(max_degree=2)
    weights, branch, _ = select_weights(_system_for(supports, interp, work), work, w_prev_ext, cfg)
    assert branch == "wf-from-sk"
    system = _system_for(supports, interp, work)
    assert np.isfinite(system.residual_sq_sum(weights))


def test_each_iterate_evaluates_numerators_and_denominators_once(monkeypatch):
    calls = []
    for name in ("numerators", "denominators"):
        def counted(self, w, original=getattr(LevySystem, name)):
            calls.append(original.__name__)
            return original(self, w)
        monkeypatch.setattr(LevySystem, name, counted)
    rng = np.random.default_rng(83)
    supports, interp, data = random_instance(rng, 6, 120)
    system = _system_for(supports, interp, data)
    cfg = RefineConfig(p_max=5, tol_sk=0.0, tol_wf=0.0)  # no early stop
    sk = sk_iterate(system, cfg)
    assert len(sk.errors) == 5
    assert len(calls) <= 2 * len(sk.errors)
    calls.clear()
    wf = wf_iterate(system, sk.weights, cfg)
    assert len(wf.errors) == 6
    assert len(calls) <= 2 * len(wf.errors)
    # the iteration steps from the n and d of its error evaluation, which
    # are those wf_step computes afresh
    one = wf_iterate(system, sk.weights, RefineConfig(p_max=1, tol_wf=0.0))
    assert_array_equal(one.final_weights, wf_step(system, sk.weights))


def test_wf_run_after_a_first_step_stops_on_a_start_with_infinite_error():
    # |r - H|^2 overflows at the sample with H = 1e200, though d does not
    # vanish, so wf_step succeeds and wf_iterate stops at its start
    data = SampleSet([0.0, 0.5, -2.0], [1e200, 2.0, 3.0])
    supports = np.array([1.0, -1.5], dtype=complex)
    system = _system_for(supports, np.array([4.0, 5.0], dtype=complex), data)
    w0 = np.ones(2, dtype=complex)
    with np.errstate(over="ignore"):  # the overflow is the point
        wf_step(system, w0)
        run = wf_iterate(system, w0, RefineConfig())
    assert run.errors.tolist() == [np.inf]
    assert run.best_index == 0 and not run.converged
    assert_array_equal(run.weights, w0)
    # nor on a start whose denominator vanishes, which has no first step
    data = SampleSet([0.0, 0.5, -2.0], [1.0, 2.0, 3.0])
    system = _system_for(np.array([1.0, -1.0]), np.array([4.0, 5.0]), data)
    with pytest.raises(NumericalError):
        wf_step(system, w0)
    run = wf_iterate(system, w0, RefineConfig())
    assert run.errors.tolist() == [np.inf]
    assert run.best_index == 0 and not run.converged
    assert_array_equal(run.weights, w0)


def test_wf_convergence_is_not_tested_on_an_iterate_of_infinite_error():
    # on this ordering of the samples one WF run of the fit grows its
    # iterates to 5e296 and then to two inf entries; comparing that iterate
    # with the one before divided inf by inf, a RuntimeWarning
    d = sample_builtin("abs_sin3pi", 201)
    p = np.random.default_rng(6).permutation(201)
    data = SampleSet(d.points[p], d.values[p])
    cfg = NlaaaConfig(max_degree=16, tol=0.0, fallback_mode="relative")
    _, trace = nlaaa_fit(data, cfg)
    assert len(trace.records) == 17
    l2 = [rec.l2_norm for rec in trace.records]
    assert all(b <= a for a, b in zip(l2, l2[1:]))


@pytest.mark.parametrize(
    "call",
    [
        lambda supports, interp, data, w: wf_step(data.levy_system(supports, interp), w),
        lambda supports, interp, data, w: wf_step(
            data.levy_system(supports, interp), w, _iterate(data.levy_system(supports, interp), w)
        ),
        grad_nonlinear,
    ],
    ids=["wf_step", "wf_step_from_its_iterate", "grad_nonlinear"],
)
def test_a_vanishing_denominator_is_reported_at_its_sample(call):
    # k = 2 with w1 = -w0 (z - lambda1)/(z - lambda0): d(z) = 0 exactly at the
    # active sample z = 0.5 (1/(z - lambda) = 2 and -1, so 2 w0 - w1 = 0)
    supports = np.array([0.0, 1.5], dtype=complex)
    interp = np.array([4.0, 5.0], dtype=complex)
    data = SampleSet([0.0, 0.5, 1.5, 3.0], [4.0, 1.0, 5.0, 2.0], [False, True, False, True])
    w0 = 1.0 + 1.0j
    w = np.array([w0, -w0 * (0.5 - 1.5) / (0.5 - 0.0)])
    system = data.levy_system(supports, interp)
    d = system.denominators(w)
    assert d[0] == 0 and d[1] != 0
    with pytest.raises(NumericalError, match=r"denominator vanishes at sample z = \(0\.5\+0j\)"):
        call(supports, interp, data, w)
    # the guard hands back d where it vanishes nowhere
    d_ok = system.denominators(np.array([w0, 1.0]))
    assert nonzero_denominators(system, d_ok) is d_ok


def test_refine_binds_nothing_of_the_greedy_loop():
    """The refinement sits below the greedy loop: refine binds no object
    defined in aaa or nlaaa, so a caller of refit needs neither."""
    loop = {aaa.__name__, nlaaa.__name__}
    for name, value in vars(refine).items():
        assert value is not aaa and value is not nlaaa, name
        assert getattr(value, "__module__", None) not in loop, name
