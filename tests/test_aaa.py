"""Greedy selection, Levy weight solves, and the full AAA loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import FitConfig, RationalModel, SampleSet, aaa_fit, metrics, sample_builtin
from baryfit.aaa import greedy_select, initial_model, levy_weights
from baryfit.linalg import assemble_levy_system, levy_matrix
from helpers import rational_samples, unit_grid


def test_initial_model_is_the_mean():
    assert initial_model(SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]))(0.0) == 2.0 + 0j
    assert initial_model(SampleSet([0.0], [7.0]))(5.0) == 7.0 + 0j
    data = SampleSet([0.0, 1.0], [1 + 1j, 1 - 1j])
    assert initial_model(data)(0.0) == 1.0 + 0j


def test_greedy_select_breaks_ties_at_lowest_index():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    model = RationalModel.constant(2.0)
    # mismatches are (1, 0, 1); the tie between 0 and 2 goes to 0
    assert greedy_select(model, data) == 0


def test_greedy_select_all_zero_mismatch_returns_lowest_index():
    data = SampleSet([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert greedy_select(RationalModel.constant(4.0), data) == 0


def test_greedy_select_unique_maximum():
    data = SampleSet([0.0, 1.0, 2.0], [0.1, 5.0, 0.3])
    assert greedy_select(RationalModel.constant(0.0), data) == 1


def test_greedy_select_respects_active_mask():
    data = SampleSet([0.0, 1.0, 2.0], [0.1, 5.0, 0.3], [True, False, True])
    assert greedy_select(RationalModel.constant(0.0), data) == 2


def test_greedy_select_needs_active_samples():
    data = SampleSet([0.0, 1.0], [1.0, 2.0], [False, False])
    with pytest.raises(ValueError):
        greedy_select(RationalModel.constant(0.0), data)


def test_levy_weights_single_support_is_unit_scalar():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [False, True, True])
    w = levy_weights([0.0], [1.0], data)
    assert w.shape == (1,)
    assert abs(abs(w[0]) - 1.0) < 1e-14


def test_levy_weights_exact_rational_data_null_vector():
    x = unit_grid(21)
    H = 1.0 / (x + 2.0)
    mask = np.ones(21, dtype=bool)
    mask[[0, 20]] = False
    data = SampleSet(x, H, mask)
    supports = x[[0, 20]]
    interp = H[[0, 20]]
    w = levy_weights(supports, interp, data)
    system = assemble_levy_system(data.active_points(), data.active_values(), supports, interp)
    L = levy_matrix(system)
    assert np.linalg.norm(L @ w) <= 1e-12 * np.linalg.norm(L)


def test_levy_weights_constant_data_zero_residual():
    data = SampleSet([0.5, 1.5, 2.5], [3.0, 3.0, 3.0], [True, True, False])
    w = levy_weights([2.5], [3.0], data)
    system = assemble_levy_system(
        data.active_points(), data.active_values(), [2.5], [3.0]
    )
    assert np.linalg.norm(levy_matrix(system) @ w) == 0.0


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_degree=-1)
    with pytest.raises(ValueError):
        FitConfig(max_degree=2, tol=-1.0)
    with pytest.raises(ValueError):
        FitConfig(max_degree=2, tol=np.nan)


def test_aaa_needs_two_samples():
    with pytest.raises(ValueError):
        aaa_fit(SampleSet([0.0], [1.0]), FitConfig(max_degree=2))


def test_aaa_recovers_simple_pole_at_k2():
    x = unit_grid(21)
    data = SampleSet(x, 1.0 / (x + 2.0))
    model, trace = aaa_fit(data, FitConfig(max_degree=10))
    assert len(trace.records) == 2
    assert trace.records[-1].raw_active_sq_err < 1e-20
    assert not trace.budget_exhausted
    assert model.degree == 1


def test_aaa_infinite_tolerance_stops_immediately():
    data = sample_builtin("abs", 11)
    model, trace = aaa_fit(data, FitConfig(max_degree=5, tol=np.inf))
    assert len(trace.records) == 1
    assert trace.records[0].k == 1 and trace.records[0].degree == 0
    assert trace.records[0].branch == "levy"
    assert not trace.budget_exhausted
    assert model.k == 1


def test_aaa_on_relu_is_not_monotone():
    data = sample_builtin("relu", 501)
    _, trace = aaa_fit(data, FitConfig(max_degree=30, tol=0.0))
    l2 = [rec.l2_norm for rec in trace.records]
    assert any(b > a for a, b in zip(l2, l2[1:]))
    assert trace.budget_exhausted
    assert len(trace.records) == 31


def test_aaa_stops_when_data_runs_out():
    data = SampleSet([0.0, 0.3, 0.7, 1.0], [1.0, 2.0, 0.5, 3.0])
    _, trace = aaa_fit(data, FitConfig(max_degree=10, tol=0.0))
    assert len(trace.records) == 3  # 3 supports leave a single active sample
    assert trace.budget_exhausted


def test_aaa_trace_matches_independent_replay():
    """Replay the loop from the public primitives and recompute every stopping
    sum through model evaluation instead of the assembled system."""
    rng = np.random.default_rng(41)
    data = rational_samples(rng, 4, 41)
    cfg = FitConfig(max_degree=6, tol=1e-25)
    _, trace = aaa_fit(data, cfg)

    work = SampleSet(data.points, data.values)
    model = initial_model(work)
    supports = np.empty(0, dtype=complex)
    interp = np.empty(0, dtype=complex)
    for rec in trace.records:
        system = None if model.is_constant else assemble_levy_system(
            work.active_points(), work.active_values(), model.supports, model.values
        )
        idx = greedy_select(model, work, system)
        assert complex(work.points[idx]) == rec.support
        supports = np.append(supports, work.points[idx])
        interp = np.append(interp, work.values[idx])
        work = work.deactivate(idx)
        if rec.k == 1:
            w = np.ones(1, dtype=complex)
        else:
            w = levy_weights(supports, interp, work)
        model = RationalModel.barycentric(supports, interp, w)
        raw = float(np.sum(np.abs(model(work.active_points()) - work.active_values()) ** 2))
        assert_allclose(rec.raw_active_sq_err, raw, rtol=1e-12, atol=1e-25)
        m = metrics(model, data)
        assert_allclose(rec.l2_norm, m.l2, rtol=1e-12)
        assert_allclose(rec.linf_norm, m.linf, rtol=1e-12)
        # every nonzero-weight support still interpolates exactly
        live = model.weights != 0
        assert_array_equal(model(model.supports[live]), model.values[live])


def test_aaa_supports_never_repeat():
    data = sample_builtin("abs_sin3pi", 101)
    _, trace = aaa_fit(data, FitConfig(max_degree=12))
    chosen = [rec.support for rec in trace.records]
    assert len(set(chosen)) == len(chosen)


def test_aaa_exact_recovery_of_random_rational():
    rng = np.random.default_rng(43)
    degree = 4
    data = rational_samples(rng, degree, 201)
    _, trace = aaa_fit(data, FitConfig(max_degree=degree, tol=0.0))
    final = trace.records[-1]
    assert final.k == degree + 1
    assert final.l2_norm < 1e-10
