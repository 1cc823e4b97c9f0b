"""Greedy selection, Levy weight solves, and the full AAA loop."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import (
    FitConfig,
    NlaaaConfig,
    RationalModel,
    SampleSet,
    aaa_fit,
    metrics,
    nlaaa_fit,
    sample_builtin,
)
from baryfit import aaa
from baryfit.aaa import greedy_select, levy_weights
from baryfit.linalg import LevySystem, assemble_levy_system, levy_matrix
from helpers import rational_samples, trace_metrics_replay, transfer_samples, unit_grid


def test_initial_model_is_the_mean(monkeypatch):
    """The loop starts from the constant mean of the values: its first
    selection ranks |mean - H| over all samples, in the loop's units of
    H / 2^e with max |H| / 2^e in [1, 2)."""
    seen = []
    original = aaa.greedy_select

    def spy(res, data):
        seen.append(np.array(res))
        return original(res, data)

    monkeypatch.setattr(aaa, "greedy_select", spy)
    for values, mean, scale in (([1.0, 2.0, 3.0], 2.0, 0.5), ([1 + 1j, 1 - 1j], 1.0, 1.0)):
        seen.clear()
        aaa_fit(SampleSet(np.arange(len(values)), values), FitConfig(max_degree=0))
        assert_array_equal(seen[0], scale * np.abs(mean - np.asarray(values)))


def test_greedy_select_breaks_ties_at_lowest_index():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    # mismatches (1, 0, 1) of the constant 2; the tie between 0 and 2 goes to 0
    assert greedy_select(np.array([1.0, 0.0, 1.0]), data) == 0


def test_greedy_select_all_zero_mismatch_returns_lowest_index():
    data = SampleSet([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert greedy_select(np.zeros(3), data) == 0


def test_greedy_select_unique_maximum():
    data = SampleSet([0.0, 1.0, 2.0], [0.1, 5.0, 0.3])
    assert greedy_select(np.abs(data.values), data) == 1


def test_greedy_select_respects_active_mask():
    data = SampleSet([0.0, 1.0, 2.0], [0.1, 5.0, 0.3], [True, False, True])
    # the residuals of the active samples 0 and 2 only
    assert greedy_select(np.array([0.1, 0.3]), data) == 2


def test_greedy_select_needs_active_samples():
    data = SampleSet([0.0, 1.0], [1.0, 2.0], [False, False])
    with pytest.raises(ValueError):
        greedy_select(np.empty(0), data)


def test_levy_weights_single_support_is_unit_scalar():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [False, True, True])
    w = levy_weights(data.levy_system([0.0], [1.0]))
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
    w = levy_weights(data.levy_system(supports, interp))
    system = assemble_levy_system(data.active_points(), data.active_values(), supports, interp)
    L = levy_matrix(system)
    assert np.linalg.norm(L @ w) <= 1e-12 * np.linalg.norm(L)


def test_levy_weights_constant_data_zero_residual():
    data = SampleSet([0.5, 1.5, 2.5], [3.0, 3.0, 3.0], [True, True, False])
    w = levy_weights(data.levy_system([2.5], [3.0]))
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
    with pytest.raises(ValueError):
        FitConfig(max_degree=2.5)
    assert FitConfig(max_degree=np.int64(2)).max_degree == 2


def test_aaa_needs_two_samples():
    # the one check, in the loop both fits share
    with pytest.raises(ValueError, match="a fit needs at least two samples"):
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
    sum through model evaluation instead of the assembled system; the trace
    metrics equal those of the replayed model bit for bit (complex data)."""
    rng = np.random.default_rng(41)
    data = rational_samples(rng, 4, 41)
    cfg = FitConfig(max_degree=6, tol=1e-25)
    _, trace = aaa_fit(data, cfg)

    work = SampleSet(data.points, data.values)
    res = np.abs(np.mean(data.values) - data.values)  # the loop starts from the mean
    supports = np.empty(0, dtype=complex)
    interp = np.empty(0, dtype=complex)
    for rec in trace.records:
        idx = greedy_select(res, work)
        assert complex(work.points[idx]) == rec.support
        supports = np.append(supports, work.points[idx])
        interp = np.append(interp, work.values[idx])
        work = work.deactivate(idx)
        if rec.k == 1:
            w = np.ones(1, dtype=complex)
        else:
            w = levy_weights(work.levy_system(supports, interp))
        model = RationalModel.barycentric(supports, interp, w)
        raw = float(np.sum(np.abs(model(work.active_points()) - work.active_values()) ** 2))
        assert_allclose(rec.raw_active_sq_err, raw, rtol=1e-12, atol=1e-25)
        # the step's one evaluation gives the model's own metrics exactly
        assert (rec.l2_norm, rec.linf_norm) == tuple(metrics(model, data))
        # every nonzero-weight support still interpolates exactly
        live = model.weights != 0
        assert_array_equal(model(model.supports[live]), model.values[live])
        res = np.empty(work.active_count)
        assemble_levy_system(
            work.active_points(), work.active_values(), model.supports, model.values
        ).residual_sq_sum(model.weights, out=res)


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


def test_each_aaa_step_evaluates_its_weights_once(monkeypatch):
    """The stopping error, the next selection and the trace metrics share one
    evaluation of n and d on the step's system, made through
    residual_sq_sum: the fit builds one RationalModel, the one it returns,
    and never evaluates a model."""
    calls = {"numerators": 0, "denominators": 0, "residual_sq_sum": 0}
    for name in calls:
        def counted(self, *args, name=name, original=getattr(LevySystem, name), **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(LevySystem, name, counted)
    built, evaluated = [], []
    original_init, original_call = RationalModel.__init__, RationalModel.__call__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    def counted_call(self, z):
        evaluated.append(self)
        return original_call(self, z)

    monkeypatch.setattr(RationalModel, "__init__", counted_init)
    monkeypatch.setattr(RationalModel, "__call__", counted_call)
    model, trace = aaa_fit(sample_builtin("relu", 501), FitConfig(max_degree=14, tol=0.0))
    assert len(trace.records) == 15
    assert calls == {"numerators": 15, "denominators": 15, "residual_sq_sum": 15}
    assert built == [model]
    assert evaluated == []


def _recording_levy_weights(monkeypatch, change=None):
    """Record the weights of every AAA step after the first (k = 1 has the
    weight 1); `change(w)` may replace them first. Returns the list of all
    steps' weights."""
    weights = [np.ones(1, dtype=complex)]
    original = aaa.levy_weights

    def recording(system):
        w = original(system)
        if change is not None:
            w = change(w)
        weights.append(w)
        return w

    monkeypatch.setattr(aaa, "levy_weights", recording)
    return weights


def test_aaa_trace_rows_equal_the_metrics_of_their_models(monkeypatch):
    """Every row's l2/linf equal metrics(model_k, data) bit for bit on
    complex data, through the last step, whose single active sample the
    system's product takes as a dot."""
    rng = np.random.default_rng(7)
    cases = [(rational_samples(rng, 6, 201), 12),
             (transfer_samples(rng, 4, 40), 12),
             (SampleSet(rng.standard_normal(7), rng.standard_normal(7) + 1j * rng.standard_normal(7)), 10)]
    for data, degree in cases:
        weights = _recording_levy_weights(monkeypatch)
        _, trace = aaa_fit(data, FitConfig(max_degree=degree, tol=0.0))
        assert len(weights) == len(trace.records)
        got = [(rec.l2_norm, rec.linf_norm) for rec in trace.records]
        assert got == trace_metrics_replay(data, trace, weights)
    assert len(trace.records) == 6  # the last step had one active sample


def test_aaa_step_with_an_exact_zero_weight_records_its_models_metrics(monkeypatch):
    """A zero weight drops out of the model but not of the system's product;
    the row still equals metrics(model_k, data) bit for bit, the residual at
    the zero-weight support included."""

    def zero_second(w):
        if w.size == 5:
            w = w.copy()
            w[1] = 0.0
        return w

    data = rational_samples(np.random.default_rng(11), 6, 101)
    weights = _recording_levy_weights(monkeypatch, zero_second)
    _, trace = aaa_fit(data, FitConfig(max_degree=8, tol=0.0))
    assert weights[4][1] == 0
    got = [(rec.l2_norm, rec.linf_norm) for rec in trace.records]
    assert got == trace_metrics_replay(data, trace, weights)


def test_aaa_step_with_a_pole_at_a_sample_reads_inf_and_takes_that_sample(monkeypatch):
    """Weights whose denominator vanishes exactly at an active sample make
    the step's errors inf instead of aborting the fit, and the next step
    promotes that sample."""
    # supports 0 and 2 with weights (1, 1): d(1) = 1/1 + 1/(1 - 2) = 0
    data = SampleSet([0.0, 1.0, 2.0, 3.0, 4.0], [10.0, 1.0, 0.0, 1.0, 2.0])
    original = aaa.levy_weights
    monkeypatch.setattr(aaa, "levy_weights", lambda system: (
        np.ones(2, dtype=complex) if system.supports.size == 2 else original(system)))
    _, trace = aaa_fit(data, FitConfig(max_degree=2, tol=0.0))
    assert [rec.support for rec in trace.records] == [0, 2, 1]
    pole = trace.records[1]
    assert (pole.raw_active_sq_err, pole.l2_norm, pole.linf_norm) == (np.inf,) * 3
    assert np.isfinite(trace.records[2].l2_norm)


def test_aaa_step_with_a_pole_at_a_zero_weight_support_reads_inf(monkeypatch):
    """A support of zero weight is evaluated like any other sample, so a
    pole there makes the step's l2/linf inf while its active error stays
    finite."""
    # supports 0, 2, 1 with weights (1, 1, 0): d(1) = 1/1 + 1/(1 - 2) = 0
    data = SampleSet([0.0, 1.0, 2.0, 3.0, 4.0], [10.0, 1.0, 0.0, 1.0, 2.0])
    forced = {2: [1.0, 1.0], 3: [1.0, 1.0, 0.0]}
    monkeypatch.setattr(aaa, "levy_weights", lambda system: np.array(
        forced[system.supports.size], dtype=complex))
    _, trace = aaa_fit(data, FitConfig(max_degree=2, tol=0.0))
    assert [rec.support for rec in trace.records] == [0, 2, 1]
    last = trace.records[2]
    assert np.isfinite(last.raw_active_sq_err)
    assert (last.l2_norm, last.linf_norm) == (np.inf, np.inf)


FITS = [(aaa_fit, FitConfig), (nlaaa_fit, NlaaaConfig)]


@pytest.mark.parametrize("fit, config", FITS)
def test_fits_are_equivariant_under_power_of_two_scaling(fit, config):
    data = sample_builtin("relu", 201)
    cfg = config(max_degree=12, tol=0.0)
    model, trace = fit(data, cfg)
    for j in (600, -600):
        scaled = SampleSet(data.points, np.ldexp(data.values.real, j))
        got, got_trace = fit(scaled, cfg)
        assert_array_equal(got.weights, model.weights)
        assert_array_equal(got.supports, model.supports)
        # the support values are the scaled samples themselves
        assert_array_equal(got.values, np.ldexp(model.values.real, j))
        for a, b in zip(got_trace.records, trace.records):
            assert (a.branch, a.l2_norm, a.linf_norm) == (b.branch, b.l2_norm, b.linf_norm)
            with np.errstate(over="ignore"):
                assert a.raw_active_sq_err == np.ldexp(b.raw_active_sq_err, 2 * j)


@pytest.mark.parametrize("fit, config", FITS)
def test_fits_of_huge_and_tiny_data_have_finite_errors(fit, config):
    x = sample_builtin("abs", 41).points
    for c in (1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, trace = fit(SampleSet(x, c * np.exp(5 * x)), config(max_degree=10, tol=0.0))
        assert trace.records[-1].l2_norm < 1e-12
        assert all(r.branch != "fallback" for r in trace.records)
        assert metrics(model, SampleSet(x, c * np.exp(5 * x))).l2 < 1e-12
