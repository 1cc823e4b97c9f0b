"""NL-AAA: candidate selection, fallback greedy modes, and the full loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryfit import (
    FitConfig,
    NlaaaConfig,
    RationalModel,
    SampleSet,
    aaa_fit,
    nlaaa_fit,
    sample_builtin,
)
from baryfit import nlaaa, refine
from baryfit.aaa import levy_weights
from baryfit.core import NumericalError, PoleAtPointError
from baryfit.linalg import assemble_levy_system
from baryfit.nlaaa import fallback_greedy, full_squared_error, select_weights
from baryfit.refine import wf_iterate
from helpers import (
    count_assemblies,
    rational_samples,
    trace_metrics_replay,
    transfer_samples,
    unit_grid,
)

BRANCHES = {"levy", "wf-from-sk", "wf-from-prev", "fallback"}


def test_config_validation():
    with pytest.raises(ValueError):
        NlaaaConfig(max_degree=-1)
    with pytest.raises(ValueError):
        NlaaaConfig(max_degree=3, fallback_mode="greedy")
    with pytest.raises(ValueError):
        NlaaaConfig(max_degree=3, tol=-0.5)


def test_full_squared_error_counts_zero_weight_supports():
    # the second support has zero weight, so its residual must be included
    supports = np.array([0.0, 1.0], dtype=complex)
    values = np.array([5.0, 9.0], dtype=complex)
    weights = np.array([1.0, 0.0], dtype=complex)
    data = SampleSet([0.0, 1.0, 3.0], [5.0, 9.0, 5.0], [False, False, True])
    # the model evaluates to 5 everywhere, so only z = 1 contributes (9-5)^2
    err = full_squared_error(data.levy_system(supports, values), weights, data)
    assert_allclose(err, 16.0, rtol=1e-12)


def test_full_squared_error_pole_gives_inf():
    supports = np.array([1.0, -1.0, 0.0], dtype=complex)
    values = np.ones(3, dtype=complex)
    data = SampleSet([1.0, -1.0, 0.0, 2.0, 3.0], np.ones(5), [False, False, True, True, True])
    system = data.levy_system(supports[:2], values[:2])
    # z = 0 is a pole of the model: at an active sample ...
    assert full_squared_error(system, np.ones(2, dtype=complex), data) == np.inf
    # ... and at a support of zero weight
    smaller = data.deactivate(2)
    system = smaller.levy_system(supports, values)
    assert full_squared_error(system, np.array([1.0, 1.0, 0.0], dtype=complex), smaller) == np.inf


def test_full_squared_error_all_zero_weights_gives_inf():
    data = SampleSet([1.0, 0.0, 2.0], [1.0, 1.0, 1.0], [False, True, True])
    system = data.levy_system(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    assert full_squared_error(system, np.zeros(1, dtype=complex), data) == np.inf


def test_select_weights_never_worsens_an_exact_previous_model():
    x = unit_grid(21)
    H = 1.0 / (x + 2.0)
    hold = [0, 10, 5]
    mask = np.ones(21, dtype=bool)
    mask[hold] = False
    data = SampleSet(x, H, mask)
    supports = x[hold]
    interp = H[hold]
    two_mask = np.ones(21, dtype=bool)
    two_mask[[0, 10]] = False
    w_exact = levy_weights(SampleSet(x, H, two_mask).levy_system(supports[:2], interp[:2]))
    w_prev_ext = np.append(w_exact, 0.0)
    system = assemble_levy_system(data.active_points(), data.active_values(), supports, interp)
    prev_err = full_squared_error(system, w_prev_ext, data)
    assert prev_err < 1e-20

    weights, branch = select_weights(system, data, w_prev_ext, NlaaaConfig(max_degree=5))
    assert branch in BRANCHES - {"levy"}
    err = full_squared_error(system, weights, data)
    assert err <= prev_err
    assert err < 1e-20


def test_select_weights_falls_back_when_wf_returns_its_start(monkeypatch):
    """A step whose WF run returns its own start, w_prev_ext, ties its one
    reference bit for bit, so it reports the fallback and keeps the bytes of
    w_prev_ext."""
    original_wf, original_select = nlaaa.wf_iterate, nlaaa.select_weights
    runs, ties = [], []

    def recording_wf(system, w0, cfg):
        run = original_wf(system, w0, cfg)
        runs.append((np.asarray(w0).tobytes(), run.weights.tobytes()))
        return run

    def checked_select(system, data, w_prev_ext, cfg):
        runs.clear()
        out = original_select(system, data, w_prev_ext, cfg)
        weights, branch = out
        [(start, returned)] = runs
        if start == returned == w_prev_ext.tobytes():
            assert branch == "fallback"
            assert weights.tobytes() == w_prev_ext.tobytes()
            ties.append(system.supports.size)
        return out

    monkeypatch.setattr(nlaaa, "wf_iterate", recording_wf)
    monkeypatch.setattr(nlaaa, "select_weights", checked_select)
    nlaaa_fit(sample_builtin("relu", 101), NlaaaConfig(max_degree=12, tol=0.0))
    assert ties


def _model_squared_error(model, data):
    """The squared error of a built model at every sample of `data`, inf
    at a pole or where the sum is nan."""
    try:
        total = float(np.sum(np.abs(model(data.points) - data.values) ** 2))
    except PoleAtPointError:
        return np.inf
    return np.inf if np.isnan(total) else total


def test_every_nlaaa_model_evaluates_as_its_copy_without_zero_weights(monkeypatch):
    """Each candidate and each zero-extended previous model of an NL-AAA fit
    evaluates at the samples bit for bit as the same model without its
    zero-weight supports, and full_squared_error, which scores it on the
    step's system, equals that model's squared error bit for bit."""
    data = sample_builtin("abs", 501)
    original_score = nlaaa.full_squared_error
    zero_weights, scored = [], []

    def check(supports, interp, weights):
        live = weights != 0
        zero_weights.append(int(np.count_nonzero(~live)))
        whole = RationalModel.barycentric(supports, interp, weights)
        compact = RationalModel.barycentric(supports[live], interp[live], weights[live])
        assert whole(data.points).tobytes() == compact(data.points).tobytes()
        return compact

    def checked_score(system, weights, work):
        got = original_score(system, weights, work)
        compact = check(system.supports, system.interp_values, weights)
        assert got == _model_squared_error(compact, work)
        scored.append(bool(weights.all()))
        return got

    monkeypatch.setattr(nlaaa, "full_squared_error", checked_score)
    model, trace = nlaaa_fit(data, NlaaaConfig(max_degree=30, tol=0.0))
    check(model.supports, model.values, model.weights)
    assert zero_weights[-1] > 0
    # a candidate and a reference per step, scored by both routes
    assert len(scored) == 2 * (len(trace.records) - 1)
    assert any(scored) and not all(scored)


def test_each_fit_step_assembles_one_system(monkeypatch):
    calls = count_assemblies(monkeypatch)
    data = sample_builtin("relu", 501)
    for fit, cfg in ((aaa_fit, FitConfig(max_degree=14, tol=0.0)),
                     (nlaaa_fit, NlaaaConfig(max_degree=14, tol=0.0))):
        calls.clear()
        _, trace = fit(data, cfg)
        assert len(trace.records) == 15
        assert len(calls) == len(trace.records)


def test_wf_from_prev_continues_the_one_step_wf(monkeypatch):
    """On a wf-from-prev step the WF run from w_prev_ext repeats the one-step
    WF that select_weights took, so the step solves one least-squares problem
    per WF iterate plus that one, and its weights are those of wf_iterate
    from w_prev_ext."""
    solves = []
    original_lsq = refine.pivoted_weighted_lsq
    original_select = nlaaa.select_weights
    from_prev = []

    def counting_lsq(*args):
        solves.append(1)
        return original_lsq(*args)

    def checked_select(system, data, w_prev_ext, cfg):
        solves.clear()
        out = original_select(system, data, w_prev_ext, cfg)
        weights, branch = out
        if branch == "wf-from-prev":
            made = len(solves)
            want = wf_iterate(system, w_prev_ext, cfg.refine)
            assert made == len(want.errors)
            assert weights.tobytes() == want.weights.tobytes()
            from_prev.append(made)
        return out

    monkeypatch.setattr(refine, "pivoted_weighted_lsq", counting_lsq)
    monkeypatch.setattr(nlaaa, "select_weights", checked_select)
    _, trace = nlaaa_fit(sample_builtin("relu", 501), NlaaaConfig(max_degree=14, tol=0.0))
    assert len(from_prev) == sum(r.branch == "wf-from-prev" for r in trace.records) > 0


def test_wf_iterate_runs_once_per_select_weights_call(monkeypatch):
    """Every WF run, wf-from-prev included, goes through wf_iterate."""
    calls = []
    for name in ("select_weights", "wf_iterate"):
        def counted(*args, name=name, original=getattr(nlaaa, name), **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(nlaaa, name, counted)
    _, trace = nlaaa_fit(sample_builtin("relu", 501), NlaaaConfig(max_degree=14, tol=0.0))
    assert calls == ["select_weights", "wf_iterate"] * (len(trace.records) - 1)
    assert any(r.branch == "wf-from-prev" for r in trace.records)


def _recording_select(monkeypatch):
    """Record the weights of every NL-AAA step (k = 1 has the weight 1);
    returns that list and the list of branches."""
    weights, branches = [np.ones(1, dtype=complex)], []
    original = nlaaa.select_weights

    def recording(system, work, w_prev_ext, cfg):
        out = original(system, work, w_prev_ext, cfg)
        weights.append(out[0])
        branches.append(out[1])
        return out

    monkeypatch.setattr(nlaaa, "select_weights", recording)
    return weights, branches


@pytest.mark.parametrize("case", ["rational", "imaginary_axis", "builtin", "zero_weight"])
def test_every_nlaaa_row_equals_the_metrics_of_its_model(monkeypatch, case):
    """Each row's l2/linf equal metrics(model_k, data) bit for bit, under
    both fallback modes: every row takes them from its own weights, from
    its active residuals as AAA does, and a fallback's zero extension
    evaluates as the previous model. The zero_weight fit in probabilistic
    mode accepts candidates with an exact zero weight, the steps whose
    metrics come from evaluating the model; the builtin fit falls back."""
    rng = np.random.default_rng(17)
    data, degree = {
        "rational": lambda: (rational_samples(rng, 6, 201), 10),
        "imaginary_axis": lambda: (transfer_samples(rng, 5, 60), 14),
        "builtin": lambda: (sample_builtin("abs", 201), 16),
        "zero_weight": lambda: (sample_builtin("relu", 201), 40),
    }[case]()
    weights, branches = _recording_select(monkeypatch)
    for mode in ("probabilistic", "relative"):
        del weights[1:], branches[:]
        _, trace = nlaaa_fit(
            data, NlaaaConfig(max_degree=degree, tol=0.0, fallback_mode=mode))
        assert len(weights) == len(trace.records)
        assert "wf-from-sk" in branches or "wf-from-prev" in branches
        if case == "builtin":
            assert "fallback" in branches
        zero_weight_accepted = any(
            b != "fallback" and not w.all() for w, b in zip(weights[1:], branches))
        assert zero_weight_accepted == (case == "zero_weight" and mode == "probabilistic")
        got = [(rec.l2_norm, rec.linf_norm) for rec in trace.records]
        assert got == trace_metrics_replay(data, trace, weights)


def test_each_nlaaa_step_evaluates_its_reference_and_zero_weight_candidates(monkeypatch):
    """select_weights builds and evaluates one model at every sample, its
    zero-extended reference, plus one for a candidate with an exact zero
    weight; any other candidate is scored on the step's system. The loop
    takes every row's metrics from its own weights, so it evaluates one
    model per fallback step, whose weights end in a zero, and otherwise
    builds only the model it returns: this fit accepts no candidate with a
    zero weight, and 4 of its 14 steps fall back."""
    data = sample_builtin("relu", 501)
    built, evaluated = [], []
    inside = []
    zero_candidates = []
    original_init, original_call = RationalModel.__init__, RationalModel.__call__
    original_select, original_wf = nlaaa.select_weights, nlaaa.wf_iterate

    def counted_init(self, *args, **kwargs):
        built.append(bool(inside))
        original_init(self, *args, **kwargs)

    def counted_call(self, z):
        evaluated.append((bool(inside), np.size(z)))
        return original_call(self, z)

    def marked_select(*args):
        inside.append(1)
        try:
            return original_select(*args)
        finally:
            inside.pop()

    def recording_wf(*args):
        run = original_wf(*args)
        zero_candidates.append(not run.weights.all())
        return run

    monkeypatch.setattr(RationalModel, "__init__", counted_init)
    monkeypatch.setattr(RationalModel, "__call__", counted_call)
    monkeypatch.setattr(nlaaa, "select_weights", marked_select)
    monkeypatch.setattr(nlaaa, "wf_iterate", recording_wf)
    _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=14, tol=0.0))
    fallbacks = [rec.branch == "fallback" for rec in trace.records[1:]]
    assert len(fallbacks) == 14 == len(zero_candidates)
    assert any(zero_candidates) and sum(fallbacks) == 4
    per_step = [[True] * (1 + zero) + [False] * fallback
                for zero, fallback in zip(zero_candidates, fallbacks)]
    inside_flags = [flag for step in per_step for flag in step]
    assert evaluated == [(flag, data.size) for flag in inside_flags]
    assert built == inside_flags + [False]


def test_fallback_greedy_probabilistic_matches_residual_distribution():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    res = np.abs(data.values)  # the constant 0 model
    rng = np.random.default_rng(0)
    picks = [fallback_greedy(res, data, "probabilistic", rng) for _ in range(2000)]
    counts = np.bincount(picks, minlength=3)
    assert counts[1] == 0  # zero residual has zero probability
    assert abs(counts[0] - 1000) < 100  # 4.5 sigma for p = 1/2


def test_fallback_greedy_probabilistic_uniform_when_all_exact():
    data = SampleSet([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    rng = np.random.default_rng(1)
    picks = {fallback_greedy(np.zeros(3), data, "probabilistic", rng) for _ in range(300)}
    assert picks == {0, 1, 2}


class _NoDraws:
    """Stand-in generator that fails the test if anything samples from it."""

    def choice(self, *args, **kwargs):
        raise AssertionError("relative mode must not consume randomness")


def test_fallback_greedy_relative_hand_case():
    # residuals (1, 0, 1) against |H| = (1, 2, 3): ratios (1, 0, 1/3)
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert fallback_greedy(np.array([1.0, 0.0, 1.0]), data, "relative", _NoDraws()) == 0


def test_fallback_greedy_relative_skips_zero_values():
    data = SampleSet([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    rng = np.random.default_rng(2)
    # residuals (0, 2, 3); the H = 0 sample is excluded, ratios tie at 1
    assert fallback_greedy(np.array([0.0, 2.0, 3.0]), data, "relative", rng) == 1


def test_fallback_greedy_relative_needs_a_nonzero_value():
    data = SampleSet([0.0, 1.0], [0.0, 0.0])
    rng = np.random.default_rng(3)
    with pytest.raises(NumericalError):
        fallback_greedy(np.ones(2), data, "relative", rng)


def test_fallback_greedy_single_active_sample():
    data = SampleSet([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [False, True, False])
    rng = np.random.default_rng(4)
    res = np.array([2.0])  # the constant 0 model at the one active sample
    assert fallback_greedy(res, data, "probabilistic", rng) == 1
    assert fallback_greedy(res, data, "relative", rng) == 1
    with pytest.raises(ValueError, match="unknown fallback mode"):
        fallback_greedy(res, data, "uniform", rng)


def test_fallback_greedy_needs_active_samples():
    data = SampleSet([0.0, 1.0], [1.0, 2.0], [False, False])
    for mode in ("probabilistic", "relative"):
        with pytest.raises(ValueError):
            fallback_greedy(np.empty(0), data, mode, np.random.default_rng(5))


def test_nlaaa_needs_two_samples():
    with pytest.raises(ValueError):
        nlaaa_fit(SampleSet([0.0], [1.0]), NlaaaConfig(max_degree=2))


def test_nlaaa_trace_is_monotone_and_branches_are_tagged():
    data = sample_builtin("triwave", 101)
    _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=8))
    assert trace.records[0].branch == "levy"
    l2 = [rec.l2_norm for rec in trace.records]
    for a, b in zip(l2, l2[1:]):
        assert b <= a * (1.0 + 1e-12)
    for prev, rec in zip(trace.records, trace.records[1:]):
        assert rec.branch in BRANCHES - {"levy"}
        if rec.branch == "fallback":
            # the previous model is kept, so the reported error cannot move
            assert_allclose(rec.l2_norm, prev.l2_norm, rtol=1e-12)
        else:
            # non-fallback selections must strictly improve the full error
            assert rec.l2_norm <= prev.l2_norm


def test_nlaaa_monotone_on_abs():
    data = sample_builtin("abs", 101)
    _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=10))
    l2 = [rec.l2_norm for rec in trace.records]
    for a, b in zip(l2, l2[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_nlaaa_is_deterministic():
    data = sample_builtin("triwave", 80)
    cfg = NlaaaConfig(max_degree=7, rng_seed=12)
    model_a, trace_a = nlaaa_fit(data, cfg)
    model_b, trace_b = nlaaa_fit(data, cfg)
    assert trace_a.records == trace_b.records
    assert np.array_equal(model_a.weights, model_b.weights)
    assert np.array_equal(model_a.supports, model_b.supports)


def test_nlaaa_seed_feeds_the_fallback_selection():
    data = sample_builtin("triwave", 101)
    t = [nlaaa_fit(data, NlaaaConfig(max_degree=8, rng_seed=s))[1] for s in (0, 1)]
    fallbacks = [any(r.branch == "fallback" for r in tr.records) for tr in t]
    assert all(fallbacks), "expected the low-degree triwave fit to hit fallbacks"
    # different seeds may legitimately coincide; just check both traces are
    # monotone and complete
    for tr in t:
        assert len(tr.records) == 9


def test_nlaaa_exact_recovery():
    rng = np.random.default_rng(83)
    degree = 3
    data = rational_samples(rng, degree, 101)
    _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=degree, tol=0.0))
    final = trace.records[-1]
    assert final.k == degree + 1
    assert final.l2_norm < 1e-10


def test_nlaaa_relative_fallback_mode_runs():
    data = sample_builtin("triwave", 101)
    _, trace = nlaaa_fit(
        data, NlaaaConfig(max_degree=8, fallback_mode="relative")
    )
    l2 = [rec.l2_norm for rec in trace.records]
    for a, b in zip(l2, l2[1:]):
        assert b <= a * (1.0 + 1e-12)
