"""Acceptance gate: nine end-to-end checks covering the fitting benchmarks,
the gradient identities, the stationarity guarantee, the denominator
diagnostic, the realization equivalence, and the data round trip.

Each test prints one PASS line with its measured numbers (visible under
``pytest -s``).
"""

import time

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import (
    FitConfig,
    NlaaaConfig,
    SampleSet,
    aaa_fit,
    nlaaa_fit,
    realize,
    sample_builtin,
)
from baryfit.aaa import levy_weights
from baryfit.data import load_samples, save_samples
from baryfit.gradients import (
    denominator_variation,
    error_levy,
    error_nonlinear,
    error_sk_step,
    error_wf_step,
    finite_difference_gradient,
    grad_levy,
    grad_nonlinear,
    grad_sk_step,
    grad_wf_step,
)
from baryfit.linalg import assemble_levy_system
from baryfit.refine import RefineConfig, sk_iterate, wf_iterate
from helpers import nonzero_complex, random_instance, random_model, rational_samples, rationals

_DEG50 = {}


def _nlaaa_degree50(name, count):
    """Full-budget degree-50 run, computed once per function and cached."""
    if name not in _DEG50:
        data = sample_builtin(name, count)
        t0 = time.perf_counter()
        _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=50, tol=0.0))
        _DEG50[name] = (trace, time.perf_counter() - t0)
    return _DEG50[name]


def _l2_column(trace):
    return np.array([rec.l2_norm for rec in trace.records])


def test_criterion_1_relu_benchmark():
    data = sample_builtin("relu", 501)
    t0 = time.perf_counter()
    _, trace = nlaaa_fit(data, NlaaaConfig(max_degree=14))
    elapsed = time.perf_counter() - t0
    last = trace.records[-1]
    assert last.k <= 15
    assert last.l2_norm <= 1e-4
    assert elapsed < 10.0
    print(
        "PASS criterion 1: relu/501 reaches l2 = %.3e at k = %d in %.2f s"
        % (last.l2_norm, last.k, elapsed)
    )


def test_criterion_2_error_is_monotone_for_all_builtins():
    cases = [("abs", 501), ("relu", 501), ("abs_sin3pi", 1000), ("triwave", 1000)]
    total = 0.0
    for name, count in cases:
        trace, elapsed = _nlaaa_degree50(name, count)
        total += elapsed
        l2 = _l2_column(trace)
        assert np.all(l2[1:] <= l2[:-1] * (1.0 + 1e-12)), name
    assert total < 120.0
    print(
        "PASS criterion 2: l2 non-increasing on all four functions "
        "(degree 50 budget, %.1f s total)" % total
    )


def test_criterion_3_refinement_beats_plain_aaa():
    finals = {}
    for name, want_strict in (("triwave", True), ("abs_sin3pi", False)):
        data = sample_builtin(name, 1000)
        _, aaa_trace = aaa_fit(data, FitConfig(max_degree=50, tol=0.0))
        nlaaa_trace, _ = _nlaaa_degree50(name, 1000)
        a, n = aaa_trace.records[-1].l2_norm, nlaaa_trace.records[-1].l2_norm
        finals[name] = (a, n)
        if want_strict:
            assert n < a, name
        else:
            assert n <= a, name
    print(
        "PASS criterion 3: final l2 aaa vs nlaaa: triwave %.3e vs %.3e, "
        "abs_sin3pi %.3e vs %.3e"
        % (finals["triwave"] + finals["abs_sin3pi"])
    )


def test_criterion_4_exact_recovery_of_random_rationals():
    rng = np.random.default_rng(401)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        data = rational_samples(rng, d, 201)
        for fit, cfg in (
            (aaa_fit, FitConfig(max_degree=d, tol=0.0)),
            (nlaaa_fit, NlaaaConfig(max_degree=d, tol=0.0)),
        ):
            _, trace = fit(data, cfg)
            last = trace.records[-1]
            assert last.k == d + 1
            assert last.l2_norm < 1e-10
            worst = max(worst, last.l2_norm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "PASS criterion 4: 20 random rationals recovered at k = d+1, "
        "worst l2 = %.3e, %.1f s" % (worst, elapsed)
    )


def test_criterion_5_gradient_identities_on_random_instances():
    rng = np.random.default_rng(405)
    worst_fd = 0.0
    worst_wf = 0.0
    worst_sk = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        m = int(rng.integers(2 * k, 41))
        supports, interp, data = random_instance(rng, k, m)
        w = nonzero_complex(rng, k)
        w_prev = nonzero_complex(rng, k)
        cases = [
            (grad_nonlinear(supports, interp, data, w),
             lambda v: error_nonlinear(supports, interp, data, v)),
            (grad_levy(supports, interp, data, w),
             lambda v: error_levy(supports, interp, data, v)),
            (grad_sk_step(supports, interp, data, w, w_prev),
             lambda v: error_sk_step(supports, interp, data, v, w_prev)),
            (grad_wf_step(supports, interp, data, w, w_prev),
             lambda v: error_wf_step(supports, interp, data, v, w_prev)),
        ]
        for analytic, error_fn in cases:
            approx = finite_difference_gradient(error_fn, w)
            dev = np.linalg.norm(analytic - approx) / max(np.linalg.norm(analytic), 1e-300)
            worst_fd = max(worst_fd, dev)
            assert dev < 1e-5
        g_true = grad_nonlinear(supports, interp, data, w)
        dev = np.linalg.norm(
            grad_wf_step(supports, interp, data, w, w) - g_true
        ) / np.linalg.norm(g_true)
        worst_wf = max(worst_wf, dev)
        assert dev < 1e-13
        # one SK pass is exactly the Levy solve
        one = sk_iterate(
            assemble_levy_system(data.active_points(), data.active_values(), supports, interp),
            RefineConfig(p_max=1, tol_sk=0.0),
        )
        w_levy = levy_weights(data.levy_system(supports, interp))
        probes = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        probes = probes[np.abs(probes[:, None] - supports[None, :]).min(axis=1) > 1e-6]
        system = assemble_levy_system(probes, np.zeros(probes.size), supports, interp)
        r_sk = rationals(system, one.weights)
        r_levy = rationals(system, w_levy)
        dev = float(np.max(np.abs(r_sk - r_levy) / (1.0 + np.abs(r_levy))))
        worst_sk = max(worst_sk, dev)
        assert dev <= 1e-10
    print(
        "PASS criterion 5: 50 instances, worst fd dev %.2e, "
        "wf fixed-point dev %.2e, sk-vs-levy dev %.2e" % (worst_fd, worst_wf, worst_sk)
    )


def _restricted_gradient_norm(supports, interp, data, w, pivot):
    w = np.asarray(w, dtype=complex)
    g = grad_nonlinear(supports, interp, data, w / w[pivot])
    return float(np.linalg.norm(np.delete(g, pivot)))


def test_criterion_6_converged_wf_runs_are_stationary():
    rng = np.random.default_rng(406)
    cfg = RefineConfig(p_max=60, tol_wf=1e-12)
    converged = 0
    worst_ratio = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        m = int(rng.integers(4 * k, 41))
        model = random_model(rng, k)
        points = np.empty(0, dtype=complex)
        while points.size < m:
            cand = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
            keep = np.abs(cand[:, None] - model.supports[None, :]).min(axis=1) > 0.1
            points = np.unique(np.append(points, cand[keep]))[:m]
        H = model(points) + 0.01 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        data = SampleSet(points, H)
        w0 = levy_weights(data.levy_system(model.supports, model.values))
        run = wf_iterate(
            assemble_levy_system(
                data.active_points(), data.active_values(), model.supports, model.values
            ),
            w0,
            cfg,
        )
        if not run.converged:
            continue
        mags = np.abs(w0)
        pivot = 0 if mags[0] >= 1e-12 * mags.max() else int(np.argmax(mags))
        g0 = _restricted_gradient_norm(model.supports, model.values, data, w0, pivot)
        g_final = _restricted_gradient_norm(
            model.supports, model.values, data, run.final_weights, pivot
        )
        converged += 1
        if g0 >= 1e-3:
            ratio = g_final / g0
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1e-6
        else:
            assert g_final <= 1e-6 * (1.0 + g0)
    assert converged >= 10
    print(
        "PASS criterion 6: %d converged runs, worst restricted-gradient "
        "ratio %.2e" % (converged, worst_ratio)
    )


def test_criterion_7_refined_denominators_vary_less():
    data = sample_builtin("relu", 501)
    variations = {}
    for label, fit, cfg in (
        ("aaa", aaa_fit, FitConfig(max_degree=14)),
        ("nlaaa", nlaaa_fit, NlaaaConfig(max_degree=14)),
    ):
        model, _ = fit(data, cfg)
        probes = data.points[~np.isin(data.points.astype(complex), model.supports)]
        variations[label] = denominator_variation(model.supports, model.weights, probes)
    assert variations["aaa"] >= 1e10
    assert variations["nlaaa"] <= variations["aaa"] / 1e4
    print(
        "PASS criterion 7: denominator variation aaa %.2e vs nlaaa %.2e"
        % (variations["aaa"], variations["nlaaa"])
    )


def test_criterion_8_realization_matches_evaluation():
    rng = np.random.default_rng(408)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 11))
        model = random_model(rng, k)
        rom = realize(model)
        points = np.empty(0, dtype=complex)
        while points.size < 100:
            cand = 2.0 * (rng.standard_normal(250) + 1j * rng.standard_normal(250))
            keep = np.abs(cand[:, None] - model.supports[None, :]).min(axis=1) > 1e-6
            points = np.append(points, cand[keep])[:100]
        via_rom = np.array([rom.transfer(z) for z in points])
        direct = model(points)
        assert_allclose(via_rom, direct, rtol=1e-8)
        worst = max(worst, float(np.max(np.abs(via_rom - direct) / np.abs(direct))))
    print("PASS criterion 8: 20 realizations match eval, worst rel dev %.2e" % worst)


def test_criterion_9_sample_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(409)
    scale = 10.0 ** rng.uniform(-30.0, 30.0, 1000)
    data = SampleSet(
        rng.standard_normal(1000) + 1j * rng.standard_normal(1000),
        scale * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)),
    )
    path = tmp_path / "round.csv"
    save_samples(path, data)
    back = load_samples(path)
    assert_array_equal(back.points, data.points)
    assert_array_equal(back.values, data.values)
    for mine, theirs in ((back.points, data.points), (back.values, data.values)):
        assert np.array_equal(np.signbit(mine.real), np.signbit(theirs.real))
        assert np.array_equal(np.signbit(mine.imag), np.signbit(theirs.imag))
    print("PASS criterion 9: 1000-sample save/load round trip is bit-identical")
