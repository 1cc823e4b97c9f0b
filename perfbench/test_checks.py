"""Each check of the benchmark passes on a correct output and fails on a
deliberately wrong one; the tracer records calls made through by-name
imports and restores the package afterwards.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import baryfit  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def recover_case():
    case = workloads.build("recover", 7).cases[2]  # degree 3
    return case


@pytest.fixture(scope="module")
def fits(recover_case):
    return {algo: harness._fit(recover_case, algo) for algo in ("aaa", "nlaaa")}


def _with_weights(model, weights):
    return baryfit.RationalModel.barycentric(model.supports, model.values, weights)


def test_correct_fits_pass_every_fit_check(recover_case, fits):
    for algo, (model, trace) in fits.items():
        assert checks.fit_problems(algo, recover_case.data, model, trace, True) == []
        assert checks.recovery_problems(algo, recover_case.max_degree, trace) == []
        assert checks.target_problems(algo, trace, recover_case.target) == []


def test_perturbed_weight_is_caught(recover_case, fits):
    model, trace = fits["nlaaa"]
    w = model.weights.copy()
    w[1] *= 1.0 + 1e-6
    bad = _with_weights(model, w)
    assert checks.fit_problems("w", recover_case.data, bad, trace, True)


def test_reordered_trace_is_caught(recover_case, fits):
    model, trace = fits["nlaaa"]
    reordered = baryfit.FitTrace(records=trace.records[::-1])
    assert checks.fit_problems("rev", recover_case.data, model, reordered, True)


def test_rising_l2_column_is_caught(recover_case, fits):
    model, trace = fits["nlaaa"]
    recs = list(trace.records)
    recs[1] = dataclasses.replace(recs[1], l2_norm=recs[0].l2_norm * 2.0)
    assert any("rises" in p for p in checks.fit_problems(
        "up", recover_case.data, model, baryfit.FitTrace(records=recs), True))
    # AAA traces are not required to be monotone
    assert not any("rises" in p for p in checks.fit_problems(
        "up", recover_case.data, model, baryfit.FitTrace(records=recs), False))


def test_wrong_support_value_is_caught(recover_case, fits):
    model, trace = fits["aaa"]
    values = model.values.copy()
    values[0] += 1e-12
    bad = baryfit.RationalModel.barycentric(model.supports, values, model.weights)
    assert any("support value" in p for p in
               checks.fit_problems("h", recover_case.data, bad, trace, False))


def test_support_not_interpolated_exactly_is_caught(recover_case, fits):
    model, trace = fits["aaa"]

    class Off(baryfit.RationalModel):
        def __call__(self, z):
            return super().__call__(z) * (1.0 + 1e-15)

    bad = Off.barycentric(model.supports, model.values, model.weights)
    assert any("interpolated exactly" in p for p in
               checks.fit_problems("interp", recover_case.data, bad, trace, False))


def test_metric_mismatch_is_caught(recover_case, fits):
    model, _ = fits["aaa"]
    good = baryfit.metrics(model, recover_case.val)
    assert checks.metric_problems("m", good, model, recover_case.val) == []
    wrong = (good.l2 * (1.0 + 1e-3) + 1e-9, good.linf)
    assert checks.metric_problems("m", wrong, model, recover_case.val)


def test_bary_eval_matches_the_formula_and_interpolates():
    supports = np.array([0.0, 1.0, 2.0 + 1j])
    values = np.array([1.0, -2.0, 0.5j])
    weights = np.array([1.0, 0.5 - 0.5j, 0.0])
    z = np.array([0.5, 3.0, 0.0, 2.0 + 1j])
    r, err = checks.bary_eval(supports, values, weights, z)
    for i in (0, 1):
        c = weights / (z[i] - supports)
        assert r[i] == pytest.approx((c @ values) / c.sum(), rel=1e-14)
    assert r[2] == values[0] and err[2] == 0.0  # live support: exact
    assert np.isclose(r[3], (values[:2] * weights[:2] / (z[3] - supports[:2])).sum()
                      / (weights[:2] / (z[3] - supports[:2])).sum())  # zero weight drops out


def test_refinement_check():
    good = {"triwave-1000": (1.0, 0.1), "abs_sin3pi-1000": (0.2, 0.2)}
    assert checks.refinement_problems(good) == []
    assert checks.refinement_problems({"triwave-1000": (0.1, 0.1),
                                       "abs_sin3pi-1000": (0.2, 0.2)})
    assert checks.refinement_problems({"triwave-1000": (1.0, 0.1),
                                       "abs_sin3pi-1000": (0.2, 0.3)})


def test_recovery_check_wants_k_and_l2(recover_case, fits):
    _, trace = fits["aaa"]
    last = trace.records[-1]
    short = baryfit.FitTrace(records=trace.records[:-1])
    assert checks.recovery_problems("k", recover_case.max_degree, short)
    loose = baryfit.FitTrace(records=trace.records[:-1] + [
        baryfit.TraceRecord(last.k, last.degree, last.support, last.raw_active_sq_err,
                            1e-9, last.linf_norm, last.branch)])
    assert checks.recovery_problems("l2", recover_case.max_degree, loose)


def test_unreached_target_is_caught(fits):
    _, trace = fits["nlaaa"]
    assert checks.degree_at_target(trace, np.inf) == 0
    assert checks.target_problems("t", trace, 0.0)


def test_realization_check(recover_case, fits):
    model, _ = fits["nlaaa"]
    r = model(recover_case.val.points)
    t = baryfit.realize(model).transfer(recover_case.val.points)
    assert checks.realization_problems("rom", t, r) == []
    assert checks.realization_problems("rom", t * (1.0 + 1e-6), r)


def test_validation_band():
    assert checks.validation_problems("v", 2e-3, 1e-3) == []
    assert checks.validation_problems("v", 2e-2, 1e-3)
    assert checks.validation_problems("v", 5e-5, 1e-3)


def test_gradient_checks(recover_case):
    inst = workloads.build("recover", 7).grad_instances[2]
    devs = harness.gradcheck(recover_case, inst)
    assert set(devs) == {"fd_nonlinear", "fd_levy", "fd_levy_rearranged", "fd_sk_step",
                         "fd_sk_fixed_point", "fd_wf_step", "wf_identity"}
    assert checks.gradient_problems("g", devs) == []
    assert checks.gradient_problems("g", dict(devs, fd_levy=2e-5))
    assert checks.gradient_problems("g", dict(devs, wf_identity=1e-12))


def test_reproducibility_check(recover_case, fits, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    made = [harness.Fit(recover_case, algo, *fits[algo]) for algo in ("aaa", "nlaaa")]
    first = harness.digests(made)
    again = [harness.Fit(recover_case, algo, *harness._fit(recover_case, algo))
             for algo in ("aaa", "nlaaa")]
    assert checks.reproducibility_problems(first, harness.digests(again)) == []
    model, trace = fits["nlaaa"]
    w = model.weights.copy()
    w[0] = np.nextafter(w[0].real, np.inf) + 1j * w[0].imag  # one ulp
    moved = [harness.Fit(recover_case, "nlaaa", _with_weights(model, w), trace)]
    assert checks.reproducibility_problems(first, harness.digests(moved))


def test_tracer_reaches_by_name_imports_and_restores(recover_case):
    original = baryfit.linalg.min_unit_norm_solution
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert baryfit.refine.min_unit_norm_solution is not original
        harness._fit(recover_case, "nlaaa")
        layers = tracer.snapshot()
        assert layers["linalg.min_unit_norm_solution.calls"] > 0
        assert layers["refine.sk_iterate.calls"] > 0
        assert layers["linalg.residual_sq_sum.calls"] > 0
        assert layers["core.SampleSet.deactivate.calls"] == recover_case.max_degree + 1
        assert "core.realize" in tracer.missing("recover")
        assert "nlaaa.fallback_greedy" not in tracer.missing("recover")
        # every wrapped span nests in the fit's, so the self times add up to it
        total = sum(layers[m + ".self_s"] for m in tracing.MODULES)
        assert total == pytest.approx(tracer.values["nlaaa.nlaaa_fit.s"], rel=1e-9)
    finally:
        tracer.uninstall()
    assert baryfit.refine.min_unit_norm_solution is original
    assert baryfit.aaa.min_unit_norm_solution is original
    assert "__wrapped__" not in vars(baryfit.core.RationalModel.__call__)


def test_per_layer_names_match_the_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)


def test_reference_fit_converges_and_a_failed_one_is_caught():
    seconds, err = speed.reference()
    assert seconds > 0.0 and err <= speed.REF_MAX_ERROR
    # a few supports short, the error is far above the bound
    assert speed.aaa_error(speed._Z, speed._F, speed.REF_DEGREE - 8) > 100 * speed.REF_MAX_ERROR
    p = harness.Pass()
    p.time_reference()
    assert harness.problems("recover", p) == []
    p.reference_error = 1e-3
    assert harness.problems("recover", p) == ["reference fit: max error 0.001"]
