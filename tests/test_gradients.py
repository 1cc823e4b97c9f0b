"""Wirtinger gradients of the error criteria, their identities, and the
finite-difference cross-checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryfit import SampleSet, sample_builtin
from baryfit.aaa import levy_weights
from baryfit.core import NumericalError
from baryfit.gradients import (
    _REL_STEP,
    denominator_variation,
    error_levy,
    error_nonlinear,
    error_sk_step,
    error_wf_step,
    finite_difference_gradient,
    grad_levy,
    grad_levy_rearranged,
    grad_nonlinear,
    grad_sk_fixed_point,
    grad_sk_step,
    grad_wf_step,
)
from baryfit.linalg import assemble_levy_system
from helpers import (
    count_assemblies,
    nonzero_complex,
    random_instance,
    transfer_samples,
    unit_grid,
)


def _system_for(supports, interp, data):
    return assemble_levy_system(
        data.active_points(), data.active_values(), supports, interp
    )


def _rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def test_single_support_gradient_vanishes():
    rng = np.random.default_rng(101)
    supports, interp, data = random_instance(rng, 1, 8)
    g = grad_nonlinear(supports, interp, data, np.array([2.0 - 1j]))
    assert np.linalg.norm(g) < 1e-12


def test_exact_fit_has_zero_gradient():
    x = unit_grid(21)
    H = 1.0 / (x + 2.0)
    mask = np.ones(21, dtype=bool)
    mask[[0, 10]] = False
    data = SampleSet(x, H, mask)
    supports, interp = x[[0, 10]], H[[0, 10]]
    w = levy_weights(data.levy_system(supports, interp))
    for g in (
        grad_nonlinear(supports, interp, data, w),
        grad_levy(supports, interp, data, w),
        grad_sk_step(supports, interp, data, w, w),
        grad_wf_step(supports, interp, data, w, w),
    ):
        assert np.linalg.norm(g) < 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(103)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        m = int(rng.integers(k + 1, 41))
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
            assert _rel(analytic, approx) < 1e-5


def test_nonlinear_gradient_single_instance_tight_tolerance():
    rng = np.random.default_rng(107)
    supports, interp, data = random_instance(rng, 2, 12)
    w = nonzero_complex(rng, 2)
    analytic = grad_nonlinear(supports, interp, data, w)
    approx = finite_difference_gradient(
        lambda v: error_nonlinear(supports, interp, data, v), w
    )
    assert _rel(analytic, approx) < 1e-6


def test_projected_levy_gradient_vanishes_at_the_svd_minimizer():
    rng = np.random.default_rng(109)
    supports, interp, data = random_instance(rng, 4, 20)
    w = levy_weights(data.levy_system(supports, interp))
    g = grad_levy(supports, interp, data, w)
    ascent = 2.0 * np.conj(g)  # steepest ascent in the real geometry
    projected = ascent - np.real(np.vdot(w, ascent)) * w
    assert np.linalg.norm(projected) <= 1e-8 * (1.0 + np.linalg.norm(ascent))


def test_sk_step_gradient_reduces_to_levy_for_unit_denominator():
    rng = np.random.default_rng(113)
    # square Cauchy system lets us hit d(z_i; w_prev) = 1 exactly
    supports, interp, data = random_instance(rng, 3, 3)
    system = _system_for(supports, interp, data)
    w_prev = np.linalg.solve(system.cauchy, np.ones(3, dtype=complex))
    w = nonzero_complex(rng, 3)
    g_sk = grad_sk_step(supports, interp, data, w, w_prev)
    g_levy = grad_levy(supports, interp, data, w)
    assert _rel(g_sk, g_levy) < 1e-12


def test_sk_fixed_point_form_matches_step_form():
    rng = np.random.default_rng(127)
    supports, interp, data = random_instance(rng, 4, 15)
    w = nonzero_complex(rng, 4)
    assert _rel(
        grad_sk_step(supports, interp, data, w, w),
        grad_sk_fixed_point(supports, interp, data, w),
    ) < 1e-12


def test_wf_step_gradient_at_fixed_point_is_the_true_gradient():
    rng = np.random.default_rng(131)
    for _ in range(5):
        k = int(rng.integers(2, 6))
        supports, interp, data = random_instance(rng, k, 3 * k)
        w = nonzero_complex(rng, k)
        g_wf = grad_wf_step(supports, interp, data, w, w)
        g_true = grad_nonlinear(supports, interp, data, w)
        assert _rel(g_wf, g_true) < 1e-13


def test_levy_rearranged_form_matches():
    rng = np.random.default_rng(137)
    supports, interp, data = random_instance(rng, 3, 14)
    w = nonzero_complex(rng, 3)
    assert _rel(
        grad_levy_rearranged(supports, interp, data, w),
        grad_levy(supports, interp, data, w),
    ) < 1e-12


def _conjugate_wirtinger(system, w, w_prev, which):
    """Independent dE/d(conj w), from differentiating the conjugated factor of
    each criterion; plain python loops on purpose."""
    C = system.cauchy
    P = C * system.interp_values[None, :]
    H = system.data_values
    n = P @ w
    d = C @ w
    rows, k = C.shape
    out = np.zeros(k, dtype=complex)
    if which == "nonlinear":
        r = n / d
        for j in range(k):
            for i in range(rows):
                out[j] += (r[i] - H[i]) * np.conj((P[i, j] - r[i] * C[i, j]) / d[i])
    elif which == "levy":
        rho = n - d * H
        for j in range(k):
            for i in range(rows):
                out[j] += rho[i] * np.conj(P[i, j] - H[i] * C[i, j])
    elif which == "sk":
        dp = np.abs(C @ w_prev) ** 2
        rho = n - d * H
        for j in range(k):
            for i in range(rows):
                out[j] += rho[i] * np.conj(P[i, j] - H[i] * C[i, j]) / dp[i]
    elif which == "wf":
        d_prev = C @ w_prev
        n_prev = P @ w_prev
        r_prev = n_prev / d_prev
        rho = n - r_prev * d + n_prev - d_prev * H
        for j in range(k):
            for i in range(rows):
                out[j] += (
                    rho[i]
                    * np.conj(P[i, j] - r_prev[i] * C[i, j])
                    / np.abs(d_prev[i]) ** 2
                )
    return out


def test_conjugate_derivative_is_the_entrywise_conjugate():
    rng = np.random.default_rng(139)
    supports, interp, data = random_instance(rng, 3, 11)
    system = _system_for(supports, interp, data)
    w = nonzero_complex(rng, 3)
    w_prev = nonzero_complex(rng, 3)
    pairs = [
        (grad_nonlinear(supports, interp, data, w), "nonlinear", w),
        (grad_levy(supports, interp, data, w), "levy", w),
        (grad_sk_step(supports, interp, data, w, w_prev), "sk", w_prev),
        (grad_wf_step(supports, interp, data, w, w_prev), "wf", w_prev),
    ]
    for analytic, which, prev in pairs:
        conj_side = _conjugate_wirtinger(system, w, prev, which)
        assert _rel(conj_side, np.conj(analytic)) < 1e-13


def test_levy_equals_denominator_square_times_sk_when_magnitude_constant():
    # single support with probes on the unit circle keeps |d| constant
    rng = np.random.default_rng(149)
    theta = rng.uniform(0.0, 2.0 * np.pi, 5)
    data = SampleSet(np.exp(1j * theta), nonzero_complex(rng, 5))
    supports = np.array([0.0 + 0j])
    interp = np.array([1.5 - 0.5j])
    w = np.array([2.0 - 1.0j])
    system = _system_for(supports, interp, data)
    dsq = np.abs(system.denominators(w)) ** 2
    assert np.ptp(dsq) < 1e-14 * dsq.max()  # the configuration really is constant
    g_levy = grad_levy(supports, interp, data, w)
    g_sk = grad_sk_step(supports, interp, data, w, w)
    assert _rel(dsq.mean() * g_sk, g_levy) < 1e-12
    # the proportionality factor is |d|^2 alone; an extra factor M breaks it
    M = data.size
    assert _rel(M * dsq.mean() * g_sk, g_levy) > 0.5


def test_gradient_reports_vanishing_denominator():
    data = SampleSet([0.0, 2.0], [1.0, 1.0])
    supports = np.array([1.0, -1.0], dtype=complex)
    interp = np.array([1.0, 1.0], dtype=complex)
    w = np.array([1.0, 1.0], dtype=complex)  # d(0) = 0 exactly
    with pytest.raises(NumericalError):
        grad_nonlinear(supports, interp, data, w)
    with pytest.raises(NumericalError):
        grad_wf_step(supports, interp, data, np.array([1.0, 2.0 + 0j]), w)


def test_denominator_variation_hand_ratio():
    ratio = denominator_variation(np.array([0.0 + 0j]), np.array([2.0 + 0j]), [2.0, 3.0])
    assert_allclose(ratio, 1.5, rtol=1e-14)


def test_denominator_variation_single_probe_is_one():
    assert denominator_variation(np.array([0.0 + 0j]), np.array([5.0 + 0j]), [2.0]) == 1.0


def test_denominator_variation_pole_probe_is_inf():
    ratio = denominator_variation(
        np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0], dtype=complex), [0.0, 3.0]
    )
    assert ratio == np.inf


def test_denominator_variation_rejects_probe_on_support():
    with pytest.raises(ValueError):
        denominator_variation(np.array([1.0 + 0j]), np.array([1.0 + 0j]), [1.0])


def test_finite_difference_gradient_on_known_quadratic():
    # E(w) = |w_0|^2 + 2|w_1|^2 has dE/dw = conj((w_0, 2 w_1))
    def energy(W):
        return np.abs(W[0]) ** 2 + 2.0 * np.abs(W[1]) ** 2

    w = np.array([1.0 + 2.0j, -0.5 + 0.25j])
    approx = finite_difference_gradient(energy, w)
    assert_allclose(approx, np.conj(w) * np.array([1.0, 2.0]), rtol=1e-9)


def _all_criteria(supports, interp, data, w, w_prev):
    """Every grad_* and error_* at (w, w_prev), in a fixed order."""
    return [
        grad_nonlinear(supports, interp, data, w),
        grad_levy(supports, interp, data, w),
        grad_levy_rearranged(supports, interp, data, w),
        grad_sk_step(supports, interp, data, w, w_prev),
        grad_sk_fixed_point(supports, interp, data, w),
        grad_wf_step(supports, interp, data, w, w_prev),
        error_nonlinear(supports, interp, data, w),
        error_levy(supports, interp, data, w),
        error_sk_step(supports, interp, data, w, w_prev),
        error_wf_step(supports, interp, data, w, w_prev),
    ]


def test_cached_system_gives_the_values_of_a_fresh_assembly(monkeypatch):
    rng = np.random.default_rng(409)
    supports, interp, data = random_instance(rng, 5, 30)
    w, w_prev = nonzero_complex(rng, 5), nonzero_complex(rng, 5)
    with monkeypatch.context() as m:
        m.setattr(SampleSet, "levy_system", lambda self, lam, h: assemble_levy_system(
            self.active_points(), self.active_values(), lam, h))
        fresh = _all_criteria(supports, interp, data, w, w_prev)
    calls = count_assemblies(monkeypatch)
    for _ in range(2):
        cached = _all_criteria(supports, interp, data, w, w_prev)
        assert [np.asarray(v).tobytes() for v in cached] == [
            np.asarray(v).tobytes() for v in fresh]
    assert len(calls) == 1


def test_full_gradient_check_assembles_one_system(monkeypatch):
    """All six gradients against central differences of their criteria,
    plus the WF identity, on one instance: one assembly, where rebuilding
    per call would take 8 + 24k."""
    rng = np.random.default_rng(419)
    k = 6
    supports, interp, data = random_instance(rng, k, 40)
    w, w_prev = nonzero_complex(rng, k), nonzero_complex(rng, k)
    calls = count_assemblies(monkeypatch)
    pairs = [
        (grad_nonlinear(supports, interp, data, w),
         lambda v: error_nonlinear(supports, interp, data, v)),
        (grad_levy(supports, interp, data, w),
         lambda v: error_levy(supports, interp, data, v)),
        (grad_levy_rearranged(supports, interp, data, w),
         lambda v: error_levy(supports, interp, data, v)),
        (grad_sk_step(supports, interp, data, w, w_prev),
         lambda v: error_sk_step(supports, interp, data, v, w_prev)),
        (grad_sk_fixed_point(supports, interp, data, w),
         lambda v: error_sk_step(supports, interp, data, v, w)),
        (grad_wf_step(supports, interp, data, w, w_prev),
         lambda v: error_wf_step(supports, interp, data, v, w_prev)),
    ]
    for analytic, error_fn in pairs:
        assert _rel(analytic, finite_difference_gradient(error_fn, w)) < 1e-5
    assert _rel(grad_wf_step(supports, interp, data, w, w),
                grad_nonlinear(supports, interp, data, w)) < 1e-12
    assert len(calls) == 1


def _support_instance(data, idx):
    """Supports at the sample indices idx, their values, and the rest of
    the samples as the active set."""
    mask = np.ones(data.size, dtype=bool)
    mask[idx] = False
    return data.points[idx], data.values[idx], SampleSet(data.points, data.values, mask)


def _criteria(supports, interp, data, w_prev):
    return {
        "nonlinear": lambda v: error_nonlinear(supports, interp, data, v),
        "levy": lambda v: error_levy(supports, interp, data, v),
        "sk_step": lambda v: error_sk_step(supports, interp, data, v, w_prev),
        "wf_step": lambda v: error_wf_step(supports, interp, data, v, w_prev),
    }


@pytest.mark.parametrize("source", ["real", "conjugate_pairs"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_criteria_of_a_stack_are_the_criteria_of_its_columns(source, k):
    # m == k is the square stack: there a product or weighting that
    # broadcasts along the weight index instead of the sample index runs
    # without error and gives wrong numbers
    rng = np.random.default_rng(421 + k)
    if source == "real":
        data = sample_builtin("relu", 41)
    else:
        data = transfer_samples(rng, 3, 20)
    supports, interp, work = _support_instance(
        data, rng.choice(data.size, size=k, replace=False))
    w_prev = nonzero_complex(rng, k)
    for name, error_fn in _criteria(supports, interp, work, w_prev).items():
        for m in (k, k + 3):
            W = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
            got = error_fn(W)
            assert got.shape == (m,), name
            want = [error_fn(W[:, j]) for j in range(m)]
            assert all(type(v) is float for v in want), name
            assert_allclose(got, want, rtol=1e-12, err_msg=name)


def test_nonlinear_error_of_a_stack_reads_inf_where_a_pole_hits():
    rng = np.random.default_rng(431)
    supports, interp, data = random_instance(rng, 3, 12)
    w = nonzero_complex(rng, 3)
    # w = 0 gives n = d = 0 at every sample, a nan sum
    W = np.stack([w, np.zeros(3, dtype=complex)], axis=1)
    got = error_nonlinear(supports, interp, data, W)
    assert got[1] == np.inf
    system = data.levy_system(supports, interp)
    assert got[0] == pytest.approx(system.residual_sq_sum(w), rel=1e-12)
    assert error_nonlinear(supports, interp, data, w) == system.residual_sq_sum(w)


def test_finite_difference_gradient_makes_one_call_on_the_perturbed_columns():
    rng = np.random.default_rng(433)
    w = nonzero_complex(rng, 4)
    calls = []

    def recording(W):
        calls.append(W.copy())
        return np.sum(np.abs(W) ** 2, axis=0)

    approx = finite_difference_gradient(recording, w)
    assert len(calls) == 1
    want = []
    for perturb in (lambda s: w + s, lambda s: w - s,
                    lambda s: w + 1j * s, lambda s: w - 1j * s):
        for j in range(w.size):
            step = np.zeros(w.size, dtype=complex)
            step[j] = _REL_STEP * (1.0 + abs(w[j]))
            want.append(perturb(step))
    assert calls[0].shape == (4, 16)
    assert np.stack(want, axis=1).tobytes() == calls[0].tobytes()
    assert_allclose(approx, np.conj(w), rtol=1e-9)
