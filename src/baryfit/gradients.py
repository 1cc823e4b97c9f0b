"""Wirtinger derivatives of the four error criteria, and diagnostics.

Every criterion here is a real-valued function of the complex weight vector,
so its stationary points are where the Wirtinger derivative dE/dw vanishes
(the conjugate derivative is just the conjugate). Every gradient has the
form sum_i c_i (P - diag(a) C)[i, :] over the LevySystem's Cauchy matrix C,
with P = C diag(h), and `_gradient` computes it: the criteria differ only in
a (H for Levy and SK, r(w) for the true error, r(w_prev) for the WF step)
and in c (the conjugated residual times the row weighting). The step
criteria for SK and WF take the reweighting denominators from a separate
w_prev; at w = w_prev the WF step gradient reduces exactly to the gradient
of the true nonlinear error, which is the identity that certifies WF fixed
points as stationary points. Each function takes its system from
``data.levy_system``, so the gradients and the many error evaluations of a
finite-difference check on one sample set and support set share one
assembly. These functions are diagnostic and test infrastructure; the
fitting algorithms never consume them.
"""

import numpy as np

from .core import NumericalError
from .linalg import build_cauchy

__all__ = [
    "grad_nonlinear",
    "grad_levy",
    "grad_levy_rearranged",
    "grad_sk_step",
    "grad_sk_fixed_point",
    "grad_wf_step",
    "error_nonlinear",
    "error_levy",
    "error_sk_step",
    "error_wf_step",
    "finite_difference_gradient",
    "denominator_variation",
]

_REL_STEP = 1e-6  # relative step of finite_difference_gradient


def _nonzero_denominators(system, w):
    d = system.denominators(w)
    bad = np.nonzero(d == 0)[0]
    if bad.size:
        raise NumericalError(
            "denominator vanishes at sample z = %s" % system.active_points[bad[0]]
        )
    return d


def _gradient(system, a, c):
    """sum_i c_i (P - diag(a) C)[i, :], the form of every gradient here."""
    return (system.shifted_numerator_matrix(a) * c[:, None]).sum(axis=0)


def _rationals(system, w):
    """(r, d) at the active samples; d must not vanish."""
    d = _nonzero_denominators(system, w)
    return system.numerators(w) / d, d


def _levy_residual(system, w):
    """n - d H at the active samples."""
    return system.numerators(w) - system.denominators(w) * system.data_values


def _wf_residual(system, w, w_prev):
    """(n - r_prev d + n_prev - d_prev H, r_prev, d_prev) of the WF step
    linearized at w_prev."""
    d_prev = _nonzero_denominators(system, w_prev)
    n_prev = system.numerators(w_prev)
    r_prev = n_prev / d_prev
    resid = (
        system.numerators(w)
        - r_prev * system.denominators(w)
        + n_prev
        - d_prev * system.data_values
    )
    return resid, r_prev, d_prev


def grad_nonlinear(supports, interp_values, data, w):
    """dE/dw of E = sum |r(z_i; w) - H(z_i)|^2 over the active samples:
    sum_i (1/d)(p - r q) conj(r - H)."""
    system = data.levy_system(supports, interp_values)
    r, d = _rationals(system, w)
    return _gradient(system, r, np.conj(r - system.data_values) / d)


def grad_levy(supports, interp_values, data, w):
    """dE/dw of the Levy criterion sum |n - d H|^2:
    sum_i (p - H q) conj(n - d H)."""
    system = data.levy_system(supports, interp_values)
    return _gradient(system, system.data_values, np.conj(_levy_residual(system, w)))


def grad_levy_rearranged(supports, interp_values, data, w):
    """The same Levy gradient written with |d|^2 pulled out of the residual:
    sum_i |d|^2 (1/d)(p - H q) conj(r - H). Needs d != 0 at every sample."""
    system = data.levy_system(supports, interp_values)
    r, d = _rationals(system, w)
    H = system.data_values
    return _gradient(system, H, np.abs(d) ** 2 * np.conj(r - H) / d)


def grad_sk_step(supports, interp_values, data, w, w_prev):
    """dE/dw of one SK step (weighting frozen at w_prev):
    sum_i (1/|d_prev|^2)(p - H q) conj(n - H d)."""
    system = data.levy_system(supports, interp_values)
    d_prev = _nonzero_denominators(system, w_prev)
    coeff = np.conj(_levy_residual(system, w)) / np.abs(d_prev) ** 2
    return _gradient(system, system.data_values, coeff)


def grad_sk_fixed_point(supports, interp_values, data, w):
    """The SK gradient at its fixed point (w_prev = w), simplified through
    1/d: sum_i (1/d)(p - H q) conj(r - H)."""
    system = data.levy_system(supports, interp_values)
    r, d = _rationals(system, w)
    H = system.data_values
    return _gradient(system, H, np.conj(r - H) / d)


def grad_wf_step(supports, interp_values, data, w, w_prev):
    """dE/dw of one WF step (linearization point w_prev):
    sum_i (1/|d_prev|^2)(p - r_prev q) conj(n - r_prev d + n_prev - d_prev H).

    At w = w_prev this equals grad_nonlinear(w) up to rounding.
    """
    system = data.levy_system(supports, interp_values)
    resid, r_prev, d_prev = _wf_residual(system, w, w_prev)
    return _gradient(system, r_prev, np.conj(resid) / np.abs(d_prev) ** 2)


def error_nonlinear(supports, interp_values, data, w):
    system = data.levy_system(supports, interp_values)
    return system.residual_sq_sum(w)


def error_levy(supports, interp_values, data, w):
    system = data.levy_system(supports, interp_values)
    return float(np.sum(np.abs(_levy_residual(system, w)) ** 2))


def error_sk_step(supports, interp_values, data, w, w_prev):
    system = data.levy_system(supports, interp_values)
    d_prev = _nonzero_denominators(system, w_prev)
    res = _levy_residual(system, w)
    return float(np.sum(np.abs(res) ** 2 / np.abs(d_prev) ** 2))


def error_wf_step(supports, interp_values, data, w, w_prev):
    system = data.levy_system(supports, interp_values)
    resid, _, d_prev = _wf_residual(system, w, w_prev)
    return float(np.sum(np.abs(resid) ** 2 / np.abs(d_prev) ** 2))


def finite_difference_gradient(error_fn, w):
    """Central-difference Wirtinger gradient of a real scalar error.

    Differences the real and imaginary parts separately with step
    h_j = _REL_STEP*(1 + |w_j|) and maps back through
    dE/dw_j = (dE/dx_j - i dE/dy_j)/2.
    """
    w = np.asarray(w, dtype=complex)
    grad = np.empty(w.size, dtype=complex)
    for j in range(w.size):
        h = _REL_STEP * (1.0 + abs(w[j]))
        step = np.zeros(w.size, dtype=complex)
        step[j] = h
        de_dx = (error_fn(w + step) - error_fn(w - step)) / (2.0 * h)
        de_dy = (error_fn(w + 1j * step) - error_fn(w - 1j * step)) / (2.0 * h)
        grad[j] = 0.5 * (de_dx - 1j * de_dy)
    return grad


def denominator_variation(supports, w, probe_points):
    """max |d| / min |d| over the probe points (inf if d vanishes somewhere).

    The spread of the barycentric denominator over the data grid is the
    conditioning diagnostic separating the benign Levy fits from the ones
    that stall: a huge ratio means the Levy weighting distorts the
    least-squares problem by that factor.
    """
    C = build_cauchy(probe_points, supports)
    mags = np.abs(C @ np.asarray(w, dtype=complex))
    top = float(mags.max())
    bottom = float(mags.min())
    if bottom == 0.0:
        return np.inf
    return top / bottom
