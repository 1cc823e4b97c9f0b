"""Wirtinger derivatives of the four error criteria, and diagnostics.

Every criterion here is a real-valued function of the complex weight vector,
so its stationary points are where the Wirtinger derivative dE/dw vanishes
(the conjugate derivative is just the conjugate). Every gradient has the
form sum_i c_i (P - diag(a) C)[i, :] over the LevySystem's Cauchy matrix C,
with P = C diag(h), and `_gradient` computes it: the criteria differ only in
a (H for Levy and SK, r(w) for the true error, r(w_prev) for the WF step)
and in c (the conjugated residual times the row weighting). The three
linearized criteria share one form too, sum_i c_i |n_i(w) - a_i d_i(w) +
b_i|^2 with the row weighting c (1 for Levy, 1/|d(w_prev)|^2 for SK and
WF) and an offset b (nonzero for WF only), and their gradients are
`_gradient` with c_i conj(n_i - a_i d_i + b_i). The step criteria for SK
and WF take the reweighting denominators from a separate w_prev; at
w = w_prev the WF step gradient reduces exactly to the gradient of the true
nonlinear error, which is the identity that certifies WF fixed points as
stationary points.

Each ``error_*`` takes one weight vector, returning a float, or a (k, m)
stack of weight columns, returning their m errors from the stack-shaped
``LevySystem.numerators`` and ``denominators``, so the finite-difference
check makes one criterion call per gradient, not 4k. Each function takes
its system from ``data.levy_system``, so the gradients and the error
evaluations of a check on one sample set and support set share one
assembly. These functions are diagnostic and test infrastructure; the
fitting algorithms never consume them.
"""

import numpy as np

from .linalg import IGNORE, build_cauchy
from .refine import nonzero_denominators

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


def _gradient(system, a, c):
    """sum_i c_i (P - diag(a) C)[i, :], the form of every gradient here."""
    return (system.shifted_numerator_matrix(a) * c[:, None]).sum(axis=0)


def _per_column(total):
    """A float for one weight vector, the array of m errors for a stack."""
    return float(total) if np.ndim(total) == 0 else total


def _rationals(system, w):
    """(r, d) at the active samples; d must not vanish."""
    d = nonzero_denominators(system, system.denominators(w))
    return system.numerators(w) / d, d


def _linearized_residual(system, W, a, b):
    """n(w) - a d(w) + b at the active samples."""
    return system.numerators(W) - a * system.denominators(W) + b


def _levy_terms(system, w_prev=None):
    """(a, b, c) of the Levy criterion sum_i c_i |n_i - a_i d_i + b_i|^2,
    or of the SK step with its weighting c = 1/|d_prev|^2 frozen at w_prev."""
    if w_prev is None:
        return system.data_values, 0.0, 1.0
    d_prev = nonzero_denominators(system, system.denominators(w_prev))
    return system.data_values, 0.0, 1.0 / np.abs(d_prev) ** 2


def _wf_terms(system, w_prev):
    """(a, b, c) of the WF step linearized at w_prev: r_prev, n_prev - d_prev H
    and 1/|d_prev|^2."""
    d_prev = nonzero_denominators(system, system.denominators(w_prev))
    n_prev = system.numerators(w_prev)
    b = n_prev - d_prev * system.data_values
    return n_prev / d_prev, b, 1.0 / np.abs(d_prev) ** 2


def _linearized_gradient(system, w, terms):
    """dE/dw of E = sum_i c_i |n_i(w) - a_i d_i(w) + b_i|^2:
    sum_i c_i (p - a q) conj(n - a d + b)."""
    a, b, c = terms
    return _gradient(system, a, c * np.conj(_linearized_residual(system, w, a, b)))


def _linearized_error(system, W, terms):
    """sum_i c_i |n_i(w) - a_i d_i(w) + b_i|^2 for w = W or for each column of
    a (k, m) stack W."""
    a, b, c = terms
    resid = _linearized_residual(system, W, a, b)
    return _per_column(np.sum(c * np.abs(resid) ** 2, axis=-1))


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
    return _linearized_gradient(system, w, _levy_terms(system))


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
    return _linearized_gradient(system, w, _levy_terms(system, w_prev))


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
    return _linearized_gradient(system, w, _wf_terms(system, w_prev))


def error_nonlinear(supports, interp_values, data, w):
    """sum |r(z_i; w) - H(z_i)|^2 over the active samples, inf where a pole
    hits one, for w or for each column of a (k, m) stack w."""
    system = data.levy_system(supports, interp_values)
    with np.errstate(**IGNORE):
        r = system.numerators(w) / system.denominators(w)
    total = np.sum(np.abs(r - system.data_values) ** 2, axis=-1)
    return _per_column(np.where(np.isnan(total), np.inf, total))


def error_levy(supports, interp_values, data, w):
    system = data.levy_system(supports, interp_values)
    return _linearized_error(system, w, _levy_terms(system))


def error_sk_step(supports, interp_values, data, w, w_prev):
    system = data.levy_system(supports, interp_values)
    return _linearized_error(system, w, _levy_terms(system, w_prev))


def error_wf_step(supports, interp_values, data, w, w_prev):
    system = data.levy_system(supports, interp_values)
    return _linearized_error(system, w, _wf_terms(system, w_prev))


def finite_difference_gradient(error_fn, w):
    """Central-difference Wirtinger gradient of a real error, from one call
    of error_fn.

    error_fn maps a (k, m) array of weight columns to their m errors; it
    gets the 4k columns w + h_j e_j, w - h_j e_j, w + i h_j e_j and
    w - i h_j e_j (j = 0..k-1, in that order) with step
    h_j = _REL_STEP*(1 + |w_j|). The real and imaginary parts are
    differenced separately and mapped back through
    dE/dw_j = (dE/dx_j - i dE/dy_j)/2.
    """
    w = np.asarray(w, dtype=complex)
    h = _REL_STEP * (1.0 + np.abs(w))
    steps = np.diag(h).astype(complex)
    base = w[:, None]
    columns = np.hstack(
        [base + steps, base - steps, base + 1j * steps, base - 1j * steps]
    )
    e = np.asarray(error_fn(columns), dtype=float).reshape(4, w.size)
    de_dx = (e[0] - e[1]) / (2.0 * h)
    de_dy = (e[2] - e[3]) / (2.0 * h)
    return 0.5 * (de_dx - 1j * de_dy)


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
