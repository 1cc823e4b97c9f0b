"""Inner weight-refinement iterations: Sanathanan-Koerner and Whitfield.

Both work on the LevySystem of a fixed support set and reweight the
active-sample residuals by the previous iterate's denominator magnitudes.
SK repeats the homogeneous unit-norm solve; WF solves a Gauss-Newton-style
linearization of the rational map with the pivot weight pinned to 1.
Neither iteration is guaranteed to converge monotonically, so both record
the raw active squared error of every iterate and return the best one.
Each iterate's error and the next step share one evaluation of n and d.
A WF run has one entry point, :func:`wf_iterate`.
"""

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, _check_integer
from .linalg import (
    denominator_weighting,
    levy_matrix,
    min_unit_norm_solution,
    pivoted_weighted_lsq,
)

__all__ = [
    "RefineConfig",
    "RefineResult",
    "sk_iterate",
    "wf_step",
    "wf_iterate",
]


@dataclass(frozen=True)
class RefineConfig:
    p_max: int = 20
    tol_sk: float = 1e-8
    tol_wf: float = 1e-8

    def __post_init__(self):
        _check_integer(self.p_max, "p_max", 1)
        if not (self.tol_sk >= 0 and self.tol_wf >= 0):
            raise ValueError("tolerances must be >= 0")


@dataclass
class RefineResult:
    """Outcome of an inner iteration.

    `weights` is the iterate with the smallest recorded error (`errors` is the
    raw active squared error per iterate, and for WF entry 0 belongs to the
    initialization); `final_weights` is the last iterate computed, which is the
    one a convergence claim refers to.
    """

    weights: np.ndarray
    errors: np.ndarray
    converged: bool
    best_index: int
    final_weights: np.ndarray


def _phase_aligned_diff(w, w_prev):
    """min over |c| = 1 of ||c*w - w_prev||, immune to SVD phase flips."""
    s = np.vdot(w, w_prev)
    c = s / abs(s) if s != 0 else 1.0
    return float(np.linalg.norm(c * w - w_prev))


def sk_iterate(system, cfg):
    """Iteratively reweighted Levy solves (d^(0) = 1, so step one is Levy).

    Stops early when consecutive unit-norm weight vectors agree to tol_sk
    after phase alignment; always returns the best-error iterate.
    """
    L = levy_matrix(system)
    w_prev = np.zeros(system.interp_values.size, dtype=complex)
    dvals = np.ones(system.data_values.size, dtype=complex)
    iterates = []
    errors = []
    converged = False
    for _ in range(cfg.p_max):
        w = min_unit_norm_solution(L * denominator_weighting(dvals)[:, None])
        _, dvals, err = system.evaluate(w)
        iterates.append(w)
        errors.append(err)
        if _phase_aligned_diff(w, w_prev) < cfg.tol_sk:
            converged = True
            break
        w_prev = w
    best = int(np.argmin(errors))
    return RefineResult(iterates[best], np.asarray(errors), converged, best, iterates[-1])


def _choose_pivot(w0):
    mags = np.abs(np.asarray(w0))
    top = float(mags.max()) if mags.size else 0.0
    if top == 0.0:
        raise ValueError("all-zero weight vector: denominator identically zero")
    if mags[0] < 1e-12 * top:
        return int(np.argmax(mags))
    return 0


def nonzero_denominators(system, w):
    """d(z_i; w) at the system's samples; NumericalError naming the first
    sample where it vanishes exactly, which nothing can be divided by."""
    d = system.denominators(w)
    zero = np.nonzero(d == 0)[0]
    if zero.size:
        raise NumericalError(
            "denominator vanishes at sample z = %s" % system.active_points[zero[0]]
        )
    return d


def wf_step(system, w_prev):
    """One linearized least-squares step from w_prev, one weight pinned to 1.

    The coefficient matrix has entries h_j/(z_i - lambda_j) -
    r(z_i; w_prev)/(z_i - lambda_j), the right-hand side is
    -n(z_i; w_prev) + d(z_i; w_prev) H(z_i), and rows are weighted by
    1/|d(z_i; w_prev)|. The pinned weight is entry 0, or the largest entry
    of w_prev when entry 0 is negligible. Where d(z_i; w_prev) vanishes
    there is no step: `nonzero_denominators` raises NumericalError.
    """
    w_prev = np.asarray(w_prev, dtype=complex)
    pivot = _choose_pivot(w_prev)
    d_prev = nonzero_denominators(system, w_prev)
    return _linearized_step(system, system.numerators(w_prev), d_prev, pivot)


def _linearized_step(system, n_prev, d_prev, pivot):
    """:func:`wf_step` from n(z_i; w_prev) and d(z_i; w_prev), d nonzero."""
    F = system.shifted_numerator_matrix(n_prev / d_prev)
    b = -n_prev + d_prev * system.data_values
    return pivoted_weighted_lsq(denominator_weighting(d_prev), F, b, pivot)


def _pivot_normalized_diff(w, w_prev, pivot):
    # w[pivot] != 0 (_choose_pivot, WF pins it); an overflow reads as unconverged
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(w / w[pivot] - w_prev / w_prev[pivot]))


def wf_iterate(system, w0, cfg):
    """Repeated WF steps from w0; error of w0 itself is recorded as entry 0.

    The pivot is chosen once from w0 (index 0 unless that entry is
    negligible) and the convergence test compares consecutive iterates after
    renormalizing both to pivot value 1. An iterate with infinite active
    error (its denominator vanishes at an active sample, or the residual
    overflows) ends the iteration: there is nothing to linearize around, and
    the best earlier iterate is returned, unconverged.
    """
    w0 = np.asarray(w0, dtype=complex)
    pivot = _choose_pivot(w0)
    n, d, err = system.evaluate(w0)
    iterates, errors = [w0], [err]
    converged = False
    while len(iterates) <= cfg.p_max and np.isfinite(errors[-1]):
        w = _linearized_step(system, n, d, pivot)
        n, d, err = system.evaluate(w)
        iterates.append(w)
        errors.append(err)
        # not on an iterate of infinite error: it may hold inf entries, and the loop ends there
        if np.isfinite(err) and _pivot_normalized_diff(w, iterates[-2], pivot) < cfg.tol_wf:
            converged = True
            break
    best = int(np.argmin(errors))
    return RefineResult(iterates[best], np.asarray(errors), converged, best, iterates[-1])
