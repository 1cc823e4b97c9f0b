"""Inner weight-refinement iterations: Sanathanan-Koerner and Whitfield.

Both work on the LevySystem of a fixed support set and reweight the
active-sample residuals by the previous iterate's denominator magnitudes.
SK repeats the homogeneous unit-norm solve; WF solves a Gauss-Newton-style
linearization of the rational map with the pivot weight pinned to 1, on
the system's ``shifted_numerator_matrix``, the matrix that the gradients
contract with. Neither iteration is guaranteed to converge monotonically,
so both record the raw active squared error of every iterate and return
the best one.

:func:`refit` is the refinement of one fixed support set that NL-AAA takes
at every greedy step: SK, one WF step from a start, and the WF run from the
better of the two. Iterate in, best Iterate out: it evaluates each weight
vector on the system once, into the ``linalg.Iterate`` that gives its
error, the next step and, for the best one, its residuals, and it knows
nothing of the full data set, which NL-AAA's acceptance test scores. SK's
best iterate is the start of its WF run, and the run from the start
continues from the one-step WF that the comparison took. Each run holds one
``np.errstate`` around all of its iterates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, _check_integer
from .linalg import (
    IGNORE,
    Iterate,
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
    "refit",
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

    `best` is the iterate with the smallest recorded error, whose weights
    are `weights` (`errors` is the raw active squared error per iterate,
    and for WF entry 0 belongs to the initialization); `final_weights` is
    the last iterate computed, which is the one a convergence claim refers
    to.
    """

    best: Iterate
    errors: np.ndarray
    converged: bool
    best_index: int
    final_weights: np.ndarray

    @property
    def weights(self):
        return self.best.weights


def _result(iterates, converged):
    errors = np.asarray([it.err for it in iterates])
    best = int(np.argmin(errors))
    return RefineResult(iterates[best], errors, converged, best, iterates[-1].weights)


def _norm(x):
    """np.linalg.norm(x) of a complex vector, by the same operations."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _phase_aligned_diff(w, w_prev):
    """min over |c| = 1 of ||c*w - w_prev||, immune to SVD phase flips."""
    s = np.vdot(w, w_prev)
    c = s / abs(s) if s != 0 else 1.0
    return _norm(c * w - w_prev)


def sk_iterate(system, cfg):
    """Iteratively reweighted Levy solves (d^(0) = 1, so step one is Levy).

    Stops early when consecutive unit-norm weight vectors agree to tol_sk
    after phase alignment; always returns the best-error iterate.
    """
    L = levy_matrix(system)
    scaled = np.empty_like(L)  # L reweighted, in one buffer per run
    w_prev = np.zeros(system.interp_values.size, dtype=complex)
    dvals = np.ones(system.data_values.size, dtype=complex)
    iterates = []
    converged = False
    with np.errstate(**IGNORE):
        for _ in range(cfg.p_max):
            np.multiply(L, denominator_weighting(dvals)[:, None], out=scaled)
            w = min_unit_norm_solution(scaled)
            it = system.evaluate(w)
            iterates.append(it)
            dvals = it.d
            if _phase_aligned_diff(w, w_prev) < cfg.tol_sk:
                converged = True
                break
            w_prev = w
    return _result(iterates, converged)


def _choose_pivot(w0):
    mags = np.abs(np.asarray(w0))
    top = float(mags.max()) if mags.size else 0.0
    if top == 0.0:
        raise ValueError("all-zero weight vector: denominator identically zero")
    if mags[0] < 1e-12 * top:
        return int(np.argmax(mags))
    return 0


def nonzero_denominators(system, d):
    """The denominators d(z_i) at the system's samples, handed back; a
    NumericalError names the first sample where one vanishes exactly, which
    nothing can be divided by."""
    zero = np.nonzero(d == 0)[0]
    if zero.size:
        raise NumericalError(
            "denominator vanishes at sample z = %s" % system.active_points[zero[0]]
        )
    return d


def wf_step(system, w_prev, prev=None):
    """One linearized least-squares step from w_prev, one weight pinned to 1.

    The coefficient matrix has entries h_j/(z_i - lambda_j) -
    r(z_i; w_prev)/(z_i - lambda_j), the right-hand side is
    -n(z_i; w_prev) + d(z_i; w_prev) H(z_i), and rows are weighted by
    1/|d(z_i; w_prev)|. The pinned weight is entry 0, or the largest entry
    of w_prev when entry 0 is negligible. Where d(z_i; w_prev) vanishes
    there is no step: `nonzero_denominators` raises NumericalError. `prev`,
    the Iterate of w_prev on the system, saves evaluating w_prev again.
    """
    w_prev = np.asarray(w_prev, dtype=complex)
    pivot = _choose_pivot(w_prev)
    if prev is None:
        with np.errstate(**IGNORE):
            prev = system.evaluate(w_prev)
    return _linearized_step(system, prev.n, nonzero_denominators(system, prev.d), pivot)


def _linearized_step(system, n_prev, d_prev, pivot):
    """:func:`wf_step` from n(z_i; w_prev) and d(z_i; w_prev), d nonzero.

    Its one matrix is the system's ``shifted_numerator_matrix(n/d)``, P -
    diag(n/d) C, the matrix every criterion gradient contracts with; the
    right-hand side is d H - n, the bits of -n + d H. The solve scales both
    in place."""
    F = system.shifted_numerator_matrix(n_prev / d_prev)
    b = d_prev * system.data_values
    b -= n_prev  # x - y is x + (-y), bit for bit
    return pivoted_weighted_lsq(denominator_weighting(d_prev), F, b, pivot)


def wf_iterate(system, w0, cfg, done=()):
    """Repeated WF steps from w0; error of w0 itself is recorded as entry 0.

    The pivot is chosen once from w0 (index 0 unless that entry is
    negligible) and the convergence test compares consecutive iterates after
    renormalizing both to pivot value 1. An iterate with infinite active
    error (its denominator vanishes at an active sample, or the residual
    overflows) ends the iteration: there is nothing to linearize around, and
    the best earlier iterate is returned, unconverged.

    `done` holds iterates of this run that the caller evaluated already:
    the Iterate of w0, optionally followed by that of ``wf_step(system,
    w0)``. The run continues from them with the same bits as from w0.
    """
    w0 = np.asarray(w0, dtype=complex)
    pivot = _choose_pivot(w0)
    converged = False
    with np.errstate(**IGNORE):
        iterates = [done[0] if done else system.evaluate(w0)]
        u_prev = None  # the last iterate over its pivot entry, once needed
        while len(iterates) <= cfg.p_max and math.isfinite(iterates[-1].err):
            last = iterates[-1]
            if len(iterates) < len(done):
                it = done[len(iterates)]
            else:
                it = system.evaluate(_linearized_step(system, last.n, last.d, pivot))
            iterates.append(it)
            # not on an iterate of infinite error: it may hold inf entries,
            # and the loop ends there; w[pivot] != 0 (_choose_pivot, WF pins
            # it), and an overflow reads as unconverged
            if math.isfinite(it.err):
                if u_prev is None:
                    u_prev = last.weights / last.weights[pivot]
                u = it.weights / it.weights[pivot]
                if _norm(u - u_prev) < cfg.tol_wf:
                    converged = True
                    break
                u_prev = u
    return _result(iterates, converged)


def refit(system, start, cfg):
    """Refine the weights of the supports of `system` from `start`, the
    ``linalg.Iterate`` of the start weights on it; returns (best, branch),
    `best` the Iterate of the WF run's best weights.

    Runs SK, takes one WF step from the start, and runs WF from the better
    of the two by raw active squared error: from SK's best iterate (branch
    "wf-from-sk") or, on a tie or when SK is worse, from the start
    ("wf-from-prev"), continuing from that step. A start whose denominator
    vanishes at an active sample has no step, and error inf. A run that
    keeps its start returns `start` itself. Acceptance is the caller's.
    """
    sk = sk_iterate(system, cfg)
    try:
        with np.errstate(**IGNORE):
            done = (start, system.evaluate(wf_step(system, start.weights, start)))
    except NumericalError:  # d(z_i; start) = 0 at an active sample
        done = (start,)
    if sk.best.err < (done[1].err if len(done) == 2 else np.inf):
        return wf_iterate(system, sk.weights, cfg, (sk.best,)).best, "wf-from-sk"
    return wf_iterate(system, start.weights, cfg, done).best, "wf-from-prev"
