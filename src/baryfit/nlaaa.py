"""NL-AAA: greedy interpolation with nonlinear least-squares weight refinement.

Each step extends the support set greedily like AAA, then picks new weights by
comparing an SK run against a single WF step seeded with the previous weights
(extended by a zero for the new support), running the full WF iteration from
the better of the two, and keeping the previous model (zero weight on the new
support) whenever nothing beats it on the full data set. That last fallback
makes the reported full-data error provably non-increasing; the step after a
fallback swaps the greedy selection for a probabilistic or relative-error
variant so the same support choice cannot stall the iteration twice.
"""

from dataclasses import dataclass, field

import numpy as np

from .aaa import FitTrace, TraceRecord, active_residuals, greedy_select, initial_model
from .core import NumericalError, PoleAtPointError, RationalModel, SampleSet
from .data import metrics
from .linalg import assemble_levy_system
from .refine import RefineConfig, sk_iterate, wf_iterate, wf_step

__all__ = [
    "NlaaaConfig",
    "select_weights",
    "fallback_greedy",
    "nlaaa_fit",
]

FALLBACK_MODES = ("probabilistic", "relative")


@dataclass(frozen=True)
class NlaaaConfig:
    max_degree: int
    tol: float = 1e-12
    refine: RefineConfig = field(default_factory=RefineConfig)
    fallback_mode: str = "probabilistic"
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if self.fallback_mode not in FALLBACK_MODES:
            raise ValueError(
                "fallback_mode must be one of %s" % (FALLBACK_MODES,)
            )


def full_squared_error(supports, interp_values, weights, data):
    """Squared error of the candidate rational over all samples, supports
    included (a zero-weight support contributes its true residual); inf when
    the candidate has a pole on the grid."""
    try:
        model = RationalModel.barycentric(supports, interp_values, weights)
        r = model(data.points)
    except (PoleAtPointError, ValueError):
        return np.inf
    total = float(np.sum(np.abs(r - data.values) ** 2))
    return np.inf if np.isnan(total) else total


def select_weights(supports, interp_values, data, w_prev_ext, cfg, prev_err=None):
    """Pick the weight vector for one NL-AAA step.

    Runs SK, takes one WF step from w_prev_ext, compares their raw active
    squared errors, and runs the full WF iteration from the better
    initializer. The winning iterate must strictly improve the full-data
    squared error of w_prev_ext (the previous model); otherwise w_prev_ext is
    kept and the branch tag reports the fallback.

    `prev_err`, when given, is the recorded full-data error of the model
    w_prev_ext reproduces. The candidate must then beat both it and the
    re-evaluation of w_prev_ext: the two differ by summation-order noise
    (the zero extension changes the reduction tree, and near
    cancellation-heavy points that reordering moves the error by far more
    than an ulp), and an acceptance inside that noise window would either
    let the recorded error creep upward or disarm the anti-stagnation
    greedy without any real progress.
    """
    w_prev_ext = np.asarray(w_prev_ext, dtype=complex)
    system = assemble_levy_system(
        data.active_points(), data.active_values(), supports, interp_values
    )
    sk = sk_iterate(supports, interp_values, data, cfg.refine)
    err_sk = float(np.min(sk.errors))
    try:
        w1 = wf_step(supports, interp_values, data, w_prev_ext)
        err_w1 = system.residual_sq_sum(w1)
    except NumericalError:
        # d(z_i; w_prev_ext) = 0 at an active sample: nothing to step from
        err_w1 = np.inf
    if err_sk < err_w1:
        run = wf_iterate(supports, interp_values, data, sk.weights, cfg.refine)
        branch = "wf-from-sk"
    else:
        run = wf_iterate(supports, interp_values, data, w_prev_ext, cfg.refine)
        branch = "wf-from-prev"
    candidate_err = full_squared_error(supports, interp_values, run.weights, data)
    reference = full_squared_error(supports, interp_values, w_prev_ext, data)
    if prev_err is not None:
        reference = min(reference, prev_err)
    if candidate_err < reference:
        return run.weights, branch
    return w_prev_ext, "fallback"


def fallback_greedy(model, data, mode, rng):
    """Alternative support selection used on the step after a fallback.

    Probabilistic mode draws an active index with probability proportional to
    |r - H| (uniform when all residuals vanish); relative mode takes the
    argmax of |r - H|/|H| over active samples with H != 0.
    """
    idx, res = active_residuals(model, data)
    if idx.size == 0:
        raise ValueError("no active samples left to select from")
    if mode == "probabilistic":
        total = res.sum()
        if total == 0:
            probs = np.full(idx.size, 1.0 / idx.size)
        else:
            probs = res / total
        return int(rng.choice(idx, p=probs))
    if mode == "relative":
        mags = np.abs(data.values[idx])
        usable = mags > 0
        if not np.any(usable):
            raise NumericalError(
                "relative greedy selection undefined: H = 0 at every active sample"
            )
        ratios = res[usable] / mags[usable]
        return int(idx[usable][int(np.argmax(ratios))])
    raise ValueError("unknown fallback mode %r" % mode)


def nlaaa_fit(data, cfg):
    """Run NL-AAA on a sample set; returns (model, trace) like aaa_fit.

    The trace's branch column records which weight source won each step
    (levy for k = 1, then wf-from-sk / wf-from-prev / fallback), and its
    full-data normalized l2 column is non-increasing.
    """
    if data.size < 2:
        raise ValueError("NL-AAA needs at least two samples")
    work = SampleSet(data.points, data.values)
    model = initial_model(work)
    rng = np.random.default_rng(cfg.rng_seed)
    supports = np.empty(0, dtype=complex)
    interp_values = np.empty(0, dtype=complex)
    weights = None
    trace = FitTrace()
    use_fallback_greedy = False
    reached_tol = False
    full_err = None
    full_metrics = None
    for k in range(1, cfg.max_degree + 2):
        if work.active_count < 2:
            break
        if use_fallback_greedy:
            idx = fallback_greedy(model, work, cfg.fallback_mode, rng)
        else:
            idx = greedy_select(model, work)
        use_fallback_greedy = False
        supports = np.append(supports, work.points[idx])
        interp_values = np.append(interp_values, work.values[idx])
        work = work.deactivate(idx)
        if k == 1:
            weights = np.ones(1, dtype=complex)
            branch = "levy"
        else:
            w_prev_ext = np.append(weights, 0.0)
            weights, branch = select_weights(
                supports, interp_values, work, w_prev_ext, cfg, prev_err=full_err
            )
            if branch == "fallback":
                use_fallback_greedy = True
        model = RationalModel.barycentric(supports, interp_values, weights)
        system = assemble_levy_system(
            work.active_points(), work.active_values(), supports, interp_values
        )
        raw = system.residual_sq_sum(weights)
        if branch == "fallback":
            # the model is unchanged as a function, so its full-data metrics
            # are the ones already on record
            m = full_metrics
        else:
            m = metrics(model, data)
            full_err = full_squared_error(supports, interp_values, weights, work)
            full_metrics = m
        trace.records.append(
            TraceRecord(k, k - 1, complex(supports[-1]), raw, m.l2, m.linf, branch)
        )
        if raw < cfg.tol:
            reached_tol = True
            break
    trace.budget_exhausted = not reached_tol
    return model, trace
