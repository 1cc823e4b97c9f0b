"""NL-AAA: greedy interpolation with nonlinear least-squares weight refinement.

NL-AAA is the greedy loop of AAA (``aaa._greedy_fit``) with other weights:
on the step's LevySystem it compares an SK run against a single WF step
seeded with the previous weights (extended by a zero for the new support),
runs the full WF iteration from the better of the two, and keeps the
previous model (zero weight on the new support) whenever nothing beats it
on the full data set. A zero weight drops out of model evaluation, so the
zero-extended previous weights evaluate bit for bit as the previous model
and are the one reference of that test, which scores both weight vectors
by ``aaa._full_residuals``, the route every trace row, a fallback's too,
takes its metrics by. The fallback makes the reported full-data error
provably non-increasing; the step after a fallback ranks the loop's active
residuals |r - H| with a probabilistic or relative-error variant of the
greedy selection, so the same support choice cannot stall the iteration
twice.
"""

from dataclasses import dataclass, field

import numpy as np

from .aaa import FitConfig, _full_residuals, _greedy_fit, greedy_select
from .core import NumericalError
from .refine import RefineConfig, sk_iterate, wf_iterate, wf_step

__all__ = [
    "NlaaaConfig",
    "select_weights",
    "fallback_greedy",
    "nlaaa_fit",
]

FALLBACK_MODES = ("probabilistic", "relative")


@dataclass(frozen=True)
class NlaaaConfig(FitConfig):
    """The stopping controls of AAA plus the refinement and fallback settings."""

    refine: RefineConfig = field(default_factory=RefineConfig)
    fallback_mode: str = "probabilistic"
    rng_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.fallback_mode not in FALLBACK_MODES:
            raise ValueError(
                "fallback_mode must be one of %s" % (FALLBACK_MODES,)
            )


def full_squared_error(system, weights, data):
    """Squared error over all samples of `data`, the step's work set, whose
    interpolated samples are the system's supports (a zero-weight support
    contributes its true residual); inf at a pole on the grid or where h*w
    overflows: the sum of squares of ``aaa._full_residuals``' full
    residuals, the trace metrics' own; only NL-AAA's acceptance uses it.
    """
    total = float(np.sum(_full_residuals(system, data, weights)[2] ** 2))
    return np.inf if np.isnan(total) else total


def select_weights(system, data, w_prev_ext, cfg):
    """Pick the weight vector for one NL-AAA step; returns (weights, branch).

    Runs SK on the step's LevySystem, takes one WF step from w_prev_ext,
    compares their raw active squared errors, and runs the full WF iteration
    from the better initializer. The winning iterate must strictly lower the
    full-data squared error of w_prev_ext over all samples of `data`, the
    step's work set, whose interpolated samples are the system's supports;
    otherwise w_prev_ext is kept and the branch tag reports the fallback.
    The zero extension evaluates bit for bit as the previous model (a model
    evaluates over its nonzero weights only), so this one comparison is
    against the error recorded for the previous model, and accepted errors
    strictly fall. Of the two `full_squared_error` calls, which only decide
    acceptance, the reference's evaluates a model, the candidate's rarely.
    """
    w_prev_ext = np.asarray(w_prev_ext, dtype=complex)
    sk = sk_iterate(system, cfg.refine)
    err_sk = float(np.min(sk.errors))
    try:
        err_w1 = system.residual_sq_sum(wf_step(system, w_prev_ext))
    except NumericalError:
        # d(z_i; w_prev_ext) = 0 at an active sample: nothing to step from
        err_w1 = np.inf
    if err_sk < err_w1:
        start, branch = sk.weights, "wf-from-sk"
    else:
        start, branch = w_prev_ext, "wf-from-prev"
    run = wf_iterate(system, start, cfg.refine)
    if (full_squared_error(system, run.weights, data)
            < full_squared_error(system, w_prev_ext, data)):
        return run.weights, branch
    return w_prev_ext, "fallback"


def fallback_greedy(res, data, mode, rng):
    """Alternative support selection used on the step after a fallback.

    `res` holds |r - H| at the active samples of `data`, as for
    aaa.greedy_select. Probabilistic mode draws an active index with
    probability proportional to it (uniform when all residuals vanish);
    relative mode takes the argmax of |r - H|/|H| over active samples with
    H != 0.
    """
    idx = data.active_indices()
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
    full-data normalized l2 column is non-increasing. No error is carried
    between steps: each step compares against its zero-extended previous
    weights.
    """
    if data.size < 2:
        raise ValueError("NL-AAA needs at least two samples")
    rng = np.random.default_rng(cfg.rng_seed)

    def choose_index(res, work, branch):
        if branch == "fallback":
            return fallback_greedy(res, work, cfg.fallback_mode, rng)
        return greedy_select(res, work)

    def choose_weights(w_prev, work, system):
        return select_weights(system, work, np.append(w_prev, 0.0), cfg)

    return _greedy_fit(data, cfg, choose_index, choose_weights)
