"""NL-AAA: greedy interpolation with nonlinear least-squares weight refinement.

NL-AAA is the greedy loop of AAA (``aaa._greedy_fit``) with other weights:
``refine.refit`` refines them on the step's LevySystem from the previous
weights, extended by a zero for the new support (SK, a single WF step
from them, and the full WF iteration from the better of the two), and the
loop keeps the previous model (zero weight on the new support) whenever
that does not beat it on the full data set. :func:`select_weights` owns
that test. A zero weight drops out of model evaluation, so the
zero-extended previous weights evaluate bit for bit as the previous model
and are the test's one reference; it scores both weight vectors by their
``aaa._full_residuals`` triples, made from the refinement's Iterates. The
reference's residuals at every sample are the previous model's, which the
loop carries, so it evaluates no model for them. The loop takes the
winner's triple, the route every trace row, a fallback's too, takes its
metrics by, and computes none again. The fallback makes the reported
full-data error provably non-increasing; the step after a fallback ranks
the loop's active residuals |r - H| with a probabilistic or relative-error
variant of the greedy selection, so the same support choice cannot stall
the iteration twice.
"""

from dataclasses import dataclass, field

import numpy as np

from .aaa import FitConfig, _full_residuals, _greedy_fit, greedy_select
from .core import NumericalError, _check_integer
from .linalg import IGNORE
from .refine import RefineConfig, refit

__all__ = [
    "NlaaaConfig",
    "select_weights",
    "fallback_greedy",
    "nlaaa_fit",
]

FALLBACK_MODES = ("probabilistic", "relative")


@dataclass(frozen=True)
class NlaaaConfig(FitConfig):
    """The stopping controls of AAA plus the refinement and fallback settings.

    `rng_seed`, a non-negative integer, seeds the draws of the probabilistic
    fallback selection, so a fit is reproducible from its inputs and seed.
    """

    refine: RefineConfig = field(default_factory=RefineConfig)
    fallback_mode: str = "probabilistic"
    rng_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        _check_integer(self.rng_seed, "rng_seed", 0)
        if self.fallback_mode not in FALLBACK_MODES:
            raise ValueError(
                "fallback_mode must be one of %s" % (FALLBACK_MODES,)
            )


def full_squared_error(residuals):
    """Squared error over all samples of the step's work set, from the
    ``aaa._full_residuals`` triple of its weights: the sum of squares of the
    full residuals, the trace metrics' own (a zero-weight support
    contributes its true residual); inf at a pole on the grid or where h*w
    overflows. Only NL-AAA's acceptance uses it.
    """
    total = float(np.sum(residuals[2] ** 2))
    return np.inf if np.isnan(total) else total


def select_weights(system, data, w_prev_ext, cfg, prev_full=None):
    """Pick the weight vector for one NL-AAA step; returns (weights, branch,
    residuals), the last the ``aaa._full_residuals`` triple of the weights.

    ``refine.refit`` refines from w_prev_ext: SK on the step's LevySystem,
    one WF step from w_prev_ext, and the WF run from the better of the two.
    Its best weights must strictly lower the full-data squared error of
    w_prev_ext over all samples of `data`, the step's work set, whose
    interpolated samples are the system's supports; otherwise w_prev_ext
    is kept and the branch tag reports the fallback. The zero extension
    evaluates bit for bit as the previous model (a model evaluates over its
    nonzero weights only), so this one comparison is against the error
    recorded for the previous model, and accepted errors strictly fall.
    Both triples are made here, from the Iterates that refit evaluated; a
    run that kept its start shares the reference's. `prev_full`, the
    previous model's residuals at every sample, which the loop carries, are
    the reference's, so it evaluates no model; a candidate rarely does.
    """
    w_prev_ext = np.asarray(w_prev_ext, dtype=complex)
    with np.errstate(**IGNORE):
        start = system.evaluate(w_prev_ext)
    best, branch = refit(system, start, cfg.refine)
    reference = _full_residuals(system, data, w_prev_ext, start, prev_full)
    residuals = reference if best is start else _full_residuals(system, data, best.weights, best)
    if full_squared_error(residuals) < full_squared_error(reference):
        return best.weights, branch, residuals
    return w_prev_ext, "fallback", reference


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
    rng = np.random.default_rng(cfg.rng_seed)

    def choose_index(res, work, branch):
        if branch == "fallback":
            return fallback_greedy(res, work, cfg.fallback_mode, rng)
        return greedy_select(res, work)

    def choose_weights(w_prev, full_prev, work, system):
        return select_weights(system, work, np.append(w_prev, 0.0), cfg, full_prev)

    return _greedy_fit(data, cfg, choose_index, choose_weights)
