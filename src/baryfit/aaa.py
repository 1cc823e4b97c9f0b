"""Classical AAA: greedy support selection with Levy-approximation weights.

Each iteration promotes the worst-approximated active sample to a support
point, then picks unit-norm weights minimizing the linearized (Levy) error
``sum |n(z_i) - d(z_i) H(z_i)|^2`` over the remaining active samples via the
smallest right singular vector. The loop itself, ``_greedy_fit``, is shared
with NL-AAA, which swaps in its own index and weight choices. As in AAA
(Nakatsukasa, Sete & Trefethen, SISC 2018), one ``_full_residuals`` of a
step's weights gives its stopping error, its trace metrics and the
mismatches the next step ranks, so every row comes from its own weights.
The weight choice hands that triple to the loop with the weights: AAA's
evaluates its Levy weights, NL-AAA's acceptance test takes the evaluations
that its refinement made.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PoleAtPointError, RationalModel, SampleSet, _check_integer
from .data import residual_metrics
from .linalg import levy_matrix, min_unit_norm_solution

__all__ = [
    "FitConfig",
    "TraceRecord",
    "FitTrace",
    "greedy_select",
    "levy_weights",
    "aaa_fit",
]


@dataclass(frozen=True)
class FitConfig:
    """Stopping controls: `tol` bounds the raw active squared error, and the
    support count may grow to max_degree + 1."""

    max_degree: int
    tol: float = 1e-12

    def __post_init__(self):
        _check_integer(self.max_degree, "max_degree", 0)
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    degree: int
    support: complex
    raw_active_sq_err: float
    l2_norm: float
    linf_norm: float
    branch: str


@dataclass
class FitTrace:
    """Per-iteration fit records, plus a flag marking runs that stopped on
    budget (max degree or exhausted samples) instead of on tolerance."""

    records: list = field(default_factory=list)
    budget_exhausted: bool = False


def greedy_select(res, data):
    """Index of the active sample with the largest mismatch.

    `res` holds |r - H| at the active samples of `data`, in index order, for
    the current model r. Ties break to the lowest index.
    """
    idx = data.active_indices()
    if idx.size == 0:
        raise ValueError("no active samples left to select from")
    return int(idx[int(np.argmax(res))])


def levy_weights(system):
    """Unit-norm weights minimizing ||(GC - CH) w|| over the system's samples."""
    return min_unit_norm_solution(levy_matrix(system))


def _full_residuals(system, work, w, evaluated=None, full=None):
    """(raw, res, full) of weights `w` on the step's system and work set:
    the active squared error, the residuals |r - H| at the active samples
    (inf at a pole, as ``LevySystem.evaluate`` makes them, so it ranks first
    and the step's metrics read inf) and those at every sample, zero at a
    support of nonzero weight, which r interpolates exactly. `evaluated`,
    the ``linalg.Iterate`` of `w` on the system, saves evaluating it again,
    and its residuals are taken as they are; `full`, the residuals of `w` at
    every sample when the caller holds them already, saves making them
    again where both are finite.

    `full` equals the residuals of the model's own evaluation bit for bit
    as long as the system's products sum as the model's do. Two rare cases
    sum in another order, and there the model itself is evaluated: a zero
    weight, which drops out of the model but not of the system, and a
    single active sample, whose product numpy takes as a dot. A given
    `full` that is not finite is made again: after a pole at a sample it
    reads inf there, and once that sample is a support of zero weight the
    model raises and every residual reads inf.
    """
    if evaluated is None:
        res = np.empty(work.active_count)
        raw = system.residual_sq_sum(w, out=res)
    else:
        raw, res = evaluated.err, evaluated.res
    finite = np.isfinite(res).all()
    if finite and full is not None and np.isfinite(full).all():
        return raw, res, full
    full = np.zeros(work.size)
    full[work.active_mask] = res
    if not finite or (work.active_count > 1 and w.all()):
        return raw, res, full
    try:
        r = RationalModel.barycentric(system.supports, system.interp_values, w)(work.points)
    except PoleAtPointError:  # at a support of zero weight
        return raw, res, np.full(work.size, np.inf)
    return raw, res, np.abs(work.values - r)


def _greedy_fit(data, cfg, choose_index, choose_weights):
    """The greedy loop of AAA and NL-AAA; returns (model, trace).

    The loop carries `res` and `full`, |r - H| at the active samples and
    at every sample for the current model r (inf at a pole on a sample, so
    it ranks first); the constant mean of the values starts `res`.
    Each step promotes `choose_index(res, work, branch)` to a support
    (`branch` is that of the step that made r, None at the start), builds
    the step's LevySystem, and takes `(weights, branch, residuals) =
    choose_weights(w_prev, full, work, system)` for the previous weights
    w_prev, `residuals` the _full_residuals triple of the weights; the
    first step's weight is 1, whose triple the loop makes. That triple of
    the new weights, a fallback's zero-extended ones too, gives the
    stopping error, the next `res` and `full` and trace metrics equal to
    `metrics(model, work)` bit for bit; apart from the rare steps
    _full_residuals names, no model is built or evaluated for them.

    The loop fits H / 2^e, with e chosen so that max|H| / 2^e lies in
    [1, 2). A power-of-two scale is exact and every kernel is homogeneous
    in H, so this is the fit of H itself, but no squared sum overflows or
    underflows whatever the scale of H. The stopping error is reported and
    tested in data units (inf where it exceeds the double range), and the
    returned model, built once at the end, takes its support values from
    `data`. Fewer than two samples raise ValueError.
    """
    if data.size < 2:
        raise ValueError("a fit needs at least two samples, got %d" % data.size)
    e = math.frexp(np.abs(data.values).max())[1] - 1
    # ldexp on the (re, im) float pairs that make up each complex value
    work = SampleSet(data.points, np.ldexp(data.values.view(float), -e).view(complex))
    res = np.abs(np.mean(work.values) - work.values)
    w = None
    picked = []
    branch = None
    trace = FitTrace()
    reached_tol = False
    for k in range(1, cfg.max_degree + 2):
        if work.active_count < 2:
            # taking another support would leave no active data to fit
            break
        idx = choose_index(res, work, branch)
        picked.append(idx)
        work = work.deactivate(idx)
        system = work.levy_system(work.points[picked], work.values[picked])
        if k == 1:
            w, branch = np.ones(1, dtype=complex), "levy"
            raw, res, full = _full_residuals(system, work, w)
        else:
            w, branch, (raw, res, full) = choose_weights(w, full, work, system)
        try:
            raw = math.ldexp(raw, 2 * e)
        except OverflowError:
            raw = math.inf
        m = residual_metrics(full, work.values)
        trace.records.append(
            TraceRecord(k, k - 1, complex(system.supports[-1]), raw, m.l2, m.linf, branch)
        )
        if raw < cfg.tol:
            reached_tol = True
            break
    trace.budget_exhausted = not reached_tol
    return RationalModel.barycentric(data.points[picked], data.values[picked], w), trace


def aaa_fit(data, cfg):
    """Run AAA on a sample set.

    Returns (model, trace). The trace holds one record per iteration with the
    raw active squared stopping error and the normalized full-data metrics;
    `budget_exhausted` is set when the tolerance was not reached before the
    degree budget (or the data) ran out.
    """
    def choose_weights(w_prev, full_prev, work, system):
        w = levy_weights(system)
        return w, "levy", _full_residuals(system, work, w)

    return _greedy_fit(
        data, cfg, lambda res, work, branch: greedy_select(res, work), choose_weights
    )
