"""Classical AAA: greedy support selection with Levy-approximation weights.

Each iteration promotes the worst-approximated active sample to a support
point, then picks unit-norm weights minimizing the linearized (Levy) error
``sum |n(z_i) - d(z_i) H(z_i)|^2`` over the remaining active samples via the
smallest right singular vector. The loop itself, ``_greedy_fit``, is shared
with NL-AAA, which swaps in its own index and weight choices.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import RationalModel, SampleSet
from .data import metrics
from .linalg import levy_matrix, min_unit_norm_solution

__all__ = [
    "FitConfig",
    "TraceRecord",
    "FitTrace",
    "initial_model",
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
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
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


def initial_model(data):
    """Degree-0 starting model: the mean of the sample values."""
    if data.size < 1:
        raise ValueError("cannot average an empty sample set")
    return RationalModel.constant(np.mean(data.values))


def active_residuals(model, data, system=None):
    """Active indices and |r - H| there; exact poles come out as inf.
    `system` is the model's LevySystem over the active samples of `data`
    (the constant start model needs none)."""
    idx = data.active_indices()
    H = data.values[idx]
    if model.is_constant:
        r = np.full(idx.size, model.constant_value, dtype=complex)
    else:
        r = system.rationals(model.weights)
    res = np.abs(r - H)
    return idx, np.where(np.isnan(res), np.inf, res)


def greedy_select(model, data, system=None):
    """Index of the active sample with the largest mismatch |r - H|.

    Ties break to the lowest index. `system` is as for active_residuals.
    """
    idx, res = active_residuals(model, data, system)
    if idx.size == 0:
        raise ValueError("no active samples left to select from")
    return int(idx[int(np.argmax(res))])


def levy_weights(supports, interp_values, data):
    """Unit-norm weights minimizing ||(GC - CH) w|| over the active samples."""
    return min_unit_norm_solution(levy_matrix(data.levy_system(supports, interp_values)))


def _greedy_fit(data, cfg, choose_index, choose_weights):
    """The greedy loop of AAA and NL-AAA; returns (model, trace).

    Each step promotes `choose_index(model, work, system, branch)` to a
    support (system and branch are those of the step that made the model,
    None at the start), builds the step's LevySystem, and takes
    `(weights, branch) = choose_weights(model, work, system)`; the first
    step's weight is 1. A "fallback" step keeps the model's function, so its
    metrics carry over.
    """
    work = SampleSet(data.points, data.values)
    model = initial_model(work)
    supports = np.empty(0, dtype=complex)
    interp_values = np.empty(0, dtype=complex)
    system = None
    branch = None
    trace = FitTrace()
    reached_tol = False
    for k in range(1, cfg.max_degree + 2):
        if work.active_count < 2:
            # taking another support would leave no active data to fit
            break
        idx = choose_index(model, work, system, branch)
        supports = np.append(supports, work.points[idx])
        interp_values = np.append(interp_values, work.values[idx])
        work = work.deactivate(idx)
        system = work.levy_system(supports, interp_values)
        if k == 1:
            w, branch = np.ones(1, dtype=complex), "levy"
        else:
            w, branch = choose_weights(model, work, system)
        model = RationalModel.barycentric(supports, interp_values, w)
        raw = system.residual_sq_sum(w)
        if branch != "fallback":
            m = metrics(model, data)
        trace.records.append(
            TraceRecord(k, k - 1, complex(supports[-1]), raw, m.l2, m.linf, branch)
        )
        if raw < cfg.tol:
            reached_tol = True
            break
    trace.budget_exhausted = not reached_tol
    return model, trace


def aaa_fit(data, cfg):
    """Run AAA on a sample set.

    Returns (model, trace). The trace holds one record per iteration with the
    raw active squared stopping error and the normalized full-data metrics;
    `budget_exhausted` is set when the tolerance was not reached before the
    degree budget (or the data) ran out.
    """
    if data.size < 2:
        raise ValueError("AAA needs at least two samples")
    return _greedy_fit(
        data,
        cfg,
        lambda model, work, system, branch: greedy_select(model, work, system),
        lambda model, work, system: (min_unit_norm_solution(levy_matrix(system)), "levy"),
    )
