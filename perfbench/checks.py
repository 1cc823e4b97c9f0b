"""Correctness checks on the benchmark's outputs.

Each check returns a list of problems, empty when the output is right. The
checks compare against numpy computations made here, apart from the package,
or against properties the method must have; none compares against a stored
copy of earlier output.
"""

import numpy as np

RECOVER_L2 = 1e-10
REALIZATION_RTOL = 1e-8
# Held-out l2 over sample l2 on the mor validation grid. The grid interleaves
# the samples of a smooth response, so the two errors are of one size; a
# factor 10 either way flags a fit that is good only at its samples.
VALIDATION_BAND = 10.0
GRAD_FD_RTOL = 1e-5
GRAD_WF_IDENTITY_RTOL = 1e-13


def bary_eval(supports, values, weights, z):
    """The barycentric formula in numpy, independent of RationalModel.

    A support with nonzero weight returns its value exactly; one with zero
    weight drops out of both sums. Returns (r, err), where err is the
    first-order bound (k+3) eps (sum|w h/(z-l)| + |r| sum|w/(z-l)|) / |d(z)|
    on the rounding error of evaluating the formula at each point. Fits that
    lean on near-cancellation make err far larger than eps |r|, so two
    correct evaluations may differ by up to twice err.
    """
    z = np.asarray(z, dtype=complex)
    hit = z[:, None] == supports[None, :]
    diffs = np.where(hit, 1.0, z[:, None] - supports[None, :])
    terms = np.where(hit, 0.0, weights[None, :] / diffs)
    den = terms.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.einsum("ij,j->i", terms, values) / den
        err = ((supports.size + 3) * np.finfo(float).eps
               * (np.abs(terms) @ np.abs(values) + np.abs(r) * np.abs(terms).sum(axis=1))
               / np.abs(den))
    rows, cols = np.nonzero(hit & (weights[None, :] != 0))
    r[rows] = values[cols]
    err[rows] = 0.0
    return r, err


def normalized_errors(r, H):
    """(l2, linf) of r against H, normalized by the size of H."""
    res = np.abs(H - r)
    return (float(np.linalg.norm(res) / np.linalg.norm(H)),
            float(res.max() / np.abs(H).max()))


def metric_problems(label, got, model, data):
    """`got` = (l2, linf) reported by the package for the model on data,
    against the benchmark's own evaluation within its rounding bound."""
    r, err = bary_eval(model.supports, model.values, model.weights, data.points)
    own = normalized_errors(r, data.values)
    H = np.abs(data.values)
    slack = (2.0 * np.linalg.norm(err) / np.linalg.norm(H), 2.0 * err.max() / H.max())
    for name, a, b, tol in zip(("l2", "linf"), got, own, slack):
        if not abs(a - b) <= tol + 1e-12 * b:
            return ["%s: %s %.6e, own evaluation %.6e (rounding bound %.1e)"
                    % (label, name, a, b, tol)]
    return []


def fit_problems(label, data, model, trace, monotone):
    """Checks on one fit: trace shape, final metrics, interpolation, and
    (for NL-AAA) the non-increasing l2 column."""
    recs = trace.records
    if not recs:
        return ["%s: empty trace" % label]
    out = []
    ks = [r.k for r in recs]
    if ks != list(range(1, len(recs) + 1)) or any(r.degree != r.k - 1 for r in recs):
        out.append("%s: trace k/degree columns are not 1..K / k-1" % label)
    if model.is_constant or model.k != len(recs):
        out.append("%s: model has %s supports, trace has %d rows" % (label, model.k, len(recs)))
        return out
    if not np.array_equal([r.support for r in recs], model.supports):
        out.append("%s: trace support column differs from the model's supports" % label)
    if monotone:
        l2 = np.array([r.l2_norm for r in recs])
        up = np.nonzero(l2[1:] > l2[:-1])[0]
        if up.size:
            out.append("%s: l2 rises at k = %d (%.3e -> %.3e)"
                       % (label, up[0] + 2, l2[up[0]], l2[up[0] + 1]))
    out += metric_problems(label + " final trace row", (recs[-1].l2_norm, recs[-1].linf_norm),
                           model, data)
    live = model.weights != 0
    where = {complex(z): i for i, z in enumerate(data.points)}
    idx = np.array([where.get(complex(s), -1) for s in model.supports])
    if np.any(idx < 0):
        out.append("%s: a support is not a sample point" % label)
    elif not np.array_equal(model.values, data.values[idx]):
        out.append("%s: a support value differs from its sample value" % label)
    elif not np.array_equal(model(model.supports[live]), data.values[idx][live]):
        out.append("%s: a support with nonzero weight is not interpolated exactly" % label)
    return out


def degree_at_target(trace, target):
    """First trace degree whose full-data l2 is at or below target, or None."""
    for rec in trace.records:
        if rec.l2_norm <= target:
            return rec.degree
    return None


def target_problems(label, trace, target):
    if degree_at_target(trace, target) is None:
        return ["%s: l2 %.3e never reaches the target %.1e within the budget"
                % (label, trace.records[-1].l2_norm, target)]
    return []


def refinement_problems(final_l2):
    """Acceptance criterion 3 on the builtins: final NL-AAA l2 below AAA's on
    triwave and not above it on abs_sin3pi. `final_l2` maps a case name to
    (aaa_l2, nlaaa_l2)."""
    out = []
    for name, strict in (("triwave-1000", True), ("abs_sin3pi-1000", False)):
        aaa_l2, nlaaa_l2 = final_l2[name]
        if not (nlaaa_l2 < aaa_l2 if strict else nlaaa_l2 <= aaa_l2):
            out.append("%s: NL-AAA final l2 %.3e %s AAA's %.3e"
                       % (name, nlaaa_l2, "not below" if strict else "above", aaa_l2))
    return out


def recovery_problems(label, degree, trace):
    """Acceptance criterion 4: exact recovery at k = d+1."""
    last = trace.records[-1]
    if last.k != degree + 1 or not last.l2_norm < RECOVER_L2:
        return ["%s: stopped at k = %d with l2 %.3e; want k = %d and l2 < %.0e"
                % (label, last.k, last.l2_norm, degree + 1, RECOVER_L2)]
    return []


def realization_problems(label, transfer_values, model_values):
    scale = np.abs(model_values).max()
    dev = float(np.abs(transfer_values - model_values).max() / scale)
    if not dev <= REALIZATION_RTOL:
        return ["%s: realization transfer deviates from the model by %.3e" % (label, dev)]
    return []


def validation_problems(label, val_l2, sample_l2):
    if not sample_l2 / VALIDATION_BAND <= val_l2 <= VALIDATION_BAND * sample_l2:
        return ["%s: held-out l2 %.3e outside [1/%g, %g] x sample l2 %.3e"
                % (label, val_l2, VALIDATION_BAND, VALIDATION_BAND, sample_l2)]
    return []


def gradient_problems(label, deviations):
    """`deviations` maps a comparison name to its relative deviation; the
    finite-difference ones start with "fd_", the WF fixed-point identity is
    "wf_identity"."""
    out = []
    for name, dev in deviations.items():
        bound = GRAD_WF_IDENTITY_RTOL if name == "wf_identity" else GRAD_FD_RTOL
        if not dev <= bound:
            out.append("%s: gradient %s deviates by %.3e (bound %.0e)" % (label, name, dev, bound))
    return out


def reproducibility_problems(first, repeat):
    """`first` and `repeat` map an output file name to the digest of its
    bytes, from two passes over the same cases; every file in `repeat` must
    match."""
    return ["%s differs between two passes over the same case" % name
            for name, digest in repeat.items() if first.get(name) != digest]
