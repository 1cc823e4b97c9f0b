"""Inputs of the three benchmark workloads, made from a seed.

Every sample and validation value is computed here in numpy, apart from the
package: the builtin functions from their closed forms, the reduction
targets from poles and residues or from c^T (sI - A)^{-1} b, and the
recovery targets from partial fractions. The package receives only the
resulting sample sets.

The make-up of each workload (sizes, degree budgets, targets, number of
systems) is fixed; the seed draws the random parts only, so every seed gives
a pass of the same shape and cost.
"""

from dataclasses import dataclass

import numpy as np

import baryfit

# Support points drawn for each gradient check instance.
GRADCHECK_K = 6


@dataclass(frozen=True)
class Case:
    """One data set, fitted by both algorithms to `max_degree`.

    `target` is the normalized l2 that NL-AAA must reach within the budget;
    the first trace degree at or below it is the case's degree at target.
    The points of `val` are held out from the samples (no coincidences), and
    its values are computed apart from the package like the samples' values.
    """

    name: str
    data: baryfit.SampleSet
    max_degree: int
    target: float
    val: baryfit.SampleSet


@dataclass(frozen=True)
class GradInstance:
    """Random supports (sample indices) and weights for one gradient check."""

    case: str
    support_idx: np.ndarray
    w: np.ndarray
    w_prev: np.ndarray


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    cases: tuple
    grad_instances: tuple


# ----------------------------------------------------------------- builtins

def _triwave(x):
    return 2.0 * np.abs(3.0 * x - np.round(3.0 * x))


BUILTIN_VALUES = {
    "abs": np.abs,
    "relu": lambda x: np.where(x > 0.0, x, 0.0),
    "abs_sin3pi": lambda x: np.abs(np.sin(3.0 * np.pi * x)),
    "triwave": _triwave,
}

# (function, sample count, degree budget, l2 target). The sample counts are
# the acceptance sizes. The budgets are cut from 50 so that one pass fits a
# run: NL-AAA at this version costs about 0.9 s per degree at 1000 rows.
BUILTIN_CASES = (
    ("abs", 501, 24, 1e-4),
    ("relu", 501, 24, 1e-4),
    ("abs_sin3pi", 1000, 16, 1e-1),
    ("triwave", 1000, 16, 1.5e-1),
)


def _builtin_cases():
    cases = []
    for name, count, degree, target in BUILTIN_CASES:
        data = baryfit.sample_builtin(name, count)
        x = data.points.real
        if not np.array_equal(data.values.real, BUILTIN_VALUES[name](x)):
            raise RuntimeError("sample_builtin(%r) disagrees with its closed form" % name)
        # cell centres of 2000 equal cells: never a sample point of these grids
        v = -1.0 + (2.0 * np.arange(2000) + 1.0) / 2000.0
        v = v[~np.isin(v, data.points.real)]
        val = baryfit.SampleSet(v, BUILTIN_VALUES[name](v.real))
        cases.append(Case("%s-%d" % (name, count), data, degree, target, val))
    return cases


# ---------------------------------------------------------------------- mor

MOR_ORDER = 60  # 30 lightly damped conjugate pole pairs
MOR_FREQS = 100  # sampled at +-i*omega, so 200 samples per system; 7% steps
MOR_VAL_FREQS = 400
MOR_BUDGET = 20
MOR_TARGET = 1e-3
# (realization form, number of dominant pole pairs); the remaining pairs are
# four to five orders of magnitude weaker, so the degree at target is about
# twice the dominant count while the order stays far above the budget.
MOR_SYSTEMS = tuple((form, dominant) for form in ("modal", "statespace")
                    for dominant in (3, 4, 6, 8))


def _mor_modes(rng, dominant):
    """Natural frequencies, damping ratios and peak heights of the pairs.

    A pair's resonance is 2*zeta wide in relative frequency. The dominant
    pairs are damped by at least 0.05, so their peaks span at least 1.4
    sample steps and the samples resolve them; a peak that fell
    between two samples could not be fitted from the samples at all.
    """
    pairs = MOR_ORDER // 2
    wn = np.exp(rng.uniform(np.log(1.0), np.log(100.0), pairs))
    zeta = np.concatenate([rng.uniform(0.05, 0.15, dominant),
                           rng.uniform(0.02, 0.1, pairs - dominant)])
    amp = np.concatenate(
        [rng.uniform(0.3, 1.0, dominant), 10.0 ** rng.uniform(-5.0, -3.5, pairs - dominant)]
    )
    return wn, zeta, amp


def _modal_response(rng, dominant):
    """H(s) = sum over pairs of r/(s - p) + conj(r)/(s - conj(p))."""
    wn, zeta, amp = _mor_modes(rng, dominant)
    poles = wn * (-zeta + 1j * np.sqrt(1.0 - zeta**2))
    # |r| / (zeta wn) is the height of the pair's resonance peak
    res = np.exp(2j * np.pi * rng.uniform(size=wn.size)) * wn * zeta * amp

    def H(s):
        s = np.asarray(s, dtype=complex)[:, None]
        return (res / (s - poles) + res.conj() / (s - poles.conj())).sum(axis=1)

    return H


def _statespace_response(rng, dominant):
    """H(s) = c^T (sI - A)^{-1} b for a real stable A, rotated by a random
    orthogonal similarity so that it is dense."""
    wn, zeta, amp = _mor_modes(rng, dominant)
    sigma, omega = -zeta * wn, wn * np.sqrt(1.0 - zeta**2)
    A0 = np.zeros((MOR_ORDER, MOR_ORDER))
    for j in range(wn.size):
        A0[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[sigma[j], omega[j]], [-omega[j], sigma[j]]]
    Q, _ = np.linalg.qr(rng.standard_normal((MOR_ORDER, MOR_ORDER)))
    A = Q @ A0 @ Q.T
    gain = np.repeat(np.sqrt(2.0 * amp * zeta * wn), 2)
    b = Q @ (rng.standard_normal(MOR_ORDER) * gain)
    c = Q @ (rng.standard_normal(MOR_ORDER) * gain)

    def H(s):
        s = np.asarray(s, dtype=complex)
        out = np.empty(s.size, dtype=complex)
        for lo in range(0, s.size, 256):  # bounded memory for the stacked solves
            shifted = s[lo : lo + 256, None, None] * np.eye(MOR_ORDER) - A
            out[lo : lo + 256] = np.linalg.solve(shifted, b[:, None])[..., 0] @ c
        return out

    return H


def _conjugate_pairs(H, omega):
    """Points +-i*omega and their values; the systems are real, so the value
    at -i*omega is the conjugate of the value at i*omega."""
    values = H(1j * omega)
    return np.concatenate([1j * omega, -1j * omega]), np.concatenate([values, values.conj()])


def _mor_cases(rng):
    # sampled on [10^-0.5, 10^2.5] rad/s; the validation frequencies cover the
    # same band, shifted by half their own log step off the sample frequencies
    omega = np.logspace(-0.5, 2.5, MOR_FREQS)
    omega_val = np.logspace(-0.5, 2.5, MOR_VAL_FREQS + 1)[:-1] * 10.0 ** (1.5 / MOR_VAL_FREQS)
    omega_val = omega_val[~np.isin(omega_val, omega)]
    cases = []
    for i, (form, dominant) in enumerate(MOR_SYSTEMS):
        make = _modal_response if form == "modal" else _statespace_response
        H = make(rng, dominant)
        cases.append(Case("%s%d-q%d" % (form, i, dominant),
                          baryfit.SampleSet(*_conjugate_pairs(H, omega)), MOR_BUDGET,
                          MOR_TARGET, baryfit.SampleSet(*_conjugate_pairs(H, omega_val))))
    return cases


# ------------------------------------------------------------------ recover

RECOVER_POINTS = 201
RECOVER_DEGREES = (1, 2, 3, 4, 5, 6, 7, 8) * 2
RECOVER_TARGET = 1e-10


def _clear_poles(rng, degree):
    """Distinct poles outside the strip [-1.3, 1.3] x [-0.3i, 0.3i]."""
    poles = []
    while len(poles) < degree:
        p = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5))
        if abs(p.imag) < 0.3 and abs(p.real) < 1.3:
            continue
        if any(abs(p - q) < 0.05 for q in poles):
            continue
        poles.append(p)
    return np.asarray(poles)


def _recover_cases(rng):
    x = baryfit.sample_builtin("abs", RECOVER_POINTS).points
    xv = (x[:-1] + x[1:]) / 2.0
    xv = xv[~np.isin(xv, x)]
    cases = []
    for i, degree in enumerate(RECOVER_DEGREES):
        poles = _clear_poles(rng, degree)
        mags = rng.uniform(0.1, 1.0, degree)
        residues = mags * np.exp(2j * np.pi * rng.uniform(size=degree))
        offset = complex(rng.standard_normal(), rng.standard_normal())

        def H(z):
            return offset + (residues / (z[:, None] - poles)).sum(axis=1)

        cases.append(Case("d%d-%d" % (degree, i), baryfit.SampleSet(x, H(x)), degree,
                          RECOVER_TARGET, baryfit.SampleSet(xv, H(xv))))
    return cases


# -------------------------------------------------------------------- build

def _grad_instances(rng, cases):
    out = []
    for case in cases:
        idx = np.sort(rng.choice(case.data.size, size=GRADCHECK_K, replace=False))

        def weights():
            return rng.standard_normal(GRADCHECK_K) + 1j * rng.standard_normal(GRADCHECK_K)

        out.append(GradInstance(case.name, idx, weights(), weights()))
    return out


# workload -> (case builder, random stream id mixed into the seed)
BUILDERS = {
    "builtins": (lambda rng: _builtin_cases(), 0),
    "mor": (_mor_cases, 1),
    "recover": (_recover_cases, 2),
}


def build(workload, seed):
    make, stream = BUILDERS[workload]
    rng = np.random.default_rng([seed, stream])
    cases = make(rng)
    return Inputs(workload, seed, tuple(cases), tuple(_grad_instances(rng, cases)))
