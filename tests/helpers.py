"""Shared builders for the test suite: random models, random fitting
instances, rational test data with poles kept away from [-1, 1] or sampled
on the imaginary axis, a counter of Cauchy assemblies, and the replay of a
fit trace's metrics."""

import sys

import numpy as np

from baryfit import RationalModel, SampleSet, linalg, metrics, sample_builtin


def unit_grid(count):
    """The package's equidistant grid on [-1, 1]."""
    return sample_builtin("abs", count).points


def distinct_complex(rng, count, scale=1.0):
    """`count` pairwise distinct complex normal deviates."""
    while True:
        z = scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
        if np.unique(z).size == count:
            return z


def nonzero_complex(rng, count, floor=1e-2):
    """Complex normal deviates bounded away from zero."""
    while True:
        w = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        if np.all(np.abs(w) > floor):
            return w


def random_model(rng, k):
    """Barycentric model with distinct supports and clearly nonzero weights."""
    return RationalModel.barycentric(
        distinct_complex(rng, k, scale=2.0),
        rng.standard_normal(k) + 1j * rng.standard_normal(k),
        nonzero_complex(rng, k),
    )


def random_instance(rng, k, m):
    """Random supports, interpolated values, and an active sample set.

    The supports are disjoint from the sample points, which is all the
    least-squares and gradient code requires.
    """
    z = distinct_complex(rng, k + m)
    supports = z[:k]
    data = SampleSet(z[k:], rng.standard_normal(m) + 1j * rng.standard_normal(m))
    interp_values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return supports, interp_values, data


def rational_with_clear_poles(rng, degree):
    """A degree-`degree` rational in partial-fraction form whose poles stay
    outside the strip [-1,1] x [-0.2i, 0.2i].

    Returns (fn, poles); fn broadcasts over numpy arrays.
    """
    poles = []
    while len(poles) < degree:
        p = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5))
        if abs(p.imag) < 0.3 and abs(p.real) < 1.3:
            continue
        if any(abs(p - q) < 0.05 for q in poles):
            continue
        poles.append(p)
    poles = np.asarray(poles, dtype=complex)
    residues = nonzero_complex(rng, degree, floor=0.1)
    offset = complex(rng.standard_normal(), rng.standard_normal())

    def fn(x):
        x = np.asarray(x, dtype=complex)
        return offset + (residues / (x[..., None] - poles)).sum(axis=-1)

    return fn, poles


def rational_samples(rng, degree, count):
    """Sample a random clear-pole rational on the [-1, 1] grid."""
    fn, _ = rational_with_clear_poles(rng, degree)
    x = unit_grid(count)
    return SampleSet(x, fn(x))


def transfer_samples(rng, pairs, freqs):
    """Samples of a stable real system, sum of `pairs` damped conjugate pole
    pairs, at +-i*omega for `freqs` log-spaced omega in [0.1, 10]: complex
    conjugate-symmetric data on the imaginary axis."""
    omega_n = 10.0 ** rng.uniform(-0.8, 0.8, pairs)
    poles = omega_n * (-rng.uniform(0.02, 0.2, pairs) + 1j)
    residues = nonzero_complex(rng, pairs, floor=0.1)
    s = 1j * np.logspace(-1.0, 1.0, freqs)
    s = np.concatenate([s, s.conj()])
    H = (residues / (s[:, None] - poles) + residues.conj() / (s[:, None] - poles.conj())).sum(axis=1)
    return SampleSet(s, H)


def trace_metrics_replay(data, trace, weights):
    """metrics(model_k, data) for each row of a fit trace, where model_k has
    the supports of rows 1..k, their sample values and weights[k - 1]."""
    where = {complex(z): i for i, z in enumerate(data.points)}
    idx = [where[rec.support] for rec in trace.records]
    return [tuple(metrics(RationalModel.barycentric(
                data.points[idx[:k]], data.values[idx[:k]], w), data))
            for k, w in enumerate(weights, start=1)]


def rationals(system, w):
    """r(z_i; w) at the active points of a LevySystem."""
    return system.numerators(w) / system.denominators(w)


def count_assemblies(monkeypatch):
    """Record the arguments of every assemble_levy_system call the package
    makes from now on; returns the list they are appended to."""
    original = linalg.assemble_levy_system
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # the package imports the name, so replace it wherever a module binds it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "baryfit" and vars(module).get(
                "assemble_levy_system") is original:
            monkeypatch.setattr(module, "assemble_levy_system", counting)
    return calls
