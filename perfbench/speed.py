"""Machine speed, measured with a fixed reference computation.

The benchmark was written on a shared 2-core VM whose speed wanders by up
to 2x, in fast and slow stretches of 10 s to several minutes: a whole run,
or half of a set of ten, may fall in one stretch, and every timing of such a
run moves together (ten `recover` runs: `realize_s` 0.060-0.098 s, while
`nlaaa_fit_s` / `aaa_fit_s` stayed within 6.45-7.36). No statistic taken
inside one run can remove that, so the harness times this computation
between the program's operations and, on the workloads where it follows
the program's speed (`harness.SCALED_WORKLOADS`), scales its timings by the
nominal reference time over the run's median reference time.

The reference is a classic AAA fit (Nakatsukasa, Sete & Trefethen 2018)
written here in numpy, on a fixed function and grid: the same kind of work
as the program's fits (greedy selection, small complex SVDs, barycentric
evaluation), but none of the program's code, so a change to the program
never moves it.
"""

import time

import numpy as np

REF_POINTS = 200
REF_DEGREE = 16
# max error of the reference fit is 1.1e-6; a larger one means it went wrong
REF_MAX_ERROR = 1e-5

# The median time of `reference()` over the runs of the benchmark on the
# machine it was written on (2.1 GHz x86-64 VM, Python 3.11, numpy 2.4,
# OpenBLAS, one thread): 3.0 ms, with run medians of 2.2-3.8 ms. Scaled
# timings are seconds at this speed.
REF_NOMINAL_S = 0.003

_Z = np.linspace(-1.0, 1.0, REF_POINTS) + 0j
_F = np.abs(_Z - 0.1) + 0j  # a kink between grid points: error falls at every step


def aaa_error(z, f, degree):
    """Max error over `z` of the AAA fit of `f` with `degree` + 1 supports."""
    mask = np.ones(z.size, dtype=bool)
    r = np.full(z.size, f.mean())
    idx = []
    for _ in range(degree + 1):
        j = int(np.argmax(np.abs(f - r) * mask))
        idx.append(j)
        mask[j] = False
        zj, fj = z[idx], f[idx]
        C = 1.0 / (z[mask, None] - zj)
        loewner = (f[mask, None] - fj) * C
        w = np.linalg.svd(loewner, full_matrices=False)[2][-1].conj()
        r = f.copy()
        r[mask] = (C @ (w * fj)) / (C @ w)
    return float(np.max(np.abs(f - r)))


def reference():
    """One timed reference fit: (seconds, max error)."""
    t0 = time.perf_counter()
    err = aaa_error(_Z, _F, REF_DEGREE)
    return time.perf_counter() - t0, err
