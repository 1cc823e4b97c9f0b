"""Matrix assembly and the two least-squares kernels behind the fits.

Everything here works on plain complex arrays: the Cauchy matrix over the
active samples, the Levy (Loewner-type) matrix, the homogeneous unit-norm
minimizer via SVD, and the pivoted weighted least-squares solve used by the
WF iteration. Problem sizes are desk scale, so dense LAPACK kernels are the
right tool. The fits build one :class:`LevySystem` per greedy step, and
:meth:`LevySystem.evaluate` of a weight vector makes its one record, an
:class:`Iterate`: n(z_i) and d(z_i) from one product each, the active
error and the residuals |r - H| that the next greedy selection ranks. Its
products also take (k, m) stacks of weights. The numerator matrix is
formed once per system: the gradients shift it, and the WF step takes it
and the Cauchy matrix split at its pinned weight. Tall homogeneous solves
decompose their R factor, bitwise as zgesdd itself would.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the floating-point errors an evaluation of weights expects and handles: a
# pole at a sample (divide, invalid) and sums too large for a double (over)
IGNORE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}
_EPS = float(np.finfo(float).eps)

__all__ = [
    "Iterate",
    "LevySystem",
    "build_cauchy",
    "assemble_levy_system",
    "levy_matrix",
    "min_unit_norm_solution",
    "denominator_weighting",
    "pivoted_weighted_lsq",
]


def build_cauchy(active_points, supports):
    """Cauchy matrix C with C[i, j] = 1/(z_i - lambda_j).

    Every active point must be distinct from every support; interpolated
    samples have to be removed before assembly.
    """
    z = np.asarray(active_points, dtype=complex)
    lam = np.asarray(supports, dtype=complex)
    diffs = z[:, None] - lam[None, :]
    if np.any(diffs == 0):
        i, j = (int(a[0]) for a in np.nonzero(diffs == 0))
        raise ValueError(
            "active point %d coincides with support %d; remove interpolated "
            "samples before assembling" % (i, j)
        )
    return 1.0 / diffs


class Iterate(NamedTuple):
    """A weight vector with its one evaluation on a LevySystem: n(z_i; w),
    d(z_i; w), the raw active squared error (inf where a pole hits) and the
    residuals |r(z_i; w) - H(z_i)| (nan or inf there)."""

    weights: np.ndarray
    n: np.ndarray
    d: np.ndarray
    err: float
    res: np.ndarray


@dataclass(frozen=True)
class LevySystem:
    """Assembled matrices for one fitting step over the active samples; build
    it with :func:`assemble_levy_system`, or take a sample set's own with
    ``SampleSet.levy_system``.

    Attributes:
        cauchy: (M-k, k) Cauchy matrix over active points and supports.
        interp_values: length-k values h_j at the supports.
        data_values: length-(M-k) data values H(z_i) at the active points.
        active_points: the z_i backing the rows.
        supports: the k support points lambda_j backing the columns.
    """

    cauchy: np.ndarray
    interp_values: np.ndarray
    data_values: np.ndarray
    active_points: np.ndarray
    supports: np.ndarray

    def shifted_numerator_matrix(self, a):
        """P - diag(a) C, with entries (h_j - a_i)/(z_i - lambda_j): the
        derivative of n(z_i; w) - a_i d(z_i; w) in w, which the WF step solves
        with and every criterion gradient contracts with its residuals. P,
        with P[i, j] = h_j/(z_i - lambda_j), is the numerator matrix, so
        n(z_i; w) = (Pw)_i."""
        return self._numerator_matrix() - a[:, None] * self.cauchy

    def _numerator_matrix(self):
        """P, read-only, formed on the first call and kept with the system."""
        if "_P" not in self.__dict__:  # frozen: no setattr
            P = self.__dict__["_P"] = self.cauchy * self.interp_values[None, :]
            P.flags.writeable = False
        return self.__dict__["_P"]

    def numerators(self, W):
        """n(z_i; w) = sum_j w_j h_j/(z_i - lambda_j), without forming P, for
        one weight vector W or, shaped (m, M-k), a (k, m) stack of columns."""
        return (self.cauchy @ (self.interp_values * W.T).T).T

    def denominators(self, W):
        """d(z_i; w) = sum_j w_j/(z_i - lambda_j), shaped as numerators(W)."""
        return (self.cauchy @ W).T

    def residual_sq_sum(self, w, out=None):
        """Raw active squared error sum |r(z_i; w) - H(z_i)|^2 (inf if a pole
        hits): ``evaluate(w, out).err`` under its own ``np.errstate``."""
        with np.errstate(**IGNORE):
            return self.evaluate(w, out).err

    def evaluate(self, w, out=None):
        """The :class:`Iterate` of w; call under ``np.errstate(**IGNORE)``.

        `out`, a float array with one entry per active sample, receives the
        residuals |r(z_i; w) - H(z_i)|; a pole at an active point leaves a
        nan or inf there.
        """
        n, d = self.numerators(w), self.denominators(w)
        res = np.abs(n / d - self.data_values, out=out)
        total = float((res ** 2).sum())
        return Iterate(w, n, d, np.inf if np.isnan(total) else total, res)

    def pinned_columns(self, pivot):
        """(P_free, C_free, p, c): the numerator matrix P (entries
        h_j/(z_i - lambda_j)) and C without column `pivot`, and that column
        of each, so that the WF matrix P - diag(a) C splits at its pinned
        weight without forming P per step. Made on the first call for a
        pivot and kept with the system; AAA's path never asks for it."""
        kept = self.__dict__.setdefault("_pinned", {})  # frozen: no setattr
        if pivot not in kept:
            C, P = self.cauchy, self._numerator_matrix()
            free = np.arange(C.shape[1]) != pivot
            kept[pivot] = (P[:, free], C[:, free], P[:, pivot].copy(), C[:, pivot].copy())
            for arr in kept[pivot]:
                arr.flags.writeable = False
        return kept[pivot]


def assemble_levy_system(active_points, active_values, supports, interp_values):
    """The LevySystem of the given supports over the given active samples."""
    z = np.asarray(active_points, dtype=complex)
    H = np.asarray(active_values, dtype=complex)
    lam = np.asarray(supports, dtype=complex)
    h = np.asarray(interp_values, dtype=complex)
    if z.size != H.size or lam.size != h.size:
        raise ValueError("point and value arrays must pair up in length")
    return LevySystem(build_cauchy(z, lam), h, H, z, lam)


def levy_matrix(system):
    """The matrix G C - C H with entries (H(z_i) - h_j)/(z_i - lambda_j)."""
    return system.cauchy * (
        system.data_values[:, None] - system.interp_values[None, :]
    )


def min_unit_norm_solution(A):
    """Unit-2-norm v minimizing ||A v||_2: the last right singular vector.

    The result is unique only up to a unit-modulus scalar (and up to subspace
    rotation under singular-value ties); compare through ||Av|| or through
    model evaluations, never entrywise. Fewer rows than columns is legal, an
    exact null vector exists then.

    Tall and square matrices, which is every Levy and SK solve on real data,
    take the economy-size SVD: the M x M left factor of the full one is never
    used and dominates both time and memory at M in the thousands. A wide
    matrix needs the full Vh, because its null vectors are rows that only the
    full decomposition returns.

    From M >= floor(17k/9) rows on (zgesdd's own crossover, MNTHR1), zgesdd
    runs geqrf and decomposes the k x k R before forming the M x k U dropped
    here. Decomposing that R directly gives bitwise the same vector (OpenBLAS
    0.3.31, every M in (k, 4k) for k in {1, 2, 3, 5, 9, 17, 25, 51}). It pays
    from M k^2 of about 4096 on; below, the extra qr call costs more than U.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[1] < 1:
        raise ValueError("need a matrix with at least one column")
    k = A.shape[1]
    if A.shape[0] == 0:
        v = np.zeros(k, dtype=complex)
        v[0] = 1.0
        return v
    if A.shape[0] >= (17 * k) // 9 and A.shape[0] * k * k >= 4096:
        A = np.linalg.qr(A, mode="r")
    _, _, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < k)
    return Vh[-1, :].conj()


def denominator_weighting(denominator_values):
    """Clamped SK/WF row weights 1/|d(z_i)|, all entries finite and positive.

    Magnitudes below machine-epsilon times the largest |d(z_i)| (or below an
    absolute floor near the smallest normal double) are clamped so underflow
    in a few rows cannot poison the whole solve.
    """
    mags = np.abs(np.asarray(denominator_values, dtype=complex))
    if mags.size == 0:
        return mags
    top = float(mags.max())
    if top == 0.0 or not math.isfinite(top):
        raise ValueError("denominator is zero or non-finite on every sample")
    np.maximum(mags, max(_EPS * top, 1e-300), out=mags)
    return np.divide(1.0, mags, out=mags)


def pivoted_weighted_lsq(row_weights, F, b, pivot=0, pinned=None):
    """Solve min ||D (F w - b)||_2 subject to w[pivot] = 1.

    D is diagonal with the given positive row weights. The free entries are
    found by a rank-revealing LAPACK least-squares solve (minimum-norm
    solution under rank deficiency); a single column leaves none free.
    A caller that has split F at the pivot already passes column `pivot` as
    `pinned` and F without it; F and b are then its scratch arrays, which
    the solve scales in place.
    """
    F = np.asarray(F, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = np.asarray(row_weights, dtype=float)
    k = F.shape[1] + (pinned is not None)
    if not 0 <= pivot < k:
        raise ValueError("pivot %d out of range for %d columns" % (pivot, k))
    if pinned is None:
        F, pinned = np.delete(F, pivot, axis=1), F[:, pivot]
        b = b - pinned
    else:
        b -= pinned
    # in the operand order of F * d and d * (b - pinned): the AVX-512 complex
    # product rounds x*y and y*x apart (see core._BLOCK)
    F *= d[:, None]
    np.multiply(d, b, out=b)
    sol = np.linalg.lstsq(F, b, rcond=None)[0]
    return np.concatenate((sol[:pivot], [1.0], sol[pivot:]))
