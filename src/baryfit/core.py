"""Sample sets, barycentric rational models, and state-space realization.

A barycentric rational model is the ratio

    r(z) = (sum_j w_j h_j / (z - lambda_j)) / (sum_j w_j / (z - lambda_j)),

which interpolates h_j at the support point lambda_j whenever w_j != 0.
With one support it is the constant h_0. Sample data lives in immutable
:class:`SampleSet` objects carrying an active/interpolated partition.
"""

import cmath
import copy
import operator

import numpy as np

from .linalg import assemble_levy_system

__all__ = [
    "NumericalError",
    "PoleAtPointError",
    "SampleSet",
    "RationalModel",
    "Realization",
    "realize",
]


class NumericalError(ArithmeticError):
    """A computation is undefined for the given numbers (not a usage error)."""


class PoleAtPointError(NumericalError):
    """The barycentric denominator is exactly zero at an evaluation point,
    or the pencil of a realization is exactly singular there."""


def _as_complex_vector(x, name):
    """Coerce to a finite, read-only 1-d complex array."""
    arr = np.atleast_1d(np.asarray(x, dtype=complex)).copy()
    if arr.ndim != 1:
        raise ValueError("%s must be one-dimensional, got shape %s" % (name, arr.shape))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s contains non-finite entries" % name)
    arr.flags.writeable = False
    return arr


def _check_integer(value, name, minimum):
    """`value` as an int; ValueError unless it is an integer >= minimum."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None
    if value < minimum:
        raise ValueError("%s must be >= %d, got %d" % (name, minimum, value))
    return value


def _check_distinct(points, name):
    if np.unique(points).size != points.size:
        order = np.lexsort((points.imag, points.real))
        srt = points[order]
        dup = order[1:][srt[1:] == srt[:-1]]
        raise ValueError(
            "%s must be pairwise distinct; duplicates at indices %s"
            % (name, sorted(int(i) for i in dup))
        )


class SampleSet:
    """Immutable data set {(z_i, H(z_i))} with an active/interpolated split.

    A set remembers one LevySystem, the last one :meth:`levy_system` built,
    keyed on the exact bytes of its support and value arrays. The set never
    changes, so neither do its active samples, and equal keys give the same
    system. A gradient check asks for its system 8 times per ``baryfit
    gradcheck`` and 14 per perfbench instance; an assembly costs 30-90 us at
    194-994 x 6 against 1 us for a hit. Without the cache the perfbench
    check took 1.22-1.51x as long per case on each of its three workloads,
    2.09x at most (medians of 30 repetitions interleaved with cached ones,
    3 runs; Intel Xeon, 2 shared cores), past the benchmark's 0.25 bound.

    Args:
        points: complex sample locations z_i, pairwise distinct.
        values: complex sample values H(z_i), same length.
        active_mask: optional boolean mask; True marks non-interpolated
            samples. Defaults to all active.
    """

    def __init__(self, points, values, active_mask=None):
        self.points = _as_complex_vector(points, "points")
        self.values = _as_complex_vector(values, "values")
        if self.points.size != self.values.size:
            raise ValueError(
                "points and values must have the same length (%d != %d)"
                % (self.points.size, self.values.size)
            )
        if self.points.size < 1:
            raise ValueError("a sample set needs at least one sample")
        _check_distinct(self.points, "sample points")
        if active_mask is None:
            mask = np.ones(self.points.size, dtype=bool)
        else:
            mask = np.array(active_mask, dtype=bool)
            if mask.shape != self.points.shape:
                raise ValueError("active_mask length does not match points")
        mask.flags.writeable = False
        self.active_mask = mask
        self._levy = None  # (key, LevySystem) of the last levy_system call

    @property
    def size(self):
        return self.points.size

    @property
    def active_count(self):
        return int(np.count_nonzero(self.active_mask))

    def active_indices(self):
        return np.nonzero(self.active_mask)[0]

    def active_points(self):
        return self.points[self.active_mask]

    def active_values(self):
        return self.values[self.active_mask]

    def levy_system(self, supports, interp_values):
        """The LevySystem of these supports over the active samples.

        Built once per support set: a call with the same support and value
        bytes as the last one returns the same object. The system keeps
        read-only copies of the two arrays, never the caller's.
        """
        lam = np.asarray(supports, dtype=complex)
        h = np.asarray(interp_values, dtype=complex)
        key = (lam.tobytes(), h.tobytes())
        if self._levy is None or self._levy[0] != key:
            system = assemble_levy_system(
                self.active_points(), self.active_values(), lam.copy(), h.copy()
            )
            for arr in vars(system).values():
                arr.flags.writeable = False
            self._levy = (key, system)
        return self._levy[1]

    def deactivate(self, index):
        """Return a new SampleSet with sample `index` marked interpolated; it
        shares the checked, read-only points and values and caches nothing."""
        index = int(index)
        if not self.active_mask[index]:
            raise ValueError("sample %d is already interpolated" % index)
        mask = self.active_mask.copy()
        mask[index] = False
        mask.flags.writeable = False
        smaller = copy.copy(self)
        smaller.active_mask = mask
        smaller._levy = None
        return smaller


# Cauchy entries per row block of model evaluation: 16 bytes each, 64 KB per
# array. That stays below glibc's 128 KiB mmap threshold (see
# RationalModel.__call__) and below numpy's 256 KB threshold for reusing a
# temporary operand in place, which computes `x * (y - s)` as `(y - s) * x`;
# the AVX-512 complex product, one fused multiply-add per part, rounds the
# imaginary part of the two orders apart.
_BLOCK = 4096
# Points per block of Realization.transfer: its (3, n) state, 48 bytes a
# point, stays below the same mmap threshold (127,968 bytes), and each (n,)
# temporary (42 KB) below numpy's in-place reuse.
_TRANSFER_BLOCK = 2666
# Below this sum of the largest real or imaginary parts of the points and
# supports, no part of z - lambda exceeds half the double range, so neither
# the difference nor numpy's complex reciprocal of it (Smith's algorithm,
# whose denominator is up to twice the larger part) overflows. With every
# part of the supports below _WIDE_SUPPORTS, no finite z - lambda rounds
# past the largest double, so model evaluation checks the points only above.
_WIDE = 2.0 ** 1022
_WIDE_SUPPORTS = 2.0 ** 969


class RationalModel:
    """A barycentric rational function of degree k - 1 on k supports.

    A model with one nonzero weight is the constant h_j of its support,
    up to rounding: it evaluates as the ratio like any other. Calling the
    model evaluates it over its supports of nonzero weight only, bit for bit
    as its copy without the others, which add nothing to either sum; at a
    support of nonzero weight the stored value is returned exactly
    (removable singularity). The numerator's coefficients are formed as
    ``values * weights``, h_j w_j, the order ``LevySystem.numerators`` and
    ``Realization.c`` use: numpy's AVX-512 complex product rounds the
    imaginary parts of h*w and w*h apart, so in this order the model
    evaluates at a fit's active samples bit for bit as its LevySystem. A
    model whose h*w overflows raises ValueError.
    """

    def __init__(self, supports, values, weights):
        self.supports = _as_complex_vector(supports, "supports")
        self.values = _as_complex_vector(values, "values")
        self.weights = _as_complex_vector(weights, "weights")
        if not (self.supports.size == self.values.size == self.weights.size):
            raise ValueError("supports, values and weights must have equal length")
        if self.supports.size < 1:
            raise ValueError("a barycentric model needs at least one support point")
        _check_distinct(self.supports, "support points")
        live = self.weights != 0
        if not live.any():
            raise ValueError("at least one weight must be nonzero")
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            hw = self.values * self.weights
        if not np.isfinite(hw).all():
            raise ValueError("h*w overflows: the model is not finite")
        # what __call__ evaluates: the supports of nonzero weight, in order
        self._live = tuple(a[live] for a in (self.supports, self.values, self.weights, hw))
        self._support_top = float(np.abs(self._live[0].view(float)).max())

    @classmethod
    def barycentric(cls, supports, values, weights):
        return cls(supports, values, weights)

    @property
    def is_constant(self):
        """True when exactly one weight is nonzero."""
        return self._live[0].size == 1

    @property
    def k(self):
        """Number of support points, of zero weight too."""
        return self.supports.size

    @property
    def degree(self):
        """Rational degree, k - 1."""
        return self.k - 1

    def __call__(self, z):
        """Evaluate the model at one or more points (scalar in, scalar out).

        At a support of nonzero weight the stored value is returned exactly.
        No call searches the points for supports: at one, 1 / (z - lambda)
        is not finite, so the point reaches the rescue below, which alone
        tells such points apart and gives them the stored value. Every
        other point keeps the bits of the plain formula unless its
        denominator or ratio is not finite, a zero denominator included:
        within about 2^-1024 of a support 1 / (z - lambda) overflows, a
        little farther out the sums or their ratio can, and far from small
        supports, where both parts of z - lambda reach 2^1023, numpy's
        reciprocal of every one reads 0. Such a point is evaluated again
        with every z - lambda divided by the power of two of its nearest
        one, which is exact and leaves the ratio as it is: only a
        denominator that stays zero, a pole, raises, and a nan point reads
        nan. Where the parts of the points and supports are large enough
        for z - lambda or its reciprocal to overflow, which would drop a
        term without a trace, all of them are scaled by 2^-2 first: the
        ratio is invariant.

        Points are processed in row blocks of about 64 KB of Cauchy entries,
        so the temporaries of a call stay small whatever the number of
        points. That keeps the cost of a call independent of what the heap
        went through before: glibc serves allocations above its mmap
        threshold (128 KB until the process frees a larger block) with fresh
        mappings, and whole-array temporaries would then be mapped, faulted
        in and unmapped on every call.
        """
        scalar_in = np.isscalar(z) or np.shape(z) == ()
        zv = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        lam, h, w, hw = self._live
        x = zv  # the points computed with
        if self._support_top >= _WIDE_SUPPORTS and (
                self._support_top + float(np.abs(zv.view(float)).max(initial=0.0)) >= _WIDE):
            x, lam = (np.ldexp(a.view(float), -2).view(complex) for a in (zv, lam))
        num = np.empty(zv.size, dtype=complex)
        den = np.empty(zv.size, dtype=complex)
        # Results equal those of one whole-array product bit for bit, except
        # that numpy computes a one-row product as a dot, which sums in
        # another order: so no block has one row unless the input does.
        rows = max(2, _BLOCK // lam.size)
        last = zv.size - 1
        # rows whose den or ratio is not finite are evaluated again below,
        # so no warning is due for them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, max(last, 1), rows):
                stop = start + rows if start + rows < last else zv.size
                cauchy = x[start:stop, None] - lam[None, :]
                np.divide(1.0, cauchy, out=cauchy)  # in place; rounds like 1.0 / cauchy
                # two matrix-vector products, not one product with a two-column
                # matrix: the latter sums in another order and moves the last bits
                np.matmul(cauchy, hw, out=num[start:stop])
                np.matmul(cauchy, w, out=den[start:stop])
            r = num / den
            # r . den is not finite where an entry of either is not: where
            # den is not, at a live support too, where it is zero (r is
            # not), and where num / den overflows, inside numpy's complex
            # division too (a subnormal den or large num and den); a nan
            # point keeps its nan
            if not cmath.isfinite(r.dot(den)):
                redo = np.flatnonzero(~(np.isfinite(den) & np.isfinite(r) | np.isnan(zv)))
                # a point at a live support is here too: it takes the stored
                # value, and only the other rows are rescaled, as one call
                at = zv[redo, None] == self._live[0]
                hit = at.any(axis=1)
                r[redo[hit]] = h[at[hit].argmax(axis=1)]
                redo = redo[~hit]
                if redo.size:
                    r[redo], den[redo] = self._rescaled(x[redo], lam)
                    pole = redo[den[redo] == 0]
                    if pole.size:
                        raise PoleAtPointError("denominator vanishes at z = %s" % zv[pole[0]])
        if scalar_in:
            return complex(r[0])
        return r.reshape(np.shape(z))

    def _rescaled(self, x, lam):
        """(r, den) at points `x` off the live supports `lam`, every
        z - lambda of a point divided by the power of two of its nearest one.
        __call__ finds its points at a live support in the rescue branch,
        the one place that compares points with supports, and passes only
        the others here.

        Nearest is by the larger of the real and imaginary parts, which the
        scaling brings into [1, 2), so no reciprocal exceeds 1 in modulus.
        A power-of-two scale is exact, so the ratio is kept and a pole's den
        stays zero. A support 2^1024 times as far as the nearest gives a
        reciprocal of 1 / inf, or nan where both parts overflow: it counts
        as 0. A point whose nearest difference is exactly zero, one that the
        2^-2 scaling of wide supports moved onto a support, takes that
        support's value. Each row is summed on its own, not as a matrix
        product, which numpy computes for one row as a dot in another
        order: at the same scale, a point reads the same alone and among
        others.
        """
        _, h, w, hw = self._live
        cauchy = x[:, None] - lam[None, :]
        parts = np.maximum(np.abs(cauchy.real), np.abs(cauchy.imag))
        top = parts.min(axis=1)
        cauchy = np.ldexp(cauchy.view(float), 1 - np.frexp(top)[1][:, None]).view(complex)
        np.divide(1.0, cauchy, out=cauchy)
        cauchy[np.isnan(cauchy)] = 0
        den = (cauchy * w).sum(axis=1)
        r = (cauchy * hw).sum(axis=1) / den
        on = top == 0
        r[on], den[on] = h[parts[on].argmin(axis=1)], 1.0
        return r, den


class Realization:
    """Descriptor state-space realization (E, A, b, c) of a barycentric model.

    This is the arrowhead pencil of Nakatsukasa, Sete & Trefethen (SISC
    2018). Row i < k-1 of E carries +1 in column 0 and -1 in column i+1; the
    same rows of A carry lambda_0 and -lambda_{i+1}. The last row of A holds
    the negated weights, b = e_{k-1} and c = h*w, so the transfer function
    c^T (zE - A)^{-1} b equals the rational itself (the variant with the
    roles of b and c swapped produces 1/r instead). The pencil is singular
    exactly where the model has a pole and at the support points of zero
    weight, where the model itself is finite. The four arrays are read-only.
    A one-support model realizes at order 1, E = 0, A = -w_0, b = 1 and
    c = h_0 w_0, whose transfer function is the constant h_0 w_0 / w_0.
    """

    def __init__(self, model):
        lam, k = model.supports, model.k
        i = np.arange(k - 1)
        self.E = np.zeros((k, k), dtype=complex)
        self.A = np.zeros((k, k), dtype=complex)
        self.E[i, 0] = 1.0
        self.E[i, i + 1] = -1.0
        self.A[i, 0] = lam[0]
        self.A[i, i + 1] = -lam[1:]
        self.A[k - 1] = -model.weights
        self.b = np.zeros(k, dtype=complex)
        self.b[k - 1] = 1.0
        self.c = model.values * model.weights
        for arr in (self.E, self.A, self.b, self.c):
            arr.flags.writeable = False

    @property
    def order(self):
        return self.c.size

    def transfer(self, z):
        """Evaluate c^T (zE - A)^{-1} b at one or more points.

        Solves (zE - A)^T y = c and returns b^T y = y_{k-1}, by Gaussian
        elimination on [(zE - A)^T | c]. Its row 0 holds z - lambda_0 in
        columns 0..k-2; row j+1 holds lambda_{j+1} - z in column j and, unless
        w_{j+1} = 0, entries in the last two columns. At column j each point
        pivots between the carried row and row j+1 on the larger modulus and
        carries the other row minus a multiple of the pivot row, which is
        again one value `a` over the columns before the last, then `last`
        and `rhs`. The three are one (3, n) array over a block of
        _TRANSFER_BLOCK points, scaled by one product per column; `last` and
        `rhs` then gain the multiple of row j+1's two entries, where w_{j+1}
        is nonzero. That is O(k) work per point, and the result is the last
        right-hand side over the last pivot.

        Raises PoleAtPointError, naming the point, where a pivot is exactly
        zero: at a pole, or at a support point of zero weight (where the
        model itself is finite).
        """
        zv = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        k = self.order
        A, c = self.A, self.c
        lam = -np.diagonal(A, 1)  # lambda_1 .. lambda_{k-1}
        out = np.empty(zv.size, dtype=complex)
        for lo in range(0, zv.size, _TRANSFER_BLOCK):
            zb = zv[lo:lo + _TRANSFER_BLOCK]
            S = np.empty((3, zb.size), dtype=complex)
            # views: the carried row over columns 0..k-2, in column k-1, and
            # its right-hand side
            a, last, rhs = S
            np.subtract(zb, A[0, 0], out=a)
            last[:] = -A[k - 1, 0]
            rhs[:] = c[0]
            for j in range(k - 1):
                new = lam[j] - zb
                swap = np.abs(new) > np.abs(a)
                pivot = np.where(swap, new, a)
                if not pivot.all():
                    _raise_singular(zb, pivot)
                minus_mult = np.where(swap, a, new)
                np.negative(minus_mult, out=minus_mult)
                minus_mult /= pivot
                # the row that was not the pivot, minus mult times the pivot
                S *= np.where(swap, 1, minus_mult)
                if A[k - 1, j + 1] != 0:
                    # multiplier first, as in S * keep: the AVX-512 complex
                    # product rounds x*y and y*x apart (see _BLOCK)
                    add = np.where(swap, minus_mult, 1)
                    last += add * -A[k - 1, j + 1]
                    rhs += add * c[j + 1]
            if not last.all():
                _raise_singular(zb, last)
            # + 0 turns a -0 part into +0, as the sum b^T y = 0 + y_{k-1} does
            out[lo:lo + _TRANSFER_BLOCK] = rhs / last + 0
        if np.isscalar(z) or np.shape(z) == ():
            return complex(out[0])
        return out.reshape(np.shape(z))


def _raise_singular(z, pivots):
    where = z[np.flatnonzero(pivots == 0)[0]]
    raise PoleAtPointError("the pencil zE - A is singular at z = %s" % where)


def realize(model):
    """The state-space realization of a barycentric model; see Realization."""
    return Realization(model)
