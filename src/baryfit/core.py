"""Sample sets, barycentric rational models, and state-space realization.

A barycentric rational model is the ratio

    r(z) = (sum_j w_j h_j / (z - lambda_j)) / (sum_j w_j / (z - lambda_j)),

which interpolates h_j at the support point lambda_j whenever w_j != 0.
The degree-0 variant is a plain constant. Sample data lives in immutable
:class:`SampleSet` objects carrying an active/interpolated partition.
"""

import copy

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
    194-994 x 6 against 1 us for a hit (Intel Xeon, 2 cores), so the
    perfbench check on ``mor`` takes 1.2-1.65x as long without the cache.

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


# Cauchy entries per row block of model evaluation, and points per block of
# Realization.transfer: 16 bytes each, 64 KB per array. Both stay below numpy's
# 256 KB threshold for reusing a temporary operand in place, which computes
# `x * (y - s)` as `(y - s) * x`; the AVX-512 complex product, one fused
# multiply-add per part, rounds the imaginary part of the two orders apart.
_BLOCK = 4096


class RationalModel:
    """A barycentric rational function, or a degree-0 constant.

    Use :meth:`constant` or :meth:`barycentric` to construct. Calling the
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

    def __init__(self, supports=None, values=None, weights=None, constant=None):
        if constant is not None:
            if supports is not None or values is not None or weights is not None:
                raise ValueError("constant model takes no barycentric data")
            constant = complex(constant)
            if not (np.isfinite(constant.real) and np.isfinite(constant.imag)):
                raise ValueError("constant value must be finite")
            self.constant_value = constant
            self.supports = None
            self.values = None
            self.weights = None
            return
        self.constant_value = None
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
        # live supports in numpy's complex order, to find points that hit one
        self._support_order = np.argsort(self._live[0])
        self._sorted_supports = self._live[0][self._support_order]

    @classmethod
    def constant(cls, value):
        return cls(constant=value)

    @classmethod
    def barycentric(cls, supports, values, weights):
        return cls(supports=supports, values=values, weights=weights)

    @property
    def is_constant(self):
        return self.constant_value is not None

    @property
    def k(self):
        """Number of support points (0 for the constant variant)."""
        return 0 if self.is_constant else self.supports.size

    @property
    def degree(self):
        """Rational degree: k - 1 support points, 0 for the constant."""
        return max(self.k - 1, 0)

    def __call__(self, z):
        """Evaluate the model at one or more points (scalar in, scalar out).

        Points are processed in row blocks of about 64 KB of Cauchy entries,
        so the temporaries of a call stay small whatever the number of
        points. That keeps the cost of a call independent of what the heap
        went through before: glibc serves allocations above its mmap
        threshold (128 KB until the process frees a larger block) with fresh
        mappings, and whole-array temporaries would then be mapped, faulted
        in and unmapped on every call.
        """
        scalar_in = np.isscalar(z) or np.shape(z) == ()
        if self.is_constant:
            if scalar_in:
                return self.constant_value
            return np.full(np.shape(z), self.constant_value, dtype=complex)
        zv = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        lam, h, w, hw = self._live
        hit_row, hit_col = self._support_hits(zv)
        num = np.empty(zv.size, dtype=complex)
        den = np.empty(zv.size, dtype=complex)
        # Results equal those of one whole-array product bit for bit, except
        # that numpy computes a one-row product as a dot, which sums in
        # another order: so no block has one row unless the input does.
        rows = max(2, _BLOCK // lam.size)
        last = zv.size - 1
        for start in range(0, max(last, 1), rows):
            stop = start + rows if start + rows < last else zv.size
            cauchy = zv[start:stop, None] - lam[None, :]
            if hit_row.size:
                in_block = slice(*np.searchsorted(hit_row, (start, stop)))
                cauchy[hit_row[in_block] - start, hit_col[in_block]] = 1.0
            np.divide(1.0, cauchy, out=cauchy)  # in place; rounds like 1.0 / cauchy
            # two matrix-vector products, not one product with a two-column
            # matrix: the latter sums in another order and moves the last bits
            np.matmul(cauchy, hw, out=num[start:stop])
            np.matmul(cauchy, w, out=den[start:stop])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = num / den
        bad = den == 0
        r[hit_row] = h[hit_col]
        bad[hit_row] = False
        if np.any(bad):
            where = zv[np.nonzero(bad)[0][0]]
            raise PoleAtPointError("denominator vanishes at z = %s" % where)
        if scalar_in:
            return complex(r[0])
        return r.reshape(np.shape(z))

    def _support_hits(self, zv):
        """(rows, columns) with zv[row] == the live support of that column,
        rows ascending."""
        at = np.searchsorted(self._sorted_supports, zv)
        hit_row = np.nonzero(self._sorted_supports.take(at, mode="clip") == zv)[0]
        return hit_row, self._support_order[at[hit_row]]


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
    A constant model raises ValueError.
    """

    def __init__(self, model):
        if model.is_constant:
            raise ValueError("realization needs a barycentric model with k >= 1")
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
        and `rhs`: O(k) work per point, vectorized over blocks of _BLOCK
        points. The result is the last right-hand side over the last pivot.

        Raises PoleAtPointError, naming the point, where a pivot is exactly
        zero: at a pole, or at a support point of zero weight (where the
        model itself is finite).
        """
        zv = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        k = self.order
        E, A, c = self.E, self.A, self.c
        out = np.empty(zv.size, dtype=complex)
        for lo in range(0, zv.size, _BLOCK):
            zb = zv[lo:lo + _BLOCK]
            zero = zb * 0  # z times E's zeros in the last two columns: signed zeros
            a = zb * E[0, 0] - A[0, 0]  # row 0, columns 0..k-2
            last = zero - A[k - 1, 0]
            rhs = zero + c[0]
            for j in range(k - 1):
                new = zb * E[j, j + 1] - A[j, j + 1]
                swap = np.abs(new) > np.abs(a)
                pivot = np.where(swap, new, a)
                if not pivot.all():
                    _raise_singular(zb, pivot)
                minus_mult = -np.where(swap, a, new) / pivot
                # the row that was not the pivot, minus mult times the pivot
                keep = np.where(swap, 1, minus_mult)
                a, last, rhs = a * keep, last * keep, rhs * keep
                if A[k - 1, j + 1] != 0:
                    add = np.where(swap, minus_mult, 1)
                    last += add * (zero - A[k - 1, j + 1])
                    rhs += add * (zero + c[j + 1])
            if not last.all():
                _raise_singular(zb, last)
            # + 0 turns a -0 part into +0, as the sum b^T y = 0 + y_{k-1} does
            out[lo:lo + _BLOCK] = rhs / last + 0
        if np.isscalar(z) or np.shape(z) == ():
            return complex(out[0])
        return out.reshape(np.shape(z))


def _raise_singular(z, pivots):
    where = z[np.flatnonzero(pivots == 0)[0]]
    raise PoleAtPointError("the pencil zE - A is singular at z = %s" % where)


def realize(model):
    """The state-space realization of a barycentric model; see Realization."""
    return Realization(model)
