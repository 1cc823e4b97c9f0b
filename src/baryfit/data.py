"""Built-in test functions, normalized error metrics, and file formats.

File formats kept here: sample CSV (header ``z_re,z_im,H_re,H_im``), fit
trace CSV (header ``k,degree,support_re,support_im,raw_active_sq_err,
l2_norm,linf_norm,branch``), model JSON, and the four-file realization dump.
All floating-point output uses 17 significant digits so a save/load round
trip is bit-exact.
"""

import csv
import json
import math
import os
from typing import NamedTuple

import numpy as np

from .core import NumericalError, RationalModel, SampleSet, _check_integer

__all__ = [
    "MetricPair",
    "BUILTIN_FUNCTIONS",
    "metrics",
    "residual_metrics",
    "sample_builtin",
    "load_samples",
    "save_samples",
    "save_trace",
    "save_model",
    "load_model",
    "save_realization",
]

SAMPLE_HEADER = ["z_re", "z_im", "H_re", "H_im"]
TRACE_HEADER = "k,degree,support_re,support_im,raw_active_sq_err,l2_norm,linf_norm,branch"


def _fmt(x):
    return "%.17g" % x


class MetricPair(NamedTuple):
    l2: float
    linf: float


def metrics(model, data):
    """Normalized l2 and l-inf errors of the model over the full sample set.

    l2 = sqrt(sum |H - r|^2) / sqrt(sum |H|^2) and
    linf = max |H - r| / max |H|, both over all M samples regardless of the
    active partition: `residual_metrics` of one evaluation of the model at
    every sample. The fits take their trace metrics from that helper too,
    fed with the residuals their step already formed, so a trace row equals
    this function of the step's model bit for bit.
    """
    return residual_metrics(np.abs(data.values - model(data.points)), data.values)


def residual_metrics(res, values):
    """MetricPair of the residuals res_i = |H_i - r_i| at every sample
    against the sample values H; an inf residual (a pole at a sample) reads
    inf in both. Raises NumericalError when every H is zero, since the
    normalizations are undefined then. Both sums of squares are taken after
    dividing by the same power of two, near max |H|, so they neither
    overflow nor underflow at any scale of H, and the ratio is exact.
    """
    mags = np.abs(values)
    h_linf = float(mags.max())
    if h_linf == 0.0:
        raise NumericalError("all sample values are zero; normalized errors undefined")
    e = math.frexp(h_linf)[1]
    num, den = np.ldexp(res, -e), np.ldexp(mags, -e)
    num *= num
    den *= den
    l2 = float(np.sqrt(num.sum() / den.sum()))
    linf = float(res.max() / h_linf)
    return MetricPair(l2, linf)


def _triwave(x):
    return 2.0 * np.abs(3.0 * x - np.floor(3.0 * x + 0.5))


BUILTIN_FUNCTIONS = {
    "abs": np.abs,
    "relu": lambda x: np.maximum(x, 0.0),
    "abs_sin3pi": lambda x: np.abs(np.sin(3.0 * np.pi * x)),
    "triwave": _triwave,
}


def sample_builtin(name, count):
    """Sample a built-in function on `count` equidistant points of [-1, 1].

    The grid is assembled from mirrored halves so that point j and point
    count-1-j sum to exactly zero (the naive -1 + 2j/(count-1) formula is
    off by an ulp at many indices); endpoints are exactly -1 and 1 and the
    midpoint of odd grids is exactly 0.
    """
    if name not in BUILTIN_FUNCTIONS:
        raise ValueError(
            "unknown function %r; choose one of %s"
            % (name, ", ".join(sorted(BUILTIN_FUNCTIONS)))
        )
    count = _check_integer(count, "count", 2)
    half = (count + 1) // 2
    left = -1.0 + 2.0 * np.arange(half) / (count - 1)
    x = np.empty(count)
    x[:half] = left
    x[count - half :] = -left[::-1]
    if count % 2:
        x[count // 2] = 0.0
    return SampleSet(x, BUILTIN_FUNCTIONS[name](x))


def write_complex_rows(f, rows, header=""):
    """Write a 2-d complex array to the open text file `f` as CSV lines of
    re,im column pairs, 17 significant digits each, under `header` (no
    header line when empty); `read_complex_rows` reads them back bit for bit.
    """
    # (re, im) float pairs are the memory layout of complex128
    rows = np.ascontiguousarray(rows, dtype=complex).view(float)
    np.savetxt(f, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def save_samples(path, data):
    with open(path, "w", newline="") as f:
        rows = np.column_stack([data.points, data.values])
        write_complex_rows(f, rows, ",".join(SAMPLE_HEADER))


def read_complex_rows(path, headers):
    """(values, lines) of a CSV of re,im column pairs under one of `headers`:
    values[i, j] is column pair j of data row i, lines[i] its file line.

    Blank lines are skipped; an empty file, another header, a row of another
    width, a non-numeric entry or no data rows raise ValueError.
    """
    expected = " or ".join(",".join(h) for h in headers)
    rows, lines = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ValueError("%s: empty file, expected header %s" % (path, expected))
        if header not in headers:
            raise ValueError("%s: expected header %s, got %s" % (path, expected, header))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError("%s: line %d: expected %d columns, got %d"
                                 % (path, lineno, len(header), len(row)))
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError("%s: line %d: non-numeric entry in %s" % (path, lineno, row)) from None
            lines.append(lineno)
    if not rows:
        raise ValueError("%s: no data rows" % path)
    # (re, im) float pairs are the memory layout of complex128
    return np.asarray(rows, dtype=float).view(complex), np.asarray(lines)


def load_samples(path):
    """Read a sample CSV; duplicate points are rejected with their file lines."""
    values, lines = read_complex_rows(path, [SAMPLE_HEADER])
    pts = values[:, 0]
    _, first, counts = np.unique(pts, return_index=True, return_counts=True)
    if np.any(counts > 1):
        dups = ["z = %s at lines %s" % (pts[i], [int(n) for n in lines[pts == pts[i]]])
                for i in first[counts > 1]]
        raise ValueError("%s: duplicate sample points: %s" % (path, "; ".join(dups)))
    return SampleSet(pts, values[:, 1])


def save_trace(path, trace):
    with open(path, "w", newline="") as f:
        f.write(TRACE_HEADER + "\n")
        for rec in trace.records:
            f.write(
                "%d,%d,%s,%s,%s,%s,%s,%s\n"
                % (
                    rec.k,
                    rec.degree,
                    _fmt(rec.support.real),
                    _fmt(rec.support.imag),
                    _fmt(rec.raw_active_sq_err),
                    _fmt(rec.l2_norm),
                    _fmt(rec.linf_norm),
                    rec.branch,
                )
            )


def _json_complex(value):
    return '{"re": %s, "im": %s}' % (_fmt(value.real), _fmt(value.imag))


def save_model(path, model):
    """Write a model JSON file.

    Hand-rolled emitter: the stdlib serializer writes shortest round-trip
    reprs, while this format pins 17 significant digits.
    """
    arrays = []
    for key, arr in (
        ("supports", model.supports),
        ("values", model.values),
        ("weights", model.weights),
    ):
        items = ", ".join(_json_complex(v) for v in arr)
        arrays.append('"%s": [%s]' % (key, items))
    doc = '{"kind": "barycentric", %s}' % ", ".join(arrays)
    with open(path, "w") as f:
        f.write(doc + "\n")


def _parse_complex(obj, where):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError("%s: expected an object with re/im fields" % where)
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError):
        raise ValueError("%s: re and im must be numbers, got %r" % (where, obj)) from None


def load_model(path):
    with open(path) as f:
        # ints go through float(): the emitter writes -0.0 as "-0", which
        # would otherwise decode as int 0 and lose the sign
        doc = json.load(f, parse_int=float)
    if not isinstance(doc, dict):
        raise ValueError("%s: expected a JSON object, got %s" % (path, type(doc).__name__))
    kind = doc.get("kind")
    if kind != "barycentric":
        raise ValueError("unknown model kind %r" % kind)
    fields = {}
    for key in ("supports", "values", "weights"):
        seq = doc.get(key)
        if not isinstance(seq, list):
            raise ValueError("model file misses array %r" % key)
        fields[key] = [_parse_complex(v, "%s[%d]" % (key, i)) for i, v in enumerate(seq)]
    return RationalModel.barycentric(**fields)


def save_realization(directory, realization):
    """Write E.csv, A.csv, b.csv and c.csv (re,im interleaved columns under
    the header re_1,im_1,re_2,im_2,...; b and c are single columns)."""
    os.makedirs(directory, exist_ok=True)
    r = realization
    for name, mat in (("E", r.E), ("A", r.A), ("b", r.b[:, None]), ("c", r.c[:, None])):
        header = ",".join("re_%d,im_%d" % (j, j) for j in range(1, mat.shape[1] + 1))
        with open(os.path.join(directory, name + ".csv"), "w", newline="") as f:
            write_complex_rows(f, mat, header)
