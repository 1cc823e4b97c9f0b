"""Built-in samplers, normalized metrics, and the CSV/JSON file formats."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from baryfit import (
    FitConfig,
    FitTrace,
    RationalModel,
    SampleSet,
    TraceRecord,
    aaa_fit,
    metrics,
    realize,
    sample_builtin,
    save_model,
    save_trace,
)
from baryfit.core import NumericalError
from baryfit.data import (
    SAMPLE_HEADER,
    TRACE_HEADER,
    load_model,
    load_samples,
    save_realization,
    save_samples,
)
from helpers import random_model


# ---------------------------------------------------------------- samplers


def test_two_point_grid_is_the_interval_ends():
    data = sample_builtin("abs", 2)
    assert_array_equal(data.points, [-1.0, 1.0])
    assert_array_equal(data.values, [1.0, 1.0])


def test_grid_values_on_exact_quarter_points():
    # count 9 puts every node on an exact binary fraction
    x = sample_builtin("abs", 9).points
    assert_array_equal(x, [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    assert_array_equal(sample_builtin("abs", 9).values, np.abs(x))
    assert_array_equal(
        sample_builtin("relu", 9).values, [0, 0, 0, 0, 0, 0.25, 0.5, 0.75, 1.0]
    )
    assert_array_equal(
        sample_builtin("triwave", 9).values, [0, 0.5, 1, 0.5, 0, 0.5, 1, 0.5, 0]
    )
    assert_allclose(
        sample_builtin("abs_sin3pi", 9).values,
        np.abs(np.sin(3 * np.pi * x)),
        rtol=0,
        atol=1e-15,
    )


def test_abs_sin3pi_peak_value():
    data = sample_builtin("abs_sin3pi", 9)
    assert_allclose(data.values[6], 1.0, rtol=1e-15)  # x = 0.5


def test_grid_is_exactly_antisymmetric():
    for count in (2, 10, 11, 101, 501, 1000):
        x = sample_builtin("abs", count).points
        assert np.all(x + x[::-1] == 0.0)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0.0)
        if count % 2:
            assert x[count // 2] == 0.0


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        sample_builtin("abs", 1)
    with pytest.raises(ValueError, match="unknown function"):
        sample_builtin("sinc", 16)
    for count in (10.7, "12"):
        with pytest.raises(ValueError, match="integer"):
            sample_builtin("abs", count)
    assert sample_builtin("abs", np.int64(12)).size == 12


# ----------------------------------------------------------------- metrics


def test_metrics_of_an_exact_model_are_zero():
    data = SampleSet([0.0, 1.0, 2.0], [2.0, 2.0, 2.0])
    pair = metrics(RationalModel.constant(2.0), data)
    assert pair.l2 == 0.0 and pair.linf == 0.0


def test_metrics_of_the_zero_model_are_one():
    data = SampleSet([0.0, 1.0], [3.0 + 4.0j, -2.0])
    pair = metrics(RationalModel.constant(0.0), data)
    assert_allclose([pair.l2, pair.linf], [1.0, 1.0], rtol=1e-15)


def test_metrics_hand_values():
    data = SampleSet([0.0, 1.0], [1.0, 2.0])
    pair = metrics(RationalModel.constant(1.0), data)
    assert_allclose(pair.l2, 1.0 / np.sqrt(5.0), rtol=1e-15)
    assert pair.linf == 0.5


def test_metrics_reject_identically_zero_data():
    data = SampleSet([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(NumericalError):
        metrics(RationalModel.constant(1.0), data)


def test_metrics_are_exact_under_power_of_two_scaling():
    data = sample_builtin("relu", 101)
    model, _ = aaa_fit(data, FitConfig(max_degree=6, tol=0.0))
    want = metrics(model, data)
    assert 0.0 < want.l2 < np.inf
    for j in (600, -600):
        scaled = RationalModel.barycentric(
            model.supports, np.ldexp(model.values.real, j), model.weights
        )
        got = metrics(scaled, SampleSet(data.points, np.ldexp(data.values.real, j)))
        assert got == want
    for c in (1e200, 1e-200):
        scaled = RationalModel.barycentric(model.supports, c * model.values, model.weights)
        got = metrics(scaled, SampleSet(data.points, c * data.values))
        assert_allclose(got, want, rtol=1e-12)


# ------------------------------------------------------------- sample files


def test_sample_row_parses_real_and_imag_columns(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(",".join(SAMPLE_HEADER) + "\n0,1,2,-3\n")
    data = load_samples(path)
    assert_array_equal(data.points, [1.0j])
    assert_array_equal(data.values, [2.0 - 3.0j])


def test_sample_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(211)
    data = SampleSet(
        rng.standard_normal(1000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 1000)),
        1e3 * rng.standard_normal(1000) + 1e-3j * rng.standard_normal(1000),
    )
    path = tmp_path / "round.csv"
    save_samples(path, data)
    back = load_samples(path)
    assert_array_equal(back.points, data.points)
    assert_array_equal(back.values, data.values)


def test_duplicate_points_report_their_lines(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(",".join(SAMPLE_HEADER) + "\n0,0,1,0\n1,0,1,0\n0,0,2,0\n")
    with pytest.raises(ValueError, match="duplicate") as err:
        load_samples(path)
    assert "2" in str(err.value) and "4" in str(err.value)


def test_duplicate_report_counts_blank_lines(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(",".join(SAMPLE_HEADER) + "\n0,0,1,0\n\n1,0,1,0\n0,0,2,0\n")
    with pytest.raises(ValueError, match=r"at lines \[2, 5\]"):
        load_samples(path)


def test_malformed_rows_report_their_lines(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text(",".join(SAMPLE_HEADER) + "\n1,0,1,0\n1,2,3\n")
    with pytest.raises(ValueError, match="line 3"):
        load_samples(short)
    words = tmp_path / "words.csv"
    words.write_text(",".join(SAMPLE_HEADER) + "\nx,0,0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_samples(words)


def test_sample_file_header_and_emptiness_checks(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n1,0,1,0\n")
    with pytest.raises(ValueError, match="header"):
        load_samples(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_samples(empty)
    bare = tmp_path / "bare.csv"
    bare.write_text(",".join(SAMPLE_HEADER) + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_samples(bare)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(",".join(SAMPLE_HEADER) + "\n0,0,1,0\n\n1,0,2,0\n")
    data = load_samples(path)
    assert data.size == 2


# -------------------------------------------------------------- model files


def test_constant_model_round_trip(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, RationalModel.constant(1.5 - 2.25j))
    back = load_model(path)
    assert back.is_constant and back.constant_value == 1.5 - 2.25j


def test_negative_zero_survives_the_round_trip(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, RationalModel.constant(complex(-0.0, -0.0)))
    value = load_model(path).constant_value
    assert np.signbit(value.real) and np.signbit(value.imag)


def test_barycentric_model_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(223)
    model = random_model(rng, 7)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert_array_equal(back.supports, model.supports)
    assert_array_equal(back.values, model.values)
    assert_array_equal(back.weights, model.weights)


def test_model_file_validation(tmp_path):
    bad_kind = tmp_path / "kind.json"
    bad_kind.write_text('{"kind": "pade"}\n')
    with pytest.raises(ValueError, match="kind"):
        load_model(bad_kind)
    missing = tmp_path / "missing.json"
    missing.write_text('{"kind": "barycentric", "supports": [{"re": 1, "im": 0}]}\n')
    with pytest.raises(ValueError):
        load_model(missing)
    bad_complex = tmp_path / "complex.json"
    bad_complex.write_text('{"kind": "constant", "constant": {"re": 1}}\n')
    with pytest.raises(ValueError):
        load_model(bad_complex)
    not_json = tmp_path / "mangled.json"
    not_json.write_text('{"kind": ')
    with pytest.raises(ValueError):  # json decode errors are ValueError
        load_model(not_json)
    top_level = tmp_path / "list.json"
    top_level.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="expected a JSON object, got list"):
        load_model(top_level)
    for part in ("null", "[1]", '"one"'):
        bad_part = tmp_path / "part.json"
        bad_part.write_text('{"kind": "barycentric", "supports": [{"re": 0, "im": 0}], '
                            '"values": [{"re": %s, "im": 0}], '
                            '"weights": [{"re": 1, "im": 0}]}\n' % part)
        with pytest.raises(ValueError, match=r"values\[0\]: re and im must be numbers"):
            load_model(bad_part)


# -------------------------------------------------------------- trace files


def test_trace_file_layout(tmp_path):
    trace = FitTrace(
        records=[
            TraceRecord(1, 0, 0.5 + 0.0j, 2.25, 0.5, 0.25, "levy"),
            TraceRecord(2, 1, -1.0 + 2.0j, 1e-30, 1e-15, 1e-14, "wf-from-sk"),
        ]
    )
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[1] == "1,0,0.5,0,2.25,0.5,0.25,levy"
    assert lines[2] == "2,1,-1,2,1.0000000000000001e-30,1.0000000000000001e-15,1e-14,wf-from-sk"


# -------------------------------------------------------- realization files


def test_realization_directory_contents(tmp_path):
    model = RationalModel.barycentric([1.0 + 0j], [2.0 + 0j], [3.0 + 0j])
    outdir = tmp_path / "real"
    save_realization(outdir, realize(model))
    assert sorted(p.name for p in outdir.iterdir()) == ["A.csv", "E.csv", "b.csv", "c.csv"]
    assert (outdir / "E.csv").read_text() == "re_1,im_1\n0,0\n"
    assert (outdir / "A.csv").read_text() == "re_1,im_1\n-3,-0\n"
    assert (outdir / "b.csv").read_text() == "re_1,im_1\n1,0\n"
    assert (outdir / "c.csv").read_text() == "re_1,im_1\n6,0\n"


def test_realization_matrix_rows(tmp_path):
    rng = np.random.default_rng(227)
    model = random_model(rng, 3)
    outdir = tmp_path / "real3"
    save_realization(outdir, realize(model))
    e_lines = (outdir / "E.csv").read_text().splitlines()
    assert e_lines[0] == "re_1,im_1,re_2,im_2,re_3,im_3"
    assert len(e_lines) == 4
    b_lines = (outdir / "b.csv").read_text().splitlines()
    assert b_lines[1:] == ["0,0", "0,0", "1,0"]
