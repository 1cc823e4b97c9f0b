"""End-to-end command-line tests: files in, files out, exit codes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryfit import FitConfig, NlaaaConfig, RationalModel, cli, realize, save_model
from baryfit.core import SampleSet
from baryfit.data import (
    SAMPLE_HEADER,
    load_model,
    load_samples,
    read_complex_rows,
    save_realization,
    save_samples,
)
from baryfit.refine import RefineConfig
from helpers import rational_samples


def _sample_file(tmp_path, fn, count, name="data.csv"):
    path = tmp_path / name
    assert cli.main(["sample", "--fn", fn, "--count", str(count), "--out", str(path)]) == 0
    return path


def _points_file(tmp_path, points, name="points.csv"):
    path = tmp_path / name
    lines = [",".join(SAMPLE_HEADER[:2])]
    lines += ["%r,%r" % (float(z.real), float(z.imag)) for z in np.asarray(points, dtype=complex)]
    path.write_text("\n".join(lines) + "\n")
    return path


# ------------------------------------------------------------------ sample


def test_sample_writes_a_loadable_grid(tmp_path):
    path = _sample_file(tmp_path, "abs", 5)
    data = load_samples(path)
    assert data.size == 5
    assert len(path.read_text().splitlines()) == 6  # header + 5 rows


def test_sample_rejects_tiny_counts(tmp_path):
    code = cli.main(["sample", "--fn", "abs", "--count", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_sample_rejects_unknown_functions(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["sample", "--fn", "sinc", "--count", "5", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_missing_required_argument_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["sample", "--fn", "abs"])
    assert err.value.code == 2


# --------------------------------------------------------------------- fit


def test_fit_output_is_deterministic(tmp_path):
    data = _sample_file(tmp_path, "triwave", 101)
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / ("trace_%s.csv" % tag)
        model = tmp_path / ("model_%s.json" % tag)
        code = cli.main([
            "fit", "--algo", "nlaaa", "--data", str(data), "--max-degree", "6",
            "--trace", str(trace), "--model", str(model),
        ])
        assert code == 0
        outputs.append((trace.read_bytes(), model.read_bytes()))
    assert outputs[0] == outputs[1]


def test_fit_rejects_refinement_flags_for_plain_aaa(tmp_path, capsys):
    data = _sample_file(tmp_path, "abs", 11)
    code = cli.main(["fit", "--algo", "aaa", "--data", str(data),
                     "--max-degree", "4", "--pmax", "5"])
    assert code == 2
    capsys.readouterr()


def test_fit_rejects_a_negative_seed(tmp_path, caplog):
    data = _sample_file(tmp_path, "relu", 11)
    code = cli.main(["fit", "--algo", "nlaaa", "--data", str(data),
                     "--max-degree", "4", "--seed", "-1"])
    assert code == 2
    assert "rng_seed must be >= 0" in caplog.text


def _capture_configs(monkeypatch, name):
    """Record the config of every call of cli.<name> (aaa_fit or nlaaa_fit)."""
    seen = []
    original = getattr(cli, name)

    def capture(samples, cfg):
        seen.append(cfg)
        return original(samples, cfg)

    monkeypatch.setattr(cli, name, capture)
    return seen


def test_fit_leaves_unset_options_to_the_config_defaults(tmp_path, monkeypatch, capsys):
    data = _sample_file(tmp_path, "relu", 11)
    nlaaa_seen = _capture_configs(monkeypatch, "nlaaa_fit")
    aaa_seen = _capture_configs(monkeypatch, "aaa_fit")
    fit = ["fit", "--data", str(data), "--max-degree", "4"]
    assert cli.main(fit + ["--algo", "nlaaa"]) == 0
    assert cli.main(fit + ["--algo", "nlaaa", "--tol", "1e-6"]) == 0
    assert cli.main(fit + ["--algo", "nlaaa", "--pmax", "3", "--tol-sk", "1e-5", "--tol-wf",
                           "1e-4", "--fallback", "relative", "--seed", "9"]) == 0
    assert cli.main(fit + ["--algo", "aaa"]) == 0
    assert cli.main(["compare", "--data", str(data), "--max-degree", "4",
                     "--out", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    assert nlaaa_seen == [
        NlaaaConfig(max_degree=4),
        NlaaaConfig(max_degree=4, tol=1e-6),
        NlaaaConfig(max_degree=4, refine=RefineConfig(p_max=3, tol_sk=1e-5, tol_wf=1e-4),
                    fallback_mode="relative", rng_seed=9),
        NlaaaConfig(max_degree=4),
    ]
    assert aaa_seen == [FitConfig(max_degree=4), FitConfig(max_degree=4)]


def test_fit_stops_on_tolerance_for_exact_rational_data(tmp_path, capsys):
    rng = np.random.default_rng(233)
    data_path = tmp_path / "rational.csv"
    save_samples(data_path, rational_samples(rng, 5, 201))
    trace = tmp_path / "trace.csv"
    code = cli.main(["fit", "--algo", "aaa", "--data", str(data_path),
                     "--max-degree", "10", "--tol", "1e-20", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("degree=5 ")
    l2 = float(out.split()[1].split("=")[1])
    assert l2 < 1e-10
    assert len(trace.read_text().splitlines()) == 7  # header + six iterations


def test_fit_reports_numerical_failure_for_all_zero_data(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text(",".join(SAMPLE_HEADER) + "\n0,0,0,0\n1,0,0,0\n2,0,0,0\n")
    code = cli.main(["fit", "--algo", "aaa", "--data", str(path), "--max-degree", "2"])
    assert code == 3


def test_fit_missing_data_file_is_a_usage_error(tmp_path):
    code = cli.main(["fit", "--algo", "aaa", "--data", str(tmp_path / "nope.csv"),
                     "--max-degree", "2"])
    assert code == 2


# -------------------------------------------------------------------- eval


def test_eval_prints_interpolated_values_at_supports(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model = RationalModel.barycentric([1.0, -1.0], [2.0, 3.0], [1.0, 1.0])
    save_model(model_path, model)
    points = _points_file(tmp_path, [1.0, -1.0, 0.5])
    assert cli.main(["eval", "--model", str(model_path), "--points", str(points)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2,0"
    assert lines[1] == "3,0"
    got = complex(*map(float, lines[2].split(",")))
    assert_allclose(got, model(0.5 + 0j), rtol=1e-15)


def test_eval_accepts_full_sample_files_as_points(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model = RationalModel.barycentric([0.25], [4.0 - 1.0j], [1.0])
    save_model(model_path, model)
    data = _sample_file(tmp_path, "abs", 7)
    assert cli.main(["eval", "--model", str(model_path), "--points", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = [complex(*map(float, line.split(","))) for line in lines]
    assert got == list(model(load_samples(data).points))


def test_eval_at_a_pole_is_a_numerical_failure(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(model_path, RationalModel.barycentric([1.0, -1.0], [1.0, 1.0], [1.0, 1.0]))
    points = _points_file(tmp_path, [0.0])  # denominator 2z/(z^2-1) vanishes
    code = cli.main(["eval", "--model", str(model_path), "--points", str(points)])
    assert code == 3
    capsys.readouterr()


def test_eval_rejects_a_malformed_model_file(tmp_path, caplog):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"kind": "barycentric", "supports": [{"re": 0, "im": 0}], '
                          '"values": [{"re": null, "im": 0}], '
                          '"weights": [{"re": 1, "im": 0}]}\n')
    points = _points_file(tmp_path, [0.0])
    assert cli.main(["eval", "--model", str(model_path), "--points", str(points)]) == 2
    assert "values[0]: re and im must be numbers" in caplog.text


def test_eval_rejects_foreign_point_headers(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(model_path, RationalModel.barycentric([0.0], [1.0], [1.0]))
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n")
    assert cli.main(["eval", "--model", str(model_path), "--points", str(bad)]) == 2


def test_eval_rejects_rows_of_another_width(tmp_path, caplog):
    model_path = tmp_path / "model.json"
    save_model(model_path, RationalModel.barycentric([0.0], [1.0], [1.0]))
    bad = tmp_path / "wide.csv"
    bad.write_text(",".join(SAMPLE_HEADER[:2]) + "\n0,0\n1,0,2\n")
    assert cli.main(["eval", "--model", str(model_path), "--points", str(bad)]) == 2
    assert "line 3: expected 2 columns" in caplog.text


# ----------------------------------------------------------------- realize


def test_realize_writes_the_four_matrix_files(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(model_path, RationalModel.barycentric([1.0], [2.0], [3.0]))
    outdir = tmp_path / "rom"
    assert cli.main(["realize", "--model", str(model_path), "--out", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["A.csv", "E.csv", "b.csv", "c.csv"]
    assert (outdir / "A.csv").read_text().splitlines()[1] == "-3,-0"


def test_realize_checks_the_transfer_past_a_pole_at_a_probe(tmp_path, caplog):
    model_path = tmp_path / "model.json"
    # the denominator 1/(z+1) + 1/(z-1) vanishes at the first probe, z = 0
    save_model(model_path, RationalModel.barycentric([-1.0, 1.0], [2.0, 4.0], [1.0, 1.0]))
    outdir = tmp_path / "rom"
    with caplog.at_level("INFO", logger="baryfit"):
        assert cli.main(["realize", "--model", str(model_path), "--out", str(outdir)]) == 0
    assert "transfer check at z=0.5" in caplog.text


def test_realize_rejects_constant_models(tmp_path, caplog):
    # the format's one kind is barycentric; a constant is a one-support model
    model_path = tmp_path / "model.json"
    model_path.write_text('{"kind": "constant", "constant": {"re": 2, "im": 0}}\n')
    outdir = tmp_path / "rom"
    assert cli.main(["realize", "--model", str(model_path), "--out", str(outdir)]) == 2
    assert "unknown model kind 'constant'" in caplog.text
    assert not outdir.exists()


def _overflowing_model_file(tmp_path):
    # w*h = 1e200 * 1e200 overflows; written by hand, as no model holds it
    path = tmp_path / "model.json"
    path.write_text(
        '{"kind": "barycentric", '
        '"supports": [{"re": 0, "im": 0}, {"re": 1, "im": 0}], '
        '"values": [{"re": 1e200, "im": 0}, {"re": 1, "im": 0}], '
        '"weights": [{"re": 1e200, "im": 0}, {"re": 1, "im": 0}]}\n'
    )
    return path


def test_realize_rejects_a_model_whose_c_overflows(tmp_path, caplog):
    model_path = _overflowing_model_file(tmp_path)
    outdir = tmp_path / "rom"
    assert cli.main(["realize", "--model", str(model_path), "--out", str(outdir)]) == 2
    assert "overflows" in caplog.text
    assert not outdir.exists()


def test_eval_rejects_a_model_whose_product_overflows(tmp_path, capsys, caplog):
    model_path = _overflowing_model_file(tmp_path)
    points = _points_file(tmp_path, [0.5])
    assert cli.main(["eval", "--model", str(model_path), "--points", str(points)]) == 2
    assert "overflows" in caplog.text
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------- gradcheck


def test_gradcheck_reports_a_small_deviation(tmp_path, capsys):
    data = _sample_file(tmp_path, "abs", 31)
    assert cli.main(["gradcheck", "--data", str(data), "--k", "4", "--seed", "7"]) == 0
    worst = float(capsys.readouterr().out.strip())
    assert 0.0 <= worst < 1e-5


def test_gradcheck_validates_the_support_count(tmp_path):
    data = _sample_file(tmp_path, "abs", 9)
    assert cli.main(["gradcheck", "--data", str(data), "--k", "9"]) == 2
    assert cli.main(["gradcheck", "--data", str(data), "--k", "0"]) == 2
    # one support: r is constant, so two comparisons set rounding against rounding
    assert cli.main(["gradcheck", "--data", str(data), "--k", "1"]) == 2


def test_gradcheck_rejects_a_negative_seed(tmp_path, caplog):
    data = _sample_file(tmp_path, "relu", 11)
    assert cli.main(["gradcheck", "--data", str(data), "--k", "4", "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in caplog.text


# ----------------------------------------------------------------- compare


def test_compare_writes_three_csv_files(tmp_path):
    data = _sample_file(tmp_path, "abs", 101)
    outdir = tmp_path / "cmp"
    code = cli.main(["compare", "--data", str(data), "--max-degree", "10",
                     "--out", str(outdir)])
    assert code == 0
    lines = (outdir / "compare.csv").read_text().splitlines()
    assert lines[0] == "k,aaa_l2,nlaaa_l2,aaa_linf,nlaaa_linf"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert_allclose(table[:, 0], np.arange(1, len(lines)))
    assert np.all(np.diff(table[:, 2]) <= 1e-12 * table[:-1, 2])  # NL-AAA l2 monotone
    assert table[-1, 1] < 1e-3 and table[-1, 2] < 1e-3
    aaa_lines = (outdir / "aaa_trace.csv").read_text().splitlines()
    nlaaa_lines = (outdir / "nlaaa_trace.csv").read_text().splitlines()
    assert len(lines) - 1 == max(len(aaa_lines), len(nlaaa_lines)) - 1


def test_compare_rejects_unloadable_data(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    outdir = tmp_path / "cmp"
    assert cli.main(["compare", "--data", str(empty), "--max-degree", "5",
                     "--out", str(outdir)]) == 2


# ------------------------------------------------------------- CSV format


def _pairs_text(row):
    """A CSV line of re,im pairs in the 17-digit text of the package's
    earlier hand-written row writers."""
    return ",".join("%s,%s" % ("%.17g" % v.real, "%.17g" % v.imag) for v in row)


def _bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.uint64)


def test_complex_csvs_keep_their_17_digit_text_and_read_back_bit_for_bit(tmp_path, capsys):
    # signed zeros, the smallest subnormal, the largest double and negative
    # imaginary parts; supports 1e10 apart and weights 2^-60 on the huge
    # values keep every product of the model's evaluation finite
    values = np.array([complex(-0.0, -0.0), complex(5e-324, -5e-324),
                       complex(1.7976931348623157e308, -1.5),
                       complex(-2.5, -1.7976931348623157e308), complex(0.1, -0.0)])
    supports = np.array([complex(-0.0, 0.0), complex(5e-324, -1e10), 1e10,
                         complex(-1e10, 1e10), complex(2e10, -0.0)])
    weights = np.array([complex(-0.0, -3.0), 2.0 - 1.0j, 2.0**-60, 2.0**-60, -1.0])
    model = RationalModel.barycentric(supports, values, weights)

    samples = tmp_path / "samples.csv"
    save_samples(samples, SampleSet(supports, values))
    lines = samples.read_text().splitlines()
    assert lines == [",".join(SAMPLE_HEADER)] + [_pairs_text(r) for r in zip(supports, values)]
    back = load_samples(samples)
    assert np.array_equal(_bits(back.points), _bits(supports))
    assert np.array_equal(_bits(back.values), _bits(values))

    rom = realize(model)
    save_realization(tmp_path / "rom", rom)
    for name, mat in (("E", rom.E), ("A", rom.A), ("b", rom.b[:, None]), ("c", rom.c[:, None])):
        path = tmp_path / "rom" / (name + ".csv")
        header = ["%s_%d" % (part, j) for j in range(1, mat.shape[1] + 1) for part in ("re", "im")]
        assert path.read_text().splitlines() == [",".join(header)] + [_pairs_text(r) for r in mat]
        assert np.array_equal(_bits(read_complex_rows(path, [header])[0]), _bits(mat))

    model_path = tmp_path / "model.json"
    save_model(model_path, model)
    assert cli.main(["eval", "--model", str(model_path), "--points", str(samples)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [_pairs_text([v]) for v in values]  # r interpolates at its supports
    got = np.array([complex(*map(float, line.split(","))) for line in lines])
    assert np.array_equal(_bits(got), _bits(values))

    data = _sample_file(tmp_path, "abs", 41)
    assert cli.main(["compare", "--data", str(data), "--max-degree", "6",
                     "--out", str(tmp_path / "cmp")]) == 0
    lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert lines[0] == "k,aaa_l2,nlaaa_l2,aaa_linf,nlaaa_linf"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == [str(k) for k in range(1, len(rows) + 1)]
    assert all(v == "%.17g" % float(v) for row in rows for v in row[1:])


# ----------------------------------------------------------------- logging


def test_unknown_log_level_falls_back_to_info(tmp_path, monkeypatch):
    monkeypatch.setenv("BARYFIT_LOG", "chatty")
    path = _sample_file(tmp_path, "relu", 4, name="logtest.csv")
    assert load_samples(path).size == 4


def test_fit_model_file_round_trips_through_eval(tmp_path, capsys):
    data = _sample_file(tmp_path, "abs", 51)
    model_path = tmp_path / "fit.json"
    code = cli.main(["fit", "--algo", "nlaaa", "--data", str(data),
                     "--max-degree", "5", "--model", str(model_path)])
    assert code == 0
    capsys.readouterr()
    model = load_model(model_path)
    points = _points_file(tmp_path, [0.123])
    assert cli.main(["eval", "--model", str(model_path), "--points", str(points)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    got = complex(*map(float, line.split(",")))
    assert_allclose(got, model(0.123 + 0j), rtol=1e-15, atol=1e-300)
