import dataclasses
import inspect
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrse import (
    NoDescent,
    QrseParams,
    SampleConfig,
    StuckChain,
    build_density,
    log_kernel,
    sample,
)
from qrse import cli, ingest, mcmc
from qrse.diagnostics import report_grid
from qrse.ingest import HistogramSpec
from tests.conftest import CSV_HEADER


def run(*argv) -> int:
    return cli.main(list(argv))


class TestIngest:
    def test_writes_artifacts_and_counts(self, district_csv, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = run("ingest", "--input", str(district_csv), "--outdir", str(outdir))
        assert rc == 0
        cleaned = json.loads((outdir / "cleaned.json").read_text())
        assert len(cleaned["values"]) == 4
        assert cleaned["excluded_missing"] == 3
        assert cleaned["excluded_extreme"] == 2
        hist = json.loads((outdir / "histogram.json").read_text())
        assert abs(sum(hist["frequencies"]) - 1.0) < 1e-12
        out = capsys.readouterr().out
        assert "kept 4 of 9 records" in out
        assert "kappa" in out and "tau" in out

    def test_requires_input(self, tmp_path):
        assert run("ingest", "--outdir", str(tmp_path)) == 2

    def test_missing_file(self, tmp_path):
        rc = run("ingest", "--input", str(tmp_path / "nope.csv"),
                 "--outdir", str(tmp_path))
        assert rc == 2

    def test_bad_years_flag(self, district_csv, tmp_path):
        rc = run("ingest", "--input", str(district_csv),
                 "--outdir", str(tmp_path), "--years", "alpha-베타")
        assert rc == 2

    def test_degenerate_range_message_is_plain(self, tmp_path, capsys):
        # Huge kappa and tau that cancel to x = 0 in every row.
        rows = [f"{k},2008,{k},{k},1e-300,1e-300" for k in (1, 2, 3)]
        csv = tmp_path / "huge.csv"
        csv.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
        assert run("ingest", "--input", str(csv), "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "all 3 values equal 0.0" in err
        assert "np.float64" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("bad_field", [b"9" * 200_000, b"caf\xe9"], ids=["oversized", "latin-1"])
    def test_csv_and_encoding_errors_exit_2_with_line(self, tmp_path, capsys, bad_field):
        path = tmp_path / "bad.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\nd-1,2005,24.0,3.0,2,6\n"
                         + bad_field + b",2005,24.0,3.0,2,6\n")
        assert run("ingest", "--input", str(path), "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: line 3: ")

    def test_bins_flag(self, district_csv, tmp_path):
        outdir = tmp_path / "run"
        rc = run("ingest", "--input", str(district_csv), "--outdir", str(outdir),
                 "--bins", "3")
        assert rc == 0
        hist = json.loads((outdir / "histogram.json").read_text())
        assert len(hist["frequencies"]) == 3

    def test_bad_bins(self, district_csv, tmp_path):
        rc = run("ingest", "--input", str(district_csv),
                 "--outdir", str(tmp_path), "--bins", "-1")
        assert rc == 2

    def test_non_integer_bins(self, district_csv, tmp_path, capsys):
        rc = run("ingest", "--input", str(district_csv),
                 "--outdir", str(tmp_path), "--bins", "ten")
        assert rc == 2
        assert "--bins must be an integer or 'fd', got 'ten'" in capsys.readouterr().err

    def test_single_year(self, district_csv, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = run("ingest", "--input", str(district_csv), "--outdir", str(outdir),
                 "--years", "2005")
        assert rc == 0
        assert json.loads((outdir / "cleaned.json").read_text())["values"] == [11.5, 13.5]
        assert "8 outside 2005-2005" in capsys.readouterr().out

    def test_reversed_year_range(self, district_csv, tmp_path, capsys):
        rc = run("ingest", "--input", str(district_csv),
                 "--outdir", str(tmp_path), "--years", "2016-2000")
        assert rc == 2
        assert "--years must be YYYY or YYYY-YYYY, got '2016-2000'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: file is empty"),
            (CSV_HEADER + "\nd-1,2005,24.0,3.0,2,6\nd-2,2005,30.0,6.0,2,4\nd-3,2010,18.0,2.0,2\n",
             "line 4: expected 6 fields, got 5"),
        ],
        ids=["empty", "short-row"],
    )
    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert run("ingest", "--input", str(path), "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """simulate -> ingest -> fit, shared by the downstream command tests."""
    outdir = tmp_path_factory.mktemp("pipeline")
    assert run("simulate", "--outdir", str(outdir), "--t", "2.1", "--s", "4.9",
               "--mu", "8.66", "--alpha", "17.8", "-n", "400", "--seed", "3") == 0
    assert run("ingest", "--input", str(outdir / "synthetic.csv"),
               "--outdir", str(outdir)) == 0
    assert run("fit", "--outdir", str(outdir), "--restarts", "2") == 0
    return outdir


class TestSimulate:
    def test_round_trips_exactly_through_ingest(self, pipeline_dir):
        # simulate encodes x as district rows with unit enrollment and
        # population; ingest must recover the draws bit for bit.
        draws = sample(
            QrseParams(T=2.1, S=4.9, mu=8.66, alpha=17.8),
            SampleConfig(n=400, seed=3),
        )
        cleaned = json.loads((pipeline_dir / "cleaned.json").read_text())
        np.testing.assert_array_equal(np.array(cleaned["values"]), draws)

    @pytest.mark.parametrize("flag, value", [("--t", "1e200"), ("--t", "1e300"),
                                             ("--mu", "1e300")])
    def test_huge_draws_summarised_without_overflow(self, tmp_path, capsys, flag, value):
        # The printed sd once squared the draws and overflowed to inf.
        assert run("simulate", "--outdir", str(tmp_path), "-n", "50", flag, value) == 0
        sd = re.search(r"sd (\S+)\)", capsys.readouterr().out).group(1)
        assert np.isfinite(float(sd))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--outdir", str(out), "-n", "50",
                       "--seed", "9") == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()

    def test_rows_keep_the_sign_of_zero(self, tmp_path, monkeypatch):
        # A -0.0 draw is written as spend "-0.0" and tax "0.0", a 0.0 draw
        # as "0.0" and "-0.0": the bytes of max(x, 0.0) and max(-x, 0.0).
        draws = np.array([-0.0, 0.0, 1.5, -2.25, 1e-300])
        monkeypatch.setattr(cli.synthetic, "sample", lambda params, config: draws)
        assert run("simulate", "--outdir", str(tmp_path), "-n", "5") == 0
        assert (tmp_path / "synthetic.csv").read_text().splitlines()[1:] == [
            "synth-000000,2008,-0.0,0.0,1,1",
            "synth-000001,2008,0.0,-0.0,1,1",
            "synth-000002,2008,1.5,0.0,1,1",
            "synth-000003,2008,0.0,2.25,1,1",
            "synth-000004,2008,1e-300,0.0,1,1",
        ]


def test_csv_rows_are_float_reprs(tmp_path):
    # One row per element; each value its repr, which round-trips exactly.
    path = tmp_path / "out.csv"
    cli._write_csv(path, "a,b", (np.array([0.1, -0.0]), [1, 2.5e-320]))
    assert path.read_text() == "a,b\n0.1,1.0\n-0.0,2.5e-320\n"


# JSON scalars with the spellings the encoders could disagree on (NaN,
# Infinity, -0.0, bools, null) and strings holding brackets, braces and
# newlines, nested in lists and dicts.
json_text = st.text(alphabet='ab[]{},:"\\\n é', max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(),
    st.sampled_from((-0.0, math.nan, math.inf, -math.inf)), json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(json_text, children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.dictionaries(json_text, st.one_of(json_values, st.lists(st.floats())), max_size=5))
def test_write_json_matches_indented_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        cli._write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


# Hand edits to a histogram's counts that leave its frequencies as they were.
COUNT_EDITS = {
    "one-count-changed": (lambda counts: [counts[0] + 1.0, *counts[1:]],
                          "histogram frequencies must equal counts / their total"),
    "zero-counts": (lambda counts: [0.0] * len(counts),
                    "histogram counts must have a positive total"),
    # Scaled to a total of 0.4: a report once printed "N: 0".
    "fractional-counts": (lambda counts: [c * 0.4 / sum(counts) for c in counts],
                          "histogram counts must be whole numbers"),
}


class TestFit:
    def test_map_artifact(self, pipeline_dir, capsys):
        payload = json.loads((pipeline_dir / "map.json").read_text())
        assert set(payload) >= {"T", "S", "mu", "alpha", "kl", "soofi_id",
                                "converged"}
        assert payload["kl"] >= 0.0

    def test_deterministic_artifact(self, district_csv, tmp_path):
        outdirs = [tmp_path / "r1", tmp_path / "r2"]
        for outdir in outdirs:
            assert run("ingest", "--input", str(district_csv),
                       "--outdir", str(outdir), "--bins", "2") == 0
            assert run("fit", "--outdir", str(outdir), "--restarts", "2",
                       "--seed", "4") == 0
        a = (outdirs[0] / "map.json").read_bytes()
        b = (outdirs[1] / "map.json").read_bytes()
        assert a == b

    def test_malformed_histogram(self, tmp_path):
        (tmp_path / "histogram.json").write_text("{not json")
        assert run("fit", "--outdir", str(tmp_path)) == 2

    def test_missing_histogram(self, tmp_path):
        assert run("fit", "--outdir", str(tmp_path)) == 2

    @pytest.mark.parametrize("key, edit, message", [
        # Still summing to 1: ingest never writes a negative frequency.
        ("frequencies", lambda f: [f[0] - 0.3, *f[1:-1], f[-1] + 0.3],
         "frequencies must be finite and nonnegative"),
        ("edges", lambda edges: edges[::-1], "edges must be finite and strictly increasing"),
        # 2-d arrays once reached the fit: a TypeError traceback for edges,
        # "model has 2 bins, observed has 2" for frequencies.
        ("edges", lambda edges: [[e, e + 1.0] for e in edges], "edges must be a 1-d list"),
        ("frequencies", lambda f: [[p] for p in f], "frequencies must be a 1-d list"),
        *(("counts", *edit) for edit in COUNT_EDITS.values()),
    ], ids=["negative-frequency", "reversed-edges", "edges-2d", "frequencies-2d", *COUNT_EDITS])
    def test_histogram_ingest_never_writes(self, pipeline_dir, tmp_path, capsys, key, edit, message):
        payload = json.loads((pipeline_dir / "histogram.json").read_text())
        payload[key] = edit(payload[key])
        (tmp_path / "histogram.json").write_text(json.dumps(payload))
        assert run("fit", "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "histogram.json") in err and message in err
        assert not (tmp_path / "map.json").exists()

    def test_zero_restarts(self, pipeline_dir, tmp_path, capsys):
        shutil.copy(pipeline_dir / "histogram.json", tmp_path)
        assert run("fit", "--outdir", str(tmp_path), "--restarts", "0") == 0
        assert "restarts=0" in capsys.readouterr().out
        assert json.loads((tmp_path / "map.json").read_text())["restarts_used"] == 0

    def test_negative_restarts_exit_code(self, pipeline_dir, tmp_path, capsys):
        shutil.copy(pipeline_dir / "histogram.json", tmp_path)
        assert run("fit", "--outdir", str(tmp_path), "--restarts", "-1") == 2
        assert "restarts must be nonnegative" in capsys.readouterr().err

    def test_no_descent_exit_code(self, pipeline_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise NoDescent("engineered")
        monkeypatch.setattr(cli.mapfit, "fit_map", explode)
        assert run("fit", "--outdir", str(pipeline_dir)) == 3


# Edits to a fitted map.json that `sample` must reject, naming the file, and
# the message it gives. "false" once read as True, 12.7 as 12 and "8" as 8.
MAP_EDITS = {
    "not-an-object": (lambda payload: [], "expected a JSON object"),
    "missing-key": (lambda payload: {"T": 1}, "missing key 'S'"),
    "string-converged": (lambda payload: payload | {"converged": "false"},
                         "converged must be a boolean, got 'false'"),
    "fractional-iterations": (lambda payload: payload | {"iterations": 12.7},
                              "iterations must be an integer, got 12.7"),
    "string-restarts": (lambda payload: payload | {"restarts_used": "8"},
                        "restarts_used must be an integer, got '8'"),
}


class TestSampleAndReport:
    def test_pipeline_through_report(self, pipeline_dir, capsys):
        rc = run("sample", "--outdir", str(pipeline_dir), "--chains", "2",
                 "--draws", "150", "--tune", "100", "--seed", "1")
        assert rc == 0
        assert (pipeline_dir / "trace.csv").exists()
        assert re.search(
            r"^acceptance rates: (0\.\d{3} ){2}\(kernel: independence-t5\)$",
            capsys.readouterr().out, re.M,
        )

        rc = run("report", "--outdir", str(pipeline_dir))
        assert rc == 0
        out = capsys.readouterr().out
        assert "parameter" in out and "rhat" in out

        report = json.loads((pipeline_dir / "report.json").read_text())
        assert set(report["parameters"]) == {"mu", "alpha", "T", "S"}
        text = (pipeline_dir / "report.txt").read_text()
        assert "KL divergence:" in text

        fit_curve = (pipeline_dir / "fit_curve.csv").read_text().splitlines()
        assert fit_curve[0] == "x,observed_density,fitted_pdf"
        n_bins = len(json.loads(
            (pipeline_dir / "histogram.json").read_text())["frequencies"])
        assert len(fit_curve) == 1 + n_bins

        quantal = (pipeline_dir / "quantal_response.csv").read_text().splitlines()
        assert quantal[0] == ("x,entry_probability,exit_probability,pdf,"
                              "entry_joint_density,exit_joint_density")
        assert len(quantal) == 1 + 4001

    def test_parameter_variation_export(self, pipeline_dir):
        lines = (pipeline_dir / "parameter_variation.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,x,pdf"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12 * 1201
        # The T = 5, S = 5, mu = alpha = 0 baseline is symmetric, so each
        # curve of the T sweep must integrate to 1 and be even in x.
        t5 = [(float(x), float(p)) for name, v, x, p in rows
              if name == "T" and v == "5.0"]
        xs = np.array([x for x, _ in t5])
        ps = np.array([p for _, p in t5])
        total = np.trapezoid(ps, xs)
        assert total == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(ps, ps[::-1], atol=1e-12)

    def test_draws_zero_rejected(self, pipeline_dir):
        assert run("sample", "--outdir", str(pipeline_dir), "--draws", "0") == 2

    def test_missing_trace(self, tmp_path):
        assert run("report", "--outdir", str(tmp_path)) == 2

    def test_truncated_trace(self, pipeline_dir, tmp_path, capsys):
        outdir = tmp_path / "truncated"
        shutil.copytree(pipeline_dir, outdir)
        assert run("sample", "--outdir", str(outdir), "--chains", "2",
                   "--draws", "50", "--tune", "0", "--seed", "1") == 0
        trace = outdir / "trace.csv"
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:-10]))
        capsys.readouterr()
        assert run("report", "--outdir", str(outdir)) == 2
        assert str(trace) in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [(2, "nan"), (4, "inf")], ids=["nan-T", "inf-mu"])
    def test_non_finite_trace(self, pipeline_dir, tmp_path, capsys, column, value):
        # A NaN T fails neither side of the truncation check, and an
        # infinite mu would reach the report's histogram range.
        outdir = tmp_path / "non-finite"
        shutil.copytree(pipeline_dir, outdir)
        assert run("sample", "--outdir", str(outdir), "--chains", "2",
                   "--draws", "50", "--tune", "0", "--seed", "1") == 0
        trace = outdir / "trace.csv"
        lines = trace.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[column] = value
        lines[5] = ",".join(cells)
        trace.write_text("".join(lines))
        capsys.readouterr()
        assert run("report", "--outdir", str(outdir)) == 2
        assert f"{trace}: not a valid trace file: draws must be finite" in capsys.readouterr().err

    def test_two_dimensional_histogram_exits_2(self, pipeline_dir, tmp_path, capsys):
        # 2-d edges once made report exit 1 with a TypeError traceback.
        outdir = tmp_path / "2-d"
        shutil.copytree(pipeline_dir, outdir)
        assert run("sample", "--outdir", str(outdir), "--chains", "2",
                   "--draws", "50", "--tune", "0", "--seed", "1") == 0
        histogram = outdir / "histogram.json"
        payload = json.loads(histogram.read_text())
        payload["edges"] = [[0.0, 1.0], [2.0, 3.0]]
        payload["frequencies"], payload["counts"] = [1.0], [float(sum(payload["counts"]))]
        histogram.write_text(json.dumps(payload))
        (outdir / "report.json").unlink(missing_ok=True)  # from a report on pipeline_dir
        capsys.readouterr()
        assert run("report", "--outdir", str(outdir)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {histogram}: histogram edges must be a 1-d list, got shape (2, 2)\n"
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("counts, message", COUNT_EDITS.values(), ids=COUNT_EDITS)
    def test_counts_that_disagree_with_frequencies_exit_2(
        self, pipeline_dir, tmp_path, capsys, counts, message
    ):
        # The KL scores the frequencies and the "N:" line prints the counts'
        # total, so a report on such a file would contradict itself.
        outdir = tmp_path / "counts"
        shutil.copytree(pipeline_dir, outdir)
        assert run("sample", "--outdir", str(outdir), "--chains", "2",
                   "--draws", "50", "--tune", "0", "--seed", "1") == 0
        histogram = outdir / "histogram.json"
        payload = json.loads(histogram.read_text())
        payload["counts"] = counts(payload["counts"])
        histogram.write_text(json.dumps(payload))
        (outdir / "report.json").unlink(missing_ok=True)  # from a report on pipeline_dir
        capsys.readouterr()
        assert run("report", "--outdir", str(outdir)) == 2
        assert capsys.readouterr().err == f"error: {histogram}: {message}\n"
        assert not (outdir / "report.json").exists()

    def test_report_exports_share_one_density(self, pipeline_dir, tmp_path):
        # Outer histogram edges far past the auto grid's span of the
        # locations plus 8 scales: the quantal export must still reach them.
        outdir = tmp_path / "wide"
        shutil.copytree(pipeline_dir, outdir)
        assert run("sample", "--outdir", str(outdir), "--chains", "2",
                   "--draws", "60", "--tune", "20", "--seed", "2") == 0
        payload = json.loads((outdir / "histogram.json").read_text())
        payload["edges"][0] = -150.0
        payload["edges"][-1] = 200.0
        (outdir / "histogram.json").write_text(json.dumps(payload))
        assert run("report", "--outdir", str(outdir)) == 0

        hist = HistogramSpec.from_json(payload)
        means = json.loads((outdir / "report.json").read_text())["parameters"]
        mean = QrseParams(**{name: row["mean"] for name, row in means.items()})
        table = build_density(mean, report_grid(mean, hist))
        quantal = np.loadtxt(outdir / "quantal_response.csv", delimiter=",", skiprows=1)
        fit_curve = np.loadtxt(outdir / "fit_curve.csv", delimiter=",", skiprows=1)
        assert quantal[0, 0] == -150.0 and quantal[-1, 0] == 200.0
        np.testing.assert_array_equal(quantal[:, 0], table.grid.points)
        np.testing.assert_array_equal(quantal[:, 3], table.pdf)
        np.testing.assert_array_equal(
            fit_curve[:, 2], np.exp(log_kernel(fit_curve[:, 0], mean) - table.log_z)
        )

    def test_nonpositive_prior_bound_exits_before_sampling(
        self, pipeline_dir, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli.mcmc, "run_chains", lambda *a, **k: calls.append(a))
        rc = run("sample", "--outdir", str(pipeline_dir), "--chains", "2",
                 "--draws", "200", "--tune", "100", "--prior-bound-low", "-5",
                 "--prior-t-center", "0.01", "--prior-t-sd", "3")
        assert rc == 2
        assert "0 < low < high" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flag, name", [("--prior-mu-sd", "mu_sd"),
                                            ("--prior-t-center", "t_center"),
                                            ("--prior-bound-high", "bound_high")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_prior_exits_2_naming_it(
        self, pipeline_dir, monkeypatch, capsys, flag, name, value
    ):
        calls = []
        monkeypatch.setattr(cli.mcmc, "run_chains", lambda *a, **k: calls.append(a))
        assert run("sample", "--outdir", str(pipeline_dir), flag, value) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{name}\b", err) and "Traceback" not in err
        assert calls == []

    def test_oversized_local_grid_exits_2(self, pipeline_dir, capsys):
        # T / S up to 8e6 would need a 1.2e9-point log Z grid.
        rc = run("sample", "--outdir", str(pipeline_dir), "--chains", "2",
                 "--draws", "10", "--tune", "0", "--prior-bound-low", "1e-6")
        assert rc == 2
        err = capsys.readouterr().err
        assert "1248000001-point grid" in err
        assert "Traceback" not in err and "MemoryError" not in err

    @pytest.mark.parametrize("edit, message", MAP_EDITS.values(), ids=MAP_EDITS)
    def test_malformed_map_exits_2(self, pipeline_dir, tmp_path, capsys, edit, message):
        shutil.copy(pipeline_dir / "cleaned.json", tmp_path)
        payload = edit(json.loads((pipeline_dir / "map.json").read_text()))
        (tmp_path / "map.json").write_text(json.dumps(payload))
        assert run("sample", "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'map.json'}: {message}\n"

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "2-d"])
    def test_cleaned_values_must_be_a_nonempty_list(
        self, pipeline_dir, tmp_path, monkeypatch, capsys, values
    ):
        # An empty list once sampled the prior alone and exited 0.
        calls = []
        monkeypatch.setattr(cli.mcmc, "run_chains", lambda *a, **k: calls.append(a))
        shutil.copy(pipeline_dir / "map.json", tmp_path)
        cleaned = json.loads((pipeline_dir / "cleaned.json").read_text())
        cleaned["values"] = values
        (tmp_path / "cleaned.json").write_text(json.dumps(cleaned))
        assert run("sample", "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cleaned.json'}: cleaned values must be a nonempty 1-d list\n"
        )
        assert calls == []

    def test_stuck_chain_exit_code(self, pipeline_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise StuckChain("engineered")
        monkeypatch.setattr(cli.mcmc, "run_chains", explode)
        assert run("sample", "--outdir", str(pipeline_dir), "--draws", "10",
                   "--tune", "0") == 4


class TestBoxWall:
    def test_mode_on_the_location_box_wall_samples(self, tmp_path):
        # A simplex search from these prior centres ended on the location
        # box's wall (alpha = 17.8 + 4 sds), where jittered starts past the
        # wall exited 2 and, once clipped, the random walk ran. The Newton
        # search reaches the interior mode, where the Laplace fit shapes the
        # independence kernel.
        d = str(tmp_path / "d")
        assert run("simulate", "--outdir", d, "--t", "0.59", "--s", "6.412", "--mu", "-1.765",
                   "--alpha", "17.457", "-n", "1000", "--seed", "60") == 0
        assert run("ingest", "--outdir", d, "--input", f"{d}/synthetic.csv") == 0
        assert run("fit", "--outdir", d) == 0
        assert run("sample", "--outdir", d, "--chains", "3", "--draws", "1000", "--tune", "300",
                   "--prior-t-center", "2.1", "--prior-s-center", "4.9",
                   "--prior-mu-center", "8.66", "--prior-alpha-center", "17.8") == 0
        with open(f"{d}/trace.csv") as trace:
            assert '"kernel": "independence-t5"' in trace.readline()
        assert run("report", "--outdir", d) == 0


# Money-column multipliers for the data-unit tests: data in thousands, in
# hundreds and in dollars.
UNIT_CASES = (1, 10, 1000)


@pytest.fixture(scope="module")
def unit_runs(tmp_path_factory):
    """c -> (map.json, trace) of the README-θ pipeline on 2,000 draws, with
    both money columns and the extreme bounds multiplied by c."""
    base = tmp_path_factory.mktemp("units")
    assert run("simulate", "--outdir", str(base), "--t", "2.1", "--s", "4.9", "--mu", "8.66",
               "--alpha", "17.8", "-n", "2000", "--seed", "7") == 0
    header, *rows = (base / "synthetic.csv").read_text().splitlines()
    runs = {}
    for c in UNIT_CASES:
        outdir = base / f"times-{c}"
        outdir.mkdir()
        lines = [header]
        for row in rows:
            cells = row.split(",")
            cells[2:4] = (repr(float(cell) * c) for cell in cells[2:4])
            lines.append(",".join(cells))
        (outdir / "data.csv").write_text("\n".join(lines) + "\n")
        assert run("ingest", "--outdir", str(outdir), "--input", str(outdir / "data.csv"),
                   "--extreme-lo", repr(-50.0 * c), "--extreme-hi", repr(120.0 * c)) == 0
        assert run("fit", "--outdir", str(outdir)) == 0
        assert run("sample", "--outdir", str(outdir), "--chains", "3", "--draws", "1000",
                   "--tune", "200") == 0
        runs[c] = (json.loads((outdir / "map.json").read_text()),
                   mcmc.load_trace(outdir / "trace.csv"))
    return runs


class TestDataUnit:
    """The QRSE density is equivariant under x -> c x, and the fit's scale
    box and the sampler's default priors follow the data unit, so the
    estimates do not depend on the currency unit of the money columns."""

    @pytest.mark.parametrize("c", UNIT_CASES[1:])
    def test_map_scales_with_the_data(self, unit_runs, c):
        reference, scaled = unit_runs[1][0], unit_runs[c][0]
        for name in ("T", "S", "mu", "alpha"):
            assert scaled[name] == pytest.approx(c * reference[name], rel=1e-6)
        assert scaled["kl"] == pytest.approx(reference["kl"], abs=1e-9)

    @pytest.mark.parametrize("c", UNIT_CASES[1:])
    def test_posterior_scales_with_the_data(self, unit_runs, c):
        reference, scaled = unit_runs[1][1], unit_runs[c][1]
        assert scaled.kernel == reference.kernel == mcmc.INDEPENDENCE
        # MCSE from batch means of 100 draws inside each chain.
        batches = reference.draws.reshape(3, 10, 100, 4).mean(axis=2).reshape(-1, 4)
        mcse = batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])
        error = np.abs(scaled.draws.mean(axis=(0, 1)) / c - reference.draws.mean(axis=(0, 1)))
        assert np.all(error <= 4.0 * mcse), (error, mcse)

    @pytest.mark.parametrize(
        "params, n, seed",
        [
            ((2.1, 4.9, 8.66, 17.8), 20000, 7),  # the README Quick start
            ((5.0, 5.0, 0.0, 0.0), 500, 1),  # CI's run
            ((0.59, 6.412, -1.765, 17.457), 1000, 60),  # CI's box-wall case
            ((0.1, 8.0, 0.0, 0.0), 20000, 0),  # the widest density in the box
        ],
        ids=["quick-start", "ci-run", "ci-box-wall", "widest"],
    )
    def test_data_that_fit_the_box_keep_unit_1(self, params, n, seed):
        draws = sample(QrseParams(*params), SampleConfig(n=n, seed=seed))
        assert cli.mapfit.data_unit(ingest.build_histogram(draws, "fd")) == 1.0


class TestConfigFile:
    def test_file_supplies_settings(self, district_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {district_csv}\n"
            f"outdir = {tmp_path / 'out'}\n"
            "bins = 2  # trailing comment\n"
            "\n"
            "# full-line comment\n"
        )
        assert run("ingest", "--config", str(cfg)) == 0
        hist = json.loads((tmp_path / "out" / "histogram.json").read_text())
        assert len(hist["frequencies"]) == 2

    def test_flag_overrides_file(self, district_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {district_csv}\nbins = 2\n")
        outdir = tmp_path / "out"
        assert run("ingest", "--config", str(cfg), "--outdir", str(outdir),
                   "--bins", "3") == 0
        hist = json.loads((outdir / "histogram.json").read_text())
        assert len(hist["frequencies"]) == 3

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# full-line comment\n"
            "input = runs/#3/data.csv\n"
            "outdir = out#1\t# tab comment\n"
            "restarts = 2 # trailing comment\n"
        )
        assert cli.read_config_file(cfg) == {
            "input": "runs/#3/data.csv",
            "outdir": "out#1",
            "restarts": 2,
        }

    def test_unknown_key(self, district_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        assert run("ingest", "--config", str(cfg)) == 2
        # grid_points was once accepted, though no command read it.
        cfg.write_text(f"input = {district_csv}\noutdir = {tmp_path}\ngrid_points = 2001\n")
        capsys.readouterr()
        assert run("ingest", "--config", str(cfg)) == 2
        assert "unknown setting 'grid_points'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run("ingest", "--config", str(cfg)) == 2

    def test_bad_value_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chains = many\n")
        assert run("ingest", "--config", str(cfg)) == 2

    def test_boolean_from_file_matches_flag(self, pipeline_dir, tmp_path):
        by_file, by_flag, forward = (tmp_path / name for name in ("file", "flag", "forward"))
        for outdir in (by_file, by_flag, forward):
            outdir.mkdir()
            shutil.copy(pipeline_dir / "histogram.json", outdir)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reverse_kl = yes\nrestarts = 0\n")
        assert run("fit", "--config", str(cfg), "--outdir", str(by_file)) == 0
        assert run("fit", "--outdir", str(by_flag), "--restarts", "0", "--reverse-kl") == 0
        assert run("fit", "--outdir", str(forward), "--restarts", "0") == 0
        fitted = [(outdir / "map.json").read_bytes() for outdir in (by_file, by_flag, forward)]
        assert fitted[0] == fitted[1] != fitted[2]

    def test_bad_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reverse_kl = maybe\n")
        assert run("fit", "--config", str(cfg), "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 1: not a boolean: 'maybe'\n"


# Every subcommand's flags and help text, which the settings and commands
# tables must reproduce exactly.
COMMON_FLAGS = {
    (("-h", "--help"), "show this help message and exit"),
    (("--config",), "flat key = value settings file"),
    (("--outdir",), "directory for pipeline artifacts"),
    (("--seed",), "seed for all randomized steps"),
}
EXPECTED_FLAGS = {
    "ingest": COMMON_FLAGS | {
        (("--input",), "district CSV file"),
        (("--bins",), "bin count or 'fd'"),
        (("--extreme-lo",), "lower extreme-value bound, data units"),
        (("--extreme-hi",), "upper extreme-value bound, data units"),
        (("--years",), "year filter, YYYY or YYYY-YYYY"),
    },
    "fit": COMMON_FLAGS | {
        (("--restarts",), "extra Latin-hypercube starts"),
        (("--reverse-kl",), "fit the likelihood-consistent direction"),
    },
    "sample": COMMON_FLAGS | {
        (("--chains",), "number of chains (>= 2)"),
        (("--draws",), "post-tune draws per chain"),
        (("--tune",), "burn-in steps per chain (random walk: adaptation)"),
        (("--prior-t-center",), "prior center for t (default: MAP)"),
        (("--prior-s-center",), "prior center for s (default: MAP)"),
        (("--prior-mu-center",), "prior center for mu (default: MAP)"),
        (("--prior-alpha-center",), "prior center for alpha (default: MAP)"),
        (("--prior-t-sd",), "prior sd for t (default: 2 × data unit)"),
        (("--prior-s-sd",), "prior sd for s (default: 2 × data unit)"),
        (("--prior-mu-sd",), "prior sd for mu (default: 10 × data unit)"),
        (("--prior-alpha-sd",), "prior sd for alpha (default: 10 × data unit)"),
        (("--prior-bound-low",), "lower truncation bound for T and S (default: 0.1 × data unit)"),
        (("--prior-bound-high",), "upper truncation bound for T and S (default: 8 × data unit)"),
    },
    "report": COMMON_FLAGS,
    "simulate": COMMON_FLAGS | {
        (("--t",), "behavior temperature"),
        (("--s",), "market scale"),
        (("--mu",), "tipping point"),
        (("--alpha",), "barycenter"),
        (("-n", "--n"), "number of draws"),
    },
}


def subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


class TestParser:
    def test_flags_and_help_unchanged(self):
        actual = {
            name: {(tuple(a.option_strings), a.help) for a in p._actions}
            for name, p in subparsers().items()
        }
        assert actual == EXPECTED_FLAGS

    def test_sample_defaults_are_the_sampler_defaults(self):
        # Each default `qrse sample` resolves is the default of the
        # ChainConfig field it feeds. At data unit 1 the priors are
        # PriorSpec's defaults, centred at the MAP; at unit 1000 the sds and
        # bounds are 1000 times those, and a flag is taken as given.
        settings = cli._resolve(cli.build_parser().parse_args(["sample"]))
        defaults = {field.name: field.default for field in dataclasses.fields(mcmc.ChainConfig)
                    if field.name in settings}
        assert sorted(defaults) == ["chains", "draws", "seed", "tune"]
        assert {name: settings[name] for name in defaults} == defaults
        assert all(settings[key] is None for key in cli.SETTINGS if key.startswith("prior_"))
        map_params = QrseParams(T=2.5, S=4.5, mu=8.0, alpha=18.0)
        centres = dict(t_center=2.5, s_center=4.5, mu_center=8.0, alpha_center=18.0)
        assert cli._priors_from_settings(settings, map_params, 1.0) == mcmc.PriorSpec(**centres)
        scaled = cli._priors_from_settings(
            settings | {"prior_mu_sd": 3.0}, QrseParams(T=2500.0, S=4500.0, mu=8000.0, alpha=18000.0),
            1000.0,
        )
        assert scaled == mcmc.PriorSpec(
            **{name: 1000.0 * value for name, value in centres.items()},
            t_sd=2000.0, s_sd=2000.0, mu_sd=3.0, alpha_sd=10000.0,
            bound_low=100.0, bound_high=8000.0,
        )

    def test_ingest_defaults_are_the_reader_defaults(self):
        # The year filter and extreme bounds `qrse ingest` resolves are the
        # defaults of the ingest functions they feed.
        settings = cli._resolve(cli.build_parser().parse_args(["ingest"]))
        read_records = inspect.signature(ingest.read_records).parameters
        clean = inspect.signature(ingest.clean).parameters
        assert cli._parse_years(settings["years"]) == read_records["years"].default
        assert settings["extreme_lo"] == clean["extreme_low"].default
        assert settings["extreme_hi"] == clean["extreme_high"].default

    def test_every_setting_is_a_flag(self):
        dests = {a.dest for p in subparsers().values() for a in p._actions}
        assert set(cli.SETTINGS) <= dests

    def test_flag_values_are_typed(self):
        args = cli.build_parser().parse_args(
            ["simulate", "-n", "7", "--t", "2.5", "--seed", "3"]
        )
        assert (args.n, args.t, args.seed, args.s) == (7, 2.5, 3, None)
        args = cli.build_parser().parse_args(["fit", "--reverse-kl"])
        assert args.reverse_kl is True
        assert cli.build_parser().parse_args(["fit"]).reverse_kl is None
