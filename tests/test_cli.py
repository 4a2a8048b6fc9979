import json
import re
import shutil

import numpy as np
import pytest

from qrse import (
    NoDescent,
    QrseParams,
    SampleConfig,
    StuckChain,
    build_density,
    log_kernel,
    sample,
)
from qrse import cli
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

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--outdir", str(out), "-n", "50",
                       "--seed", "9") == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()


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

    def test_oversized_local_grid_exits_2(self, pipeline_dir, capsys):
        # T / S up to 8e6 would need a 1.2e9-point log Z grid.
        rc = run("sample", "--outdir", str(pipeline_dir), "--chains", "2",
                 "--draws", "10", "--tune", "0", "--prior-bound-low", "1e-6")
        assert rc == 2
        err = capsys.readouterr().err
        assert "1248000001-point grid" in err
        assert "Traceback" not in err and "MemoryError" not in err

    @pytest.mark.parametrize(
        "payload, message",
        [([], "expected a JSON object"), ({"T": 1}, "missing key 'S'")],
        ids=["not-an-object", "missing-key"],
    )
    def test_malformed_map_exits_2(self, pipeline_dir, tmp_path, capsys, payload, message):
        shutil.copy(pipeline_dir / "cleaned.json", tmp_path)
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
        (("--extreme-lo",), "lower extreme-value bound, thousands"),
        (("--extreme-hi",), "upper extreme-value bound, thousands"),
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
        (("--prior-t-sd",), "prior sd for t"),
        (("--prior-s-sd",), "prior sd for s"),
        (("--prior-mu-sd",), "prior sd for mu"),
        (("--prior-alpha-sd",), "prior sd for alpha"),
        (("--prior-bound-low",), "lower truncation bound for T and S"),
        (("--prior-bound-high",), "upper truncation bound for T and S"),
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
