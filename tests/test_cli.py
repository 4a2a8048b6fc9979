import json
import shutil

import numpy as np
import pytest

from qrse import NoDescent, QrseParams, SampleConfig, StuckChain, sample
from qrse import cli
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

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        assert run("ingest", "--config", str(cfg)) == 2

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run("ingest", "--config", str(cfg)) == 2

    def test_bad_value_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chains = many\n")
        assert run("ingest", "--config", str(cfg)) == 2
