"""Import budget: each pipeline stage loads only the SciPy it calls.

The CLI runs every stage as its own process, so ``import qrse`` is paid on
each one. SciPy is imported inside the functions that use it; an eager
module-level ``from scipy... import`` anywhere in the package shows up here.
Each case runs in a fresh interpreter, because the test process itself has
long since imported SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one CLI stage (or nothing, with no arguments) and prints the exit
# code and the SciPy modules loaded by then as the last stdout line.
_PROBE = """
import json, sys
from qrse import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def _scipy_loaded(*argv: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result["scipy"]


def _under(loaded: list[str], package: str) -> list[str]:
    return [m for m in loaded if m == package or m.startswith(package + ".")]


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory) -> dict[str, list[str]]:
    """SciPy modules loaded by each stage of a tiny pipeline, one process each."""
    outdir = str(tmp_path_factory.mktemp("pipeline"))
    common = ("--outdir", outdir, "--seed", "3")
    stages = {
        "simulate": ("simulate", *common, "-n", "400"),
        "ingest": ("ingest", *common, "--input", os.path.join(outdir, "synthetic.csv")),
        "fit": ("fit", *common, "--restarts", "1"),
        "sample": ("sample", *common, "--chains", "2", "--draws", "60", "--tune", "100"),
        "report": ("report", *common),
    }
    return {name: _scipy_loaded(*argv) for name, argv in stages.items()}


def test_import_qrse_loads_no_scipy():
    assert _scipy_loaded() == []


@pytest.mark.parametrize("stage", ["simulate", "ingest"])
def test_data_stages_load_no_scipy(stage_modules, stage):
    assert stage_modules[stage] == []


def test_sample_loads_no_scipy_stats(stage_modules):
    assert _under(stage_modules["sample"], "scipy.stats") == []


def test_report_loads_neither_scipy_stats_nor_optimize(stage_modules):
    loaded = stage_modules["report"]
    # The probe does see SciPy: report needs scipy.special for its priors.
    assert "scipy.special" in loaded
    assert _under(loaded, "scipy.stats") == []
    assert _under(loaded, "scipy.optimize") == []
