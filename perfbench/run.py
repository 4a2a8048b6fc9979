"""End-to-end benchmark of the qrse CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run each in turn. Every run draws
its data with ``qrse simulate`` at the README truth, passes ``--seed N`` to
every stage, and starts from an empty artifact directory.

Load model: a closed loop from this one process. Each stage runs the
way users run it, as its own ``python -m qrse.cli`` process, one at a time;
the next stage starts only after the previous one has exited. After one
full pass, stages repeat until ``--seconds`` would be exceeded (untraced
runs only), and every stage time is the median of its samples.

With ``--trace 0`` the final stdout line carries the end-to-end metrics:
the set-up (``import qrse``) time, the wall time of every stage but fit,
the sum of all five, and the peak RSS of any stage. Fit time, fit KL,
effective draws per second and the failed-operation share are printed
too, unbounded (see REPORTED). With ``--trace 1`` the benchmark also runs
the pipeline twice, each time in one traced process (see traced.py), and
reports per-layer times and counts from the spans plus each stage's
tracing overhead; the two traced runs must agree on every exact count.

Output checks (each one operation, like each stage invocation): every stage
exits 0, ingest keeps all N records, map.json holds a finite positive KL,
trace.csv holds chains x draws finite rows inside the truncation bounds,
report.txt has the four parameter rows, every posterior mean lies within
POSTERIOR_SDS posterior sds of the truth and every split R-hat is below
RHAT_BAR. A failed check is counted, never fatal.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Earlier lines list every metric by name and unit and the run's
provenance; the full result is also written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ess import bulk_ess, split_rhat

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"

TRUTH = {"T": 2.1, "S": 4.9, "mu": 8.66, "alpha": 17.8}
PARAMS = ("T", "S", "mu", "alpha")  # trace column order
STAGES = ("simulate", "ingest", "fit", "sample", "report")
# The CLI's default truncation of T and S; the benchmark passes no override.
TRUNCATION = (0.1, 8.0)
# Posterior means must lie this many posterior sds from the truth, and split
# R-hat below this bar. Both are loose enough for a correct sampler at any
# seed: acceptance_100k's short chains have a bulk ESS of 60-130, where a
# well-mixed split R-hat of 1.05-1.08 is ordinary; chains stuck apart
# still land far above the bar.
POSTERIOR_SDS = 5.0
RHAT_BAR = 1.2
SETUP_REPEATS = 3
# The time left in a run goes to repeating these stages, whose work is the
# same at every seed. Fit is left out: its cost follows the seed's
# multistart layout (6000-10400 objective evaluations), so repeats of one
# seed buy little.
REPEATED = ("simulate", "ingest", "sample", "report")
# A child still running this long after its workload started is killed and
# counted as failed, so one workload's run ends within three minutes.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    n: int
    chains: int
    draws: int
    tune: int
    why: str


WORKLOADS = {
    "readme_20k": Workload(
        20_000, 3, 3000, 500,
        "The README quick start as written; the data kernel and build_density "
        "both weigh in each target evaluation, so a change to either shows.",
    ),
    "acceptance_100k": Workload(
        100_000, 3, 600, 400,
        "N=100k: the data-side log_kernel is about 90% of each target "
        "evaluation and ingest does real work; chains are cut to fit the run.",
    ),
    "posterior_2k_long": Workload(
        2_000, 3, 5000, 500,
        "N=2k with long chains: build_density dominates each step, ingest is "
        "cheap, and a 15k-row trace is written and read back.",
    ),
}

# name -> unit, for --trace 0 (end-to-end) and --trace 1 (per-layer) runs.
END_TO_END = {
    "setup_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES if stage != "fit"},
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for every run but not bounded. Fit work and KL follow the seed's
# data and start layout (their spread over ten seeds is 0.15-0.4), bulk ESS
# from a few thousand draws is a noisy estimate, and a correct run fails no
# operation, so a relative bound on that share means nothing.
REPORTED = {"fit_s": "s", "sample_ess_per_s": "1/s", "fit_kl": "nats", "ops_failed_frac": "ratio"}
PER_LAYER = {
    **{f"cli.{stage}.{kind}": "s" for stage in STAGES for kind in ("traced_s", "self_s", "overhead_s")},
    "cli.write_json_ms": "ms",
    "cli.load_json_ms": "ms",
    "ingest.read_records_ms": "ms",
    "ingest.records_per_s": "1/s",
    "ingest.clean_ms": "ms",
    "ingest.fiscal_summary_ms": "ms",
    "ingest.build_histogram_ms": "ms",
    "mapfit.fit_map_s": "s",
    "mapfit.objective_evals": "count",
    "mapfit.eval_us": "us",
    "mapfit.iterations": "count",
    "mapfit.kl": "nats",
    "mcmc.target_evals": "count",
    "mcmc.log_posterior_us": "us",
    "mcmc.step_us": "us",
    "mcmc.chain_s_max": "s",
    "mcmc.chain_s_min": "s",
    "mcmc.run_chains.self_s": "s",
    "mcmc.acceptance": "ratio",
    **{f"mcmc.ess_bulk.{name}": "count" for name in PARAMS},
    "mcmc.ess_bulk_min": "count",
    "mcmc.ess_per_s": "1/s",
    "mcmc.save_trace_ms": "ms",
    "mcmc.load_trace_ms": "ms",
    "model.log_kernel.data_us": "us",
    "model.log_kernel.ns_per_point": "ns",
    "model.log_kernel.grid_us": "us",
    "model.log_kernel.data_share": "ratio",
    "model.build_density_us": "us",
    "model.build_density.self_us": "us",
    "model.build_density.share": "ratio",
    **{f"model.build_density.calls.{stage}": "count" for stage in ("simulate", "fit", "sample", "report")},
    "model.log_likelihood.self_us": "us",
    "model.bin_probabilities_us": "us",
    "diagnostics.summarize_ms": "ms",
    "synthetic.sample_ms": "ms",
}
# Counts the two traced runs of one seed must reproduce exactly.
EXACT_COUNTS = (
    "mcmc.target_evals", "mapfit.objective_evals", "mapfit.iterations",
    "model.build_density.calls.simulate", "model.build_density.calls.fit",
    "model.build_density.calls.sample", "model.build_density.calls.report",
)


class Ledger:
    """Operations attempted and failed (one per child process or check),
    and the time by which every child must have ended."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, its own max RSS in MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(outdir: Path, ledger: Ledger) -> list[float]:
    """Wall time of fresh interpreters running ``import qrse``."""
    outdir.mkdir(parents=True, exist_ok=True)
    samples = []
    for repeat in range(SETUP_REPEATS):
        code, wall, _ = run_process(
            [sys.executable, "-c", "import qrse"], outdir / f"setup{repeat}.log", ledger.deadline
        )
        ledger.record("setup import", code == 0, f"exit {code}")
        samples.append(wall)
    return samples


def stage_argvs(workload: Workload, seed: int, outdir: Path) -> list[list[str]]:
    common = ["--outdir", str(outdir), "--seed", str(seed)]
    return [
        ["simulate", *common, "--t", str(TRUTH["T"]), "--s", str(TRUTH["S"]),
         "--mu", str(TRUTH["mu"]), "--alpha", str(TRUTH["alpha"]), "-n", str(workload.n)],
        ["ingest", *common, "--input", str(outdir / "synthetic.csv"), "--years", "2000-2016"],
        ["fit", *common],
        ["sample", *common, "--chains", str(workload.chains), "--draws", str(workload.draws),
         "--tune", str(workload.tune)],
        ["report", *common],
    ]


def run_stage(argv: list[str], outdir: Path, ledger: Ledger) -> tuple[float, float]:
    stage = argv[0]
    log = outdir / f"{stage}.log"
    code, wall, rss = run_process([sys.executable, "-m", "qrse.cli", *argv], log, ledger.deadline)
    ledger.record(f"stage {stage}", code == 0, f"exit {code}, see {log}")
    return wall, rss


def run_pipeline(workload: Workload, seed: int, seconds: float, outdir: Path,
                 ledger: Ledger) -> dict[str, list[tuple[float, float]]]:
    """Every stage once into an empty directory, then repeats until ``seconds``.

    Each repeat goes to the stage in REPEATED with the fewest samples (the
    cheapest on a tie) that still fits in the budget; nothing repeats once
    an operation has failed. A repeat reads only what earlier stages of
    this pipeline wrote and rewrites its own (deterministic) outputs.
    Returns {stage: [(wall s, max RSS MB), ...]}.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argvs = {argv[0]: argv for argv in stage_argvs(workload, seed, outdir)}
    end = min(time.perf_counter() + seconds, ledger.deadline)
    samples = {stage: [run_stage(argvs[stage], outdir, ledger)] for stage in STAGES}
    while not ledger.failures:
        left = end - time.perf_counter()
        typical = {stage: statistics.median(w for w, _ in runs) for stage, runs in samples.items()}
        fitting = [stage for stage in REPEATED if typical[stage] <= left]
        if not fitting:
            return samples
        stage = min(fitting, key=lambda name: (len(samples[name]), typical[name]))
        samples[stage].append(run_stage(argvs[stage], outdir, ledger))
    return samples


def load_trace(path: Path, workload: Workload) -> np.ndarray:
    """trace.csv rows as (chains, draws, 4), checking layout and bounds.

    Parsed here rather than with ``qrse.load_trace``, so the check does not
    rely on the code it checks.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines[0].startswith("# ") or lines[1] != "chain,draw,T,S,mu,alpha":
        raise ValueError("unexpected trace header")
    rows = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
    shape = (workload.chains, workload.draws)
    if rows.shape != (shape[0] * shape[1], 6):
        raise ValueError(f"{rows.shape[0]} rows, expected {shape[0] * shape[1]}")
    index = np.stack(np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij"), -1)
    if not np.array_equal(rows[:, :2], index.reshape(-1, 2)):
        raise ValueError("chain/draw columns out of order")
    draws = rows[:, 2:].reshape(*shape, 4)
    if not np.all(np.isfinite(draws)):
        raise ValueError("non-finite draws")
    scales = draws[:, :, :2]
    if scales.min() < TRUNCATION[0] or scales.max() > TRUNCATION[1]:
        raise ValueError("T or S outside the truncation bounds")
    return draws


def check_outputs(workload: Workload, outdir: Path, ledger: Ledger) -> dict:
    """Run every output check; return what later metrics need (or None)."""
    found = {"kl": None, "ess": None, "acceptance": None, "z": None, "rhat": None}
    try:
        kept = len(json.loads((outdir / "cleaned.json").read_text())["values"])
        ledger.record("ingest keeps N records", kept == workload.n, f"kept {kept} of {workload.n}")
    except (OSError, ValueError, KeyError, TypeError) as err:
        ledger.record("ingest keeps N records", False, repr(err))
    try:
        fitted = json.loads((outdir / "map.json").read_text())
        kl = float(fitted["kl"])
        if ledger.record("map.json KL", math.isfinite(kl) and kl > 0.0, f"kl={kl!r}"):
            found["kl"] = kl
    except (OSError, ValueError, KeyError, TypeError) as err:
        ledger.record("map.json KL", False, repr(err))
    try:
        text = (outdir / "report.txt").read_text()
        rows = [name for name in PARAMS if len(re.findall(rf"^{name}\s+-?\d", text, re.M)) == 1]
        ledger.record("report.txt parameter rows", len(rows) == 4, f"found {rows}")
    except OSError as err:
        ledger.record("report.txt parameter rows", False, repr(err))
    try:
        draws = load_trace(outdir / "trace.csv", workload)
        metadata = json.loads((outdir / "trace.csv").read_text().split("\n", 1)[0][2:])
        found["acceptance"] = statistics.fmean(metadata["acceptance_rates"])
    except (OSError, ValueError, IndexError, KeyError, TypeError) as err:
        for name in ("trace rows", "posterior means", "split R-hat"):
            ledger.record(name, False, repr(err))
        return found
    ledger.record("trace rows", True)
    pooled = draws.reshape(-1, 4)
    means, sds = pooled.mean(axis=0), pooled.std(axis=0, ddof=1)
    z = {name: (means[j] - TRUTH[name]) / sds[j] for j, name in enumerate(PARAMS)}
    ledger.record("posterior means", all(abs(v) <= POSTERIOR_SDS for v in z.values()), f"z={z}")
    rhat = {name: split_rhat(draws[:, :, j]) for j, name in enumerate(PARAMS)}
    ledger.record("split R-hat", all(v < RHAT_BAR for v in rhat.values()), f"rhat={rhat}")
    found["z"], found["rhat"] = z, rhat
    found["ess"] = {name: bulk_ess(draws[:, :, j]) for j, name in enumerate(PARAMS)}
    return found


def end_to_end(setup: list[float], samples: dict, found: dict) -> dict:
    metrics = {"setup_s": statistics.median(setup)}
    for stage in STAGES:
        metrics[f"{stage}_s"] = statistics.median(wall for wall, _ in samples[stage])
    metrics["pipeline_s"] = sum(metrics[f"{stage}_s"] for stage in STAGES)
    metrics["peak_rss_mb"] = max(rss for runs in samples.values() for _, rss in runs)
    if found["ess"]:
        metrics["sample_ess_per_s"] = min(found["ess"].values()) / metrics["sample_s"]
    if found["kl"] is not None:
        metrics["fit_kl"] = found["kl"]
    return metrics


def read_spans(path: Path) -> list[dict]:
    """Spans from traced.py, each with its duration, child time and stage."""
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    spans = []
    for row in rows:
        parent = int(row["parent"])
        span = {
            "name": row["name"],
            "dur": float(row["end"]) - float(row["start"]),
            "parent": parent,
            "children": 0.0,
        }
        # Parents are recorded before their children, so this is one pass.
        span["stage"] = spans[parent]["stage"] if parent >= 0 else row["name"][len("cli."):]
        span["parent_name"] = spans[parent]["name"] if parent >= 0 else ""
        spans.append(span)
    for span in spans:
        if span["parent"] >= 0:
            spans[span["parent"]]["children"] += span["dur"]
    return spans


def layer_metrics(spans: list[dict], workload: Workload, found: dict, map_json: dict) -> dict:
    """Per-layer times and counts from one traced pipeline's spans."""
    def select(name, stage=None, parent=None):
        return [s for s in spans if s["name"] == name
                and (stage is None or s["stage"] == stage)
                and (parent is None or s["parent_name"] == parent)]

    def total(name, **where):
        return sum(s["dur"] for s in select(name, **where))

    def median(name, **where):
        return statistics.median(s["dur"] for s in select(name, **where))

    def median_self(name, **where):
        return statistics.median(s["dur"] - s["children"] for s in select(name, **where))

    m = {}
    for stage in STAGES:
        root = select(f"cli.{stage}")[0]
        m[f"cli.{stage}.traced_s"] = root["dur"]
        m[f"cli.{stage}.self_s"] = root["dur"] - root["children"]
    m["cli.write_json_ms"] = 1e3 * total("cli.write_json")
    m["cli.load_json_ms"] = 1e3 * total("cli.load_json")
    read_s = total("ingest.read_records")
    m["ingest.read_records_ms"] = 1e3 * read_s
    m["ingest.records_per_s"] = workload.n / read_s
    m["ingest.clean_ms"] = 1e3 * total("ingest.clean")
    m["ingest.fiscal_summary_ms"] = 1e3 * total("ingest.fiscal_summary")
    m["ingest.build_histogram_ms"] = 1e3 * total("ingest.build_histogram", stage="ingest")

    fit_s = total("mapfit.fit_map")
    evals = len(select("model.bin_probabilities", parent="mapfit.fit_map"))
    m["mapfit.fit_map_s"] = fit_s
    m["mapfit.objective_evals"] = evals
    m["mapfit.eval_us"] = 1e6 * fit_s / evals
    m["mapfit.iterations"] = int(map_json["iterations"])
    m["mapfit.kl"] = float(map_json["kl"])

    posterior_s = total("mcmc.log_posterior", stage="sample")
    chains = [s["dur"] for s in select("mcmc.run_chain")]
    m["mcmc.target_evals"] = len(select("mcmc.log_posterior", stage="sample"))
    m["mcmc.log_posterior_us"] = 1e6 * median("mcmc.log_posterior", stage="sample")
    m["mcmc.step_us"] = 1e6 * sum(chains) / (workload.chains * (workload.tune + workload.draws))
    m["mcmc.chain_s_max"] = max(chains)
    m["mcmc.chain_s_min"] = min(chains)
    m["mcmc.run_chains.self_s"] = total("mcmc.run_chains") - sum(chains)
    if found["ess"]:
        m["mcmc.acceptance"] = found["acceptance"]
        for name, value in found["ess"].items():
            m[f"mcmc.ess_bulk.{name}"] = value
        m["mcmc.ess_bulk_min"] = min(found["ess"].values())
    m["mcmc.save_trace_ms"] = 1e3 * total("mcmc.save_trace")
    m["mcmc.load_trace_ms"] = 1e3 * total("mcmc.load_trace")

    data_kernel = dict(name="model.log_kernel", stage="sample", parent="model.log_likelihood")
    m["model.log_kernel.data_us"] = 1e6 * median(**data_kernel)
    m["model.log_kernel.ns_per_point"] = 1e3 * m["model.log_kernel.data_us"] / workload.n
    m["model.log_kernel.grid_us"] = 1e6 * median(
        "model.log_kernel", stage="sample", parent="model.build_density"
    )
    m["model.log_kernel.data_share"] = total(**data_kernel) / posterior_s
    m["model.build_density_us"] = 1e6 * median("model.build_density", stage="sample")
    m["model.build_density.self_us"] = 1e6 * median_self("model.build_density", stage="sample")
    m["model.build_density.share"] = total(
        "model.build_density", stage="sample", parent="model.log_likelihood"
    ) / posterior_s
    for stage in ("simulate", "fit", "sample", "report"):
        m[f"model.build_density.calls.{stage}"] = len(select("model.build_density", stage=stage))
    m["model.log_likelihood.self_us"] = 1e6 * median_self("model.log_likelihood", stage="sample")
    m["model.bin_probabilities_us"] = 1e6 * median("model.bin_probabilities", stage="fit")
    m["diagnostics.summarize_ms"] = 1e3 * total("diagnostics.summarize")
    m["synthetic.sample_ms"] = 1e3 * total("synthetic.sample")
    return m


def run_traced(workload: Workload, seed: int, workdir: Path, ledger: Ledger,
               untraced: dict, found: dict) -> dict:
    """Two traced in-process pipelines; per-layer metrics from the first."""
    runs = []
    for run in (1, 2):
        outdir = workdir / f"traced{run}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        spans_path = outdir / "spans.csv"
        argvs = json.dumps(stage_argvs(workload, seed, outdir))
        code, _, _ = run_process(
            [sys.executable, str(TRACED), str(spans_path), f"trace{run}-seed{seed}", argvs],
            outdir / "traced.log",
            ledger.deadline,
        )
        if not ledger.record(f"traced run {run}", code == 0, f"exit {code}, see {outdir / 'traced.log'}"):
            return {}
        try:
            map_json = json.loads((outdir / "map.json").read_text())
            runs.append(layer_metrics(read_spans(spans_path), workload, found, map_json))
        except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as err:
            ledger.record(f"per-layer metrics of traced run {run}", False, repr(err))
            return {}
    mismatched = [name for name in EXACT_COUNTS if runs[0][name] != runs[1][name]]
    ledger.record("traced counts repeat", not mismatched, f"differ: {mismatched}")
    metrics = runs[0]
    for stage in STAGES:
        metrics[f"cli.{stage}.overhead_s"] = (
            metrics[f"cli.{stage}.traced_s"] - (untraced[f"{stage}_s"] - untraced["setup_s"])
        )
    if "sample_ess_per_s" in untraced:
        metrics["mcmc.ess_per_s"] = untraced["sample_ess_per_s"]
    return metrics


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(name: str, seed: int) -> dict:
    info = {
        "workload": name,
        "seed": seed,
        "why": WORKLOADS[name].why,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }
    lscpu = shutil.which("lscpu")
    if lscpu:
        listing = subprocess.run([lscpu], capture_output=True, text=True, env={"LC_ALL": "C"}).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(":")
            if key in ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache"):
                info[key.lower().replace(" ", "_")] = value.strip()
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = WORK / name
    ledger = Ledger()
    setup = measure_setup(workdir, ledger)
    # A traced run needs untraced stage times only for the overhead figures.
    samples = run_pipeline(workload, seed, 0.0 if trace else seconds, workdir / "pipeline", ledger)
    found = check_outputs(workload, workdir / "pipeline", ledger)
    metrics = end_to_end(setup, samples, found)
    layers = run_traced(workload, seed, workdir, ledger, metrics, found) if trace else {}
    metrics["ops_failed_frac"] = len(ledger.failures) / ledger.attempted
    return {
        "provenance": provenance(name, seed),
        "setup_samples_s": setup,
        "stage_samples": {stage: [wall for wall, _ in runs] for stage, runs in samples.items()},
        "posterior_z": found["z"],
        "split_rhat": found["rhat"],
        "failures": ledger.failures,
        "attempted": ledger.attempted,
        "metrics": metrics,
        "layers": layers,
    }


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = values.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "qrse" / "cli.py").is_file():
        print(f"error: no qrse sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed, emitted = 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        runs = " ".join(f"{stage}x{len(walls)}" for stage, walls in result["stage_samples"].items())
        print(f"== {name}, seed {args.seed}: stage runs {runs}")
        print("provenance: " + json.dumps(result["provenance"]))
        _print_table("end-to-end (tracing off)", result["metrics"], {**END_TO_END, **REPORTED})
        if args.trace:
            _print_table("per-layer (traced)", result["layers"], PER_LAYER)
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
        WORK.mkdir(exist_ok=True)
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n"
        )
        source = result["layers"] if args.trace else result["metrics"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            if metric in source:
                emitted[prefix + metric] = {"value": source[metric], "unit": unit}
        attempted += result["attempted"]
        failed += len(result["failures"])
    correct = failed == 0 and len(emitted) == len(names) * len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
