"""Tests of the benchmark: ESS and R-hat oracles, and BENCHMARK.json agreement.

Run with ``python3 -m pytest perfbench`` (src on PYTHONPATH for the
cross-check against the package).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from ess import bulk_ess, split_rhat  # noqa: E402


def ar1_chains(rho: float, chains: int, draws: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains with unit marginal variance."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws)) * np.sqrt(1.0 - rho * rho)
    noise[:, 0] = rng.standard_normal(chains)  # start in the stationary law
    return lfilter([1.0], [1.0, -rho], noise, axis=1)


def test_iid_normal_chains_have_ess_near_draw_count():
    draws = np.random.default_rng(0).standard_normal((4, 2000))
    assert bulk_ess(draws) == pytest.approx(8000, rel=0.1)


def test_ar1_ess_matches_its_integrated_autocorrelation_time():
    rho = 0.9
    chains = ar1_chains(rho, chains=4, draws=25_000, seed=1)
    expected = chains.size * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(chains) == pytest.approx(expected, rel=0.1)


def test_ess_is_invariant_under_monotone_transforms():
    chains = ar1_chains(0.5, chains=3, draws=2000, seed=2)
    assert bulk_ess(np.exp(chains)) == pytest.approx(bulk_ess(chains), rel=1e-12)


def test_split_rhat_agrees_with_the_package():
    diagnostics = pytest.importorskip("qrse.diagnostics")
    for seed, shift in ((3, 0.0), (4, 0.5)):
        chains = ar1_chains(0.7, chains=3, draws=1001, seed=seed)
        chains[0] += shift
        assert split_rhat(chains) == pytest.approx(diagnostics.split_rhat(chains), rel=1e-12)


def test_benchmark_file_matches_the_emitted_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == run.WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
