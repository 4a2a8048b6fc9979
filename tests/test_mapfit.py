import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qrse import (
    EvalGrid,
    HistogramSpec,
    LengthMismatch,
    NegativeDivergence,
    NoDescent,
    QrseParams,
    SampleConfig,
    bin_probabilities,
    build_histogram,
    fit_map,
    kl_divergence,
    sample,
    soofi_id,
)
from qrse import cli, mapfit
from qrse.model import _fold_bins
from tests.conftest import REF

# KL([1/2, 1/2] || [1/4, 3/4]) = 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
KL_HALF_VS_QUARTERS = 0.14384103622589042
# Soofi ID of that divergence: 1 - exp(-0.5 ln(4/3)) = 1 - sqrt(3)/2
SOOFI_OF_THAT = 0.13397459621556135
# fit_map(medium_hist, seed=0).kl from the 9-start Nelder-Mead search that
# L-BFGS-B replaced; the gradient search must end no higher.
NELDER_MEAD_KL = 0.013622214783284922
# fit_map's KL with SciPy's L-BFGS-B on 2-point differences, which the Newton
# search replaced, keyed by (histogram, fit seed, reverse). The histograms are
# the README pipeline (N=20k), the benchmark's posterior_2k_long and
# acceptance_100k runs at seed 7 (all at the README truth, simulated and
# ingested by the CLI) and criterion 3's dataset.
LBFGSB_KL = {
    ("readme", 0, False): 0.012799543069059525,
    ("readme", 0, True): 0.0048949937275914925,
    ("posterior_2k_long", 7, False): 0.038111462174181,
    ("posterior_2k_long", 7, True): 0.017370146120578592,
    ("acceptance_100k", 7, False): 0.003926716103993649,
    ("acceptance_100k", 7, True): 0.0016686341692958614,
    ("criterion_3", 0, False): 0.004904304814897245,
    ("criterion_3", 0, True): 0.0018458831057942041,
}


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_frozen_example(self):
        value = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert value == pytest.approx(KL_HALF_VS_QUARTERS, abs=1e-15)

    def test_zero_first_slot_contributes_nothing(self):
        # 0 * log 0 convention: only the nonzero model bin counts.
        value = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_second_slot_floored(self):
        # ln(1 / 1e-10) = 10 ln 10
        value = kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert value == pytest.approx(10.0 * math.log(10.0), abs=1e-12)

    def test_reverse_swaps_slots(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert kl_divergence(p, q, reverse=True) == pytest.approx(
            kl_divergence(q, p), abs=0.0
        )

    def test_never_negative(self):
        p = np.array([0.5, 0.5])
        assert kl_divergence(p, p + 0.0) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))


class TestSoofiId:
    def test_zero_divergence(self):
        assert soofi_id(0.0) == 0.0

    def test_frozen_example(self):
        assert soofi_id(KL_HALF_VS_QUARTERS) == pytest.approx(
            SOOFI_OF_THAT, abs=1e-15
        )

    def test_monotone_and_bounded(self):
        values = [soofi_id(k) for k in (0.01, 0.1, 1.0, 10.0)]
        assert values == sorted(values)
        assert all(0.0 < v < 1.0 for v in values)

    def test_rejects_negative(self):
        with pytest.raises(NegativeDivergence):
            soofi_id(-1e-9)


@pytest.fixture(scope="module")
def medium_hist():
    draws = sample(REF, SampleConfig(n=20000, seed=8))
    return build_histogram(draws, "fd")


class TestFitMap:
    def test_round_trip_medium_sample(self, medium_hist):
        result = fit_map(medium_hist, seed=0)
        assert result.converged
        assert abs(result.params.mu - REF.mu) <= 0.5
        assert abs(result.params.alpha - REF.alpha) <= 0.5
        assert abs(result.params.T - REF.T) / REF.T <= 0.25
        assert abs(result.params.S - REF.S) / REF.S <= 0.25
        assert result.kl >= 0.0
        assert result.soofi_id == pytest.approx(-math.expm1(-result.kl))
        assert result.iterations > 0
        assert result.restarts_used == mapfit.DEFAULT_RESTARTS

    def test_deterministic(self, medium_hist):
        a = fit_map(medium_hist, seed=5, restarts=2)
        b = fit_map(medium_hist, seed=5, restarts=2)
        assert a.params == b.params
        assert a.kl == b.kl

    def test_explicit_init_used_alone(self, medium_hist):
        result = fit_map(medium_hist, init=REF)
        assert result.restarts_used == 0
        assert result.converged
        # Objective at the optimum cannot exceed the objective at truth.
        at_truth = kl_divergence(
            bin_probabilities(medium_hist.edges, REF), medium_hist.frequencies
        )
        assert result.kl <= at_truth + 1e-12

    def test_zero_restarts_fits_moment_start_only(self, medium_hist):
        result = fit_map(medium_hist, seed=0, restarts=0)
        assert result.restarts_used == 0
        assert abs(result.params.mu - REF.mu) <= 0.5

    def test_negative_restarts_rejected(self, medium_hist):
        with pytest.raises(ValueError, match="restarts"):
            fit_map(medium_hist, restarts=-1)

    def test_json_round_trip(self, medium_hist):
        result = fit_map(medium_hist, init=REF)
        payload = result.to_json()
        restored = mapfit.MapResult.from_json(payload)
        assert restored == result
        # The Soofi ID is derived from the KL, so map.json does not store it.
        assert "soofi_id" not in payload
        assert restored.soofi_id == soofi_id(result.kl)

    def test_reverse_direction_changes_objective(self, medium_hist):
        forward = fit_map(medium_hist, init=REF)
        reverse = fit_map(medium_hist, init=REF, reverse=True)
        # Both recover roughly the truth but score with different objectives.
        assert abs(reverse.params.mu - forward.params.mu) < 1.0
        assert reverse.kl != forward.kl

    def test_bad_scale_bounds_rejected(self, medium_hist):
        with pytest.raises(ValueError):
            fit_map(medium_hist, bounds=((0.0, 8.0), (0.1, 8.0), (-50, 120), (-50, 120)))

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (((0.1, 8), (0.1, 8), (50, -50), (-50, 120)), r"mu bounds \(50, -50\) must be finite with low < high"),
            (((0.1, 8), (0.1, 8), (math.nan, 120), (-50, 120)), r"mu bounds \(nan, 120\) must be finite"),
            (((0.1, math.inf), (0.1, 8), (-50, 120), (-50, 120)), r"T bounds \(0.1, inf\) must be finite"),
            (((0.1, 8), (0.1, 8), (-50, 120), (-50, -math.inf)), r"alpha bounds \(-50, -inf\)"),
            (((0.1, 8), (0.1, 8), (-50, 120), (3.0, 3.0)), r"alpha bounds \(3.0, 3.0\) must be finite with low < high"),
            (((0.1, 8), (-1.0, 8), (-50, 120), (-50, 120)), r"S bounds \(-1.0, 8\) must be positive"),
            (((0.1, 8), (0.1, 8), (-50, 120)), "four"),
        ],
        ids=["reversed-mu", "nan-mu", "infinite-T", "infinite-alpha", "empty-alpha", "negative-S", "three-pairs"],
    )
    def test_bad_bounds_rejected_naming_the_pair(self, medium_hist, bounds, message):
        with pytest.raises(ValueError, match=message):
            fit_map(medium_hist, bounds=bounds)

    def test_no_descent(self, medium_hist, monkeypatch):
        def failing_search(objective, start, lows, highs):
            initial = objective.value(start)[0]
            return mapfit._Search(start, math.inf, initial, 1, False, None)

        monkeypatch.setattr(mapfit, "_newton", failing_search)
        with pytest.raises(NoDescent):
            fit_map(medium_hist, seed=0, restarts=1)

    def test_kl_no_worse_than_nelder_mead(self, medium_hist):
        assert fit_map(medium_hist, seed=0).kl <= NELDER_MEAD_KL + 1e-10


def _starts(hist, restarts, seed):
    """Every start fit_map hands to the optimizer, in order."""
    starts = []

    def record(objective, start, lows, highs):
        starts.append(np.array(start))
        value = objective.value(start)[0]
        return mapfit._Search(start, value, value, 0, True, None)

    with mock.patch.object(mapfit, "_newton", record):
        fit_map(hist, restarts=restarts, seed=seed)
    return np.array(starts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(restarts=st.integers(1, 50), seed=st.integers(0, 2**64 - 1))
def test_restarts_form_a_latin_hypercube(medium_hist, restarts, seed):
    starts = _starts(medium_hist, restarts, seed)
    scale_lo, scale_hi = (math.log(b) for b in mapfit.DEFAULT_SCALE_BOUNDS)
    low, high = medium_hist.edges[0], medium_hist.edges[-1]
    lows = np.array([scale_lo, scale_lo, low, low])
    highs = np.array([scale_hi, scale_hi, high, high])
    hypercube = starts[1:]  # starts[0] is the moment start
    assert hypercube.shape == (restarts, 4)
    assert np.all((lows <= hypercube) & (hypercube <= highs))
    # In every dimension, each of the `restarts` equal strata holds one start.
    strata = np.floor((hypercube - lows) / (highs - lows) * restarts)
    for column in strata.T:
        assert sorted(column) == list(range(restarts))
    np.testing.assert_array_equal(_starts(medium_hist, restarts, seed), starts)


@pytest.fixture(scope="module")
def medium_objective(medium_hist):
    """Both directions of the medium histogram's objective, on a grid wide
    enough for locations 40 units past the histogram at any scale."""
    low, high = float(medium_hist.edges[0]), float(medium_hist.edges[-1])
    grid = EvalGrid.spanning((low - 40.0, high + 40.0), 8.0)
    return {
        reverse: mapfit._BinnedKL(medium_hist.edges, medium_hist.frequencies, grid, reverse)
        for reverse in (False, True)
    }


# The examples put T >> S, S >> T, and mu 22 T below the histogram, where
# tanh((x - mu)/T) is 1 at every bin edge.
LOG_SCALE = st.floats(math.log(0.1), math.log(8.0))
LOCATION = st.floats(-40.0, 60.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_t=LOG_SCALE, log_s=LOG_SCALE, mu=LOCATION, alpha=LOCATION, reverse=st.booleans())
@example(log_t=math.log(8.0), log_s=math.log(0.25), mu=8.0, alpha=15.0, reverse=False)
@example(log_t=math.log(8.0), log_s=math.log(0.25), mu=8.0, alpha=15.0, reverse=True)
@example(log_t=math.log(0.1), log_s=math.log(8.0), mu=8.0, alpha=15.0, reverse=False)
@example(log_t=math.log(0.1), log_s=math.log(8.0), mu=8.0, alpha=15.0, reverse=True)
@example(log_t=math.log(0.5), log_s=math.log(8.0), mu=-40.0, alpha=20.0, reverse=False)
@example(log_t=math.log(0.5), log_s=math.log(8.0), mu=-40.0, alpha=20.0, reverse=True)
def test_derivatives_match_central_differences(medium_objective, medium_hist, log_t, log_s, mu, alpha, reverse):
    objective = medium_objective[reverse]
    theta = np.array([log_t, log_s, mu, alpha])
    if (log_t, mu) == (math.log(0.5), -40.0):
        assert np.all(np.tanh((medium_hist.edges - mu) / math.exp(log_t)) == 1.0)
    state = objective.value(theta)[1]
    # Where the model keeps (almost) all its mass beyond the histogram, the
    # KL is flat to rounding and its differences are noise; skip that.
    points = objective.grid.points
    assume(state[3][(points > medium_hist.edges[0]) & (points < medium_hist.edges[-1])].sum() > 0.01)
    gradient, hessian = objective.derivatives(state)
    observed, live = medium_hist.frequencies > 0.0, []

    def central(i, h):
        shift = np.zeros(4)
        shift[i] = h
        (up, up_state), (down, down_state) = objective.value(theta + shift), objective.value(theta - shift)
        live.extend((s[-1] > mapfit.FREQUENCY_FLOOR)[observed] for s in (up_state, down_state))
        slopes = objective.derivatives(up_state)[0] - objective.derivatives(down_state)[0]
        return np.concatenate([[up - down], slopes]) / (2.0 * h)

    # Central differences at h and h/2, and Richardson's extrapolation of
    # the two, whose truncation error is of order h^4: at T = 0.1 the kernel
    # turns over within two grid cells. Their disagreement bounds the
    # differences' error from rounding.
    h = 1e-3
    coarse, fine = (np.array([central(i, step) for i in range(4)]) for step in (h, h / 2.0))
    extrapolated, spread = (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)
    # In reverse the floor puts a kink where the probability of a bin with
    # data crosses it; the differences must not straddle one. Bins near the
    # floor there are differences of CDF values near 1, so the KL's slope
    # carries their rounding, about 1e-5 of the largest.
    if reverse:
        assume(all(np.array_equal(mask, live[0]) for mask in live))
    rtol = 1e-4 if reverse else 1e-6
    assert np.all(np.abs(gradient - extrapolated[:, 0]) <= rtol * np.max(np.abs(gradient)) + 4.0 * spread[:, 0])
    assert np.all(np.abs(hessian - extrapolated[:, 1:]) <= 10.0 * rtol * np.max(np.abs(hessian)) + 4.0 * spread[:, 1:])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_t=LOG_SCALE, log_s=LOG_SCALE, mu=LOCATION, alpha=LOCATION, reverse=st.booleans())
def test_search_value_is_the_public_objective(medium_objective, medium_hist, log_t, log_s, mu, alpha, reverse):
    objective = medium_objective[reverse]
    theta = np.array([log_t, log_s, mu, alpha])
    public = kl_divergence(
        bin_probabilities(medium_hist.edges, mapfit._params(theta), objective.grid),
        medium_hist.frequencies, reverse=reverse,
    )
    assert objective.value(theta)[0] == public


def test_bin_map_and_its_transpose():
    """``_push`` is the bin map B and ``_pull_back`` its transpose, on edges
    that leave the grid at both ends and a bin narrower than a cell."""
    grid = EvalGrid.from_bounds(0.0, 10.0, 11)
    edges = np.array([-3.0, 0.2, 2.5, 4.45, 4.55, 7.0, 9.9, 12.0])
    objective = mapfit._BinnedKL(edges, np.full(7, 1.0 / 7.0), grid, False)
    clipped = np.clip(edges, grid.cell_edges()[0], grid.cell_edges()[-1])
    columns = [
        _fold_bins(np.concatenate([[0.0], np.cumsum(unit)]), grid.cell_edges(), clipped)
        for unit in np.eye(11)
    ]
    bin_map = np.column_stack(columns)
    masses = np.random.default_rng(0).random((3, 11))
    np.testing.assert_allclose(objective._push(masses), masses @ bin_map.T, atol=1e-15)
    slope = np.random.default_rng(1).standard_normal(7)
    np.testing.assert_allclose(objective._pull_back(slope), bin_map.T @ slope, atol=1e-15)


def _cli_histogram(tmp_path_factory, name, n, seed):
    outdir = tmp_path_factory.mktemp(name)
    truth = ("--t", "2.1", "--s", "4.9", "--mu", "8.66", "--alpha", "17.8")
    assert cli.main(["simulate", "--outdir", str(outdir), *truth, "-n", str(n), "--seed", str(seed)]) == 0
    assert cli.main(["ingest", "--outdir", str(outdir), "--input", str(outdir / "synthetic.csv"),
                     "--years", "2000-2016"]) == 0
    return HistogramSpec.from_json(json.loads((outdir / "histogram.json").read_text()))


@pytest.fixture(scope="module")
def gate_histograms(tmp_path_factory):
    return {
        "readme": _cli_histogram(tmp_path_factory, "readme", 20_000, 7),
        "posterior_2k_long": _cli_histogram(tmp_path_factory, "posterior_2k_long", 2_000, 7),
        "acceptance_100k": _cli_histogram(tmp_path_factory, "acceptance_100k", 100_000, 7),
        "criterion_3": build_histogram(sample(REF, SampleConfig(n=100_000, seed=3)), "fd"),
    }


@pytest.mark.parametrize("case", sorted(LBFGSB_KL), ids=lambda case: "-".join(map(str, case)))
def test_newton_ends_no_higher_than_lbfgsb(gate_histograms, capsys, case):
    name, seed, reverse = case
    calls = []
    value = mapfit._BinnedKL.value

    def counted(objective, theta):
        calls.append(None)
        return value(objective, theta)

    with mock.patch.object(mapfit._BinnedKL, "value", counted):
        result = fit_map(gate_histograms[name], seed=seed, reverse=reverse)
    assert result.kl <= LBFGSB_KL[case] + 1e-10
    assert result.converged
    assert len(calls) <= 800


class TestDataUnit:
    @pytest.mark.parametrize(
        "half_width, unit",
        [(1.0, 1.0), (32.0, 1.0), (32.001, 10.0), (320.0, 10.0), (320.1, 100.0), (3.2e7, 1e6)],
    )
    def test_least_power_of_ten_with_sd_at_most_16_units(self, half_width, unit):
        # Two equal bins, so the sd is half a bin width.
        hist = HistogramSpec(edges=np.array([0.0, half_width, 2.0 * half_width]),
                             counts=np.array([1.0, 1.0]))
        assert mapfit._histogram_moments(hist)[1] == half_width / 2.0
        assert mapfit.data_unit(hist) == unit

    def test_default_scale_box_follows_the_unit(self, medium_hist):
        # The same data with the money columns in dollars, not thousands.
        dollars = HistogramSpec(edges=1000.0 * medium_hist.edges, counts=medium_hist.counts)
        assert mapfit.data_unit(medium_hist) == 1.0
        assert mapfit.data_unit(dollars) == 1000.0
        assert mapfit._default_bounds(medium_hist)[:2] == (mapfit.DEFAULT_SCALE_BOUNDS,) * 2
        assert mapfit._default_bounds(dollars)[:2] == ((100.0, 8000.0),) * 2
