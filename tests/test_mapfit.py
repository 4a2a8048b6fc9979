import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from qrse import (
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
from qrse import mapfit
from tests.conftest import REF

# KL([1/2, 1/2] || [1/4, 3/4]) = 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
KL_HALF_VS_QUARTERS = 0.14384103622589042
# Soofi ID of that divergence: 1 - exp(-0.5 ln(4/3)) = 1 - sqrt(3)/2
SOOFI_OF_THAT = 0.13397459621556135


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
        restored = mapfit.MapResult.from_json(result.to_json())
        assert restored.params == result.params
        assert restored.kl == result.kl
        assert restored.converged == result.converged

    def test_reverse_direction_changes_objective(self, medium_hist):
        forward = fit_map(medium_hist, init=REF)
        reverse = fit_map(medium_hist, init=REF, reverse=True)
        # Both recover roughly the truth but score with different objectives.
        assert abs(reverse.params.mu - forward.params.mu) < 1.0
        assert reverse.kl != forward.kl

    def test_bad_scale_bounds_rejected(self, medium_hist):
        with pytest.raises(ValueError):
            fit_map(medium_hist, bounds=((0.0, 8.0), (0.1, 8.0), (-50, 120), (-50, 120)))

    def test_no_descent(self, medium_hist, monkeypatch):
        def failing_minimize(objective, start, **kwargs):
            return SimpleNamespace(
                fun=math.inf,
                x=start,
                nit=1,
                final_simplex=(np.tile(start, (5, 1)), np.full(5, math.inf)),
            )

        # fit_map imports minimize when it runs, so patch it at its source.
        monkeypatch.setattr(scipy.optimize, "minimize", failing_minimize)
        with pytest.raises(NoDescent):
            fit_map(medium_hist, seed=0, restarts=1)
