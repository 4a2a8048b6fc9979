"""Property tests of the grid-span rule.

Every quadrature grid in the package comes from ``EvalGrid.spanning``. The
oracles below are the four builders' earlier, separate formulas; each grid
the package builds now must be exactly the one its oracle gives.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrse import EvalGrid, HistogramSpec, PriorSpec, QrseParams, build_sampling_grid, fit_map
from qrse import mapfit
from qrse.diagnostics import report_grid
from qrse.model import AUTO_SPAN_SCALES, DEFAULT_GRID_POINTS

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

scales = st.floats(0.1, 8.0)
locations = st.floats(-50.0, 120.0)
params_st = st.builds(QrseParams, T=scales, S=scales, mu=locations, alpha=locations)
sample_st = st.lists(st.floats(-100.0, 200.0), max_size=20).map(np.array)
priors_st = st.builds(
    PriorSpec,
    t_center=scales,
    s_center=scales,
    mu_center=locations,
    alpha_center=locations,
    mu_sd=st.floats(0.1, 20.0),
    alpha_sd=st.floats(0.1, 20.0),
    bound_high=st.floats(1.0, 8.0),
)


@st.composite
def histograms(draw):
    low = draw(st.floats(-100.0, 100.0))
    width = draw(st.floats(0.5, 200.0))
    bins = draw(st.integers(1, 30))
    edges = np.linspace(low, low + width, bins + 1)
    counts = np.ones(bins)
    return HistogramSpec(edges=edges, frequencies=counts / bins, counts=counts)


def oracle_auto(params):
    scale = max(params.T, params.S)
    low = min(params.mu, params.alpha) - AUTO_SPAN_SCALES * scale
    high = max(params.mu, params.alpha) + AUTO_SPAN_SCALES * scale
    return EvalGrid.from_bounds(low, high)


def oracle_sampling(data, priors):
    mu_corners = (priors.mu_center - 4.0 * priors.mu_sd, priors.mu_center + 4.0 * priors.mu_sd)
    alpha_corners = (
        priors.alpha_center - 4.0 * priors.alpha_sd,
        priors.alpha_center + 4.0 * priors.alpha_sd,
    )
    pad = 8.0 * priors.bound_high
    low = min(mu_corners[0], alpha_corners[0]) - pad
    high = max(mu_corners[1], alpha_corners[1]) + pad
    if data.size:
        low = min(low, float(np.min(data)) - pad)
        high = max(high, float(np.max(data)) + pad)
    return EvalGrid.from_bounds(low, high)


def oracle_fit(hist, bounds):
    scale_high = max(bounds[0][1], bounds[1][1])
    low = min(float(hist.edges[0]), bounds[2][0], bounds[3][0]) - 8.0 * scale_high
    high = max(float(hist.edges[-1]), bounds[2][1], bounds[3][1]) + 8.0 * scale_high
    return EvalGrid.from_bounds(low, high)


def oracle_report(params, hist):
    scale = max(params.T, params.S)
    low = min(float(hist.edges[0]), min(params.mu, params.alpha) - AUTO_SPAN_SCALES * scale)
    high = max(float(hist.edges[-1]), max(params.mu, params.alpha) + AUTO_SPAN_SCALES * scale)
    return EvalGrid.from_bounds(low, high)


def assert_same_grid(actual, expected):
    np.testing.assert_array_equal(actual.points, expected.points)
    assert actual.spacing == expected.spacing


class _Captured(Exception):
    pass


def fit_grid(hist, bounds):
    """The grid fit_map hands to its first objective evaluation."""
    def capture(edges, params, grid):
        raise _Captured(grid)

    with mock.patch.object(mapfit, "bin_probabilities", capture):
        with pytest.raises(_Captured) as caught:
            fit_map(hist, bounds=bounds, restarts=0)
    return caught.value.args[0]


class TestSpanning:
    def test_pads_points_and_only_includes_cover(self):
        grid = EvalGrid.spanning((1.0, 3.0), 0.5, cover=(-10.0, 2.0))
        assert grid.points[0] == -10.0
        assert grid.points[-1] == 3.0 + AUTO_SPAN_SCALES * 0.5
        assert grid.points.size == DEFAULT_GRID_POINTS

    def test_default_size(self):
        assert EvalGrid.spanning((0.0,), 1.0).points.size == DEFAULT_GRID_POINTS

    @PROPERTY_SETTINGS
    @given(params_st)
    def test_auto_matches_oracle(self, params):
        assert_same_grid(EvalGrid.auto(params), oracle_auto(params))

    @PROPERTY_SETTINGS
    @given(sample_st, priors_st)
    def test_sampling_grid_matches_oracle(self, data, priors):
        assert_same_grid(build_sampling_grid(data, priors), oracle_sampling(data, priors))

    @PROPERTY_SETTINGS
    # fit_map rejects an empty location box (low == high), so widths start
    # where mu_low + width > mu_low for every drawn location.
    @given(histograms(), scales, scales, locations, locations, st.floats(0.01, 50.0))
    def test_fit_grid_matches_oracle(self, hist, t_high, s_high, mu_low, alpha_low, width):
        bounds = ((0.05, t_high), (0.05, s_high), (mu_low, mu_low + width),
                  (alpha_low, alpha_low + width))
        assert_same_grid(fit_grid(hist, bounds), oracle_fit(hist, bounds))

    @PROPERTY_SETTINGS
    @given(histograms())
    def test_default_fit_grid_matches_oracle(self, hist):
        bounds = mapfit._default_bounds(hist)
        assert_same_grid(fit_grid(hist, None), oracle_fit(hist, bounds))

    @PROPERTY_SETTINGS
    @given(params_st, histograms())
    def test_report_grid_matches_oracle(self, params, hist):
        assert_same_grid(report_grid(params, hist), oracle_report(params, hist))
