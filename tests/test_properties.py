"""Property tests for the rank helper, split R-hat, HDI and bin masses.

R-hat and the HDI depend on the draws only through their order and their
spacing, so an increasing affine map a*x + b must leave R-hat unchanged and
move the HDI with it. Draws come from a seeded generator rather than from
hypothesis directly: hypothesis favours evenly spaced values, whose equal
window widths would let rounding pick a different but equally short HDI.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from qrse import EvalGrid, QrseParams, bin_probabilities, hdi, split_rhat
from qrse.diagnostics import _average_ranks

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

scales = st.floats(0.1, 8.0)
locations = st.floats(-50.0, 120.0)
seeds = st.integers(0, 2**32 - 1)
slopes = st.floats(1e-3, 1e3)
shifts = st.floats(-1e3, 1e3)
# A few repeated values force ties; arbitrary finite floats cover the rest.
rank_values = st.lists(
    st.sampled_from([-1.0, 0.0, 2.5, 7.0]) | st.floats(allow_nan=False),
    min_size=1,
    max_size=80,
)


@PROPERTY_SETTINGS
@given(values=rank_values)
def test_average_ranks_match_scipy(values):
    x = np.array(values)
    assert np.array_equal(_average_ranks(x), rankdata(x))


@PROPERTY_SETTINGS
@given(value=st.floats(allow_nan=False), size=st.integers(1, 50))
def test_average_ranks_of_equal_values(value, size):
    x = np.full(size, value)
    assert np.array_equal(_average_ranks(x), rankdata(x))


def test_average_ranks_propagate_nan():
    x = np.array([1.0, np.nan, 0.0])
    assert np.all(np.isnan(_average_ranks(x))) and np.all(np.isnan(rankdata(x)))


def _chains(seed: int, n_chains: int, n_draws: int, decimals: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, 0.5, (n_chains, 1))
    # Rounding mimics the repeated values a random-walk chain leaves behind.
    return np.round(rng.standard_normal((n_chains, n_draws)) + offsets, decimals)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    n_chains=st.integers(2, 4),
    n_draws=st.integers(4, 300),
    decimals=st.sampled_from([1, 3, 15]),
    a=slopes,
    b=shifts,
)
def test_split_rhat_invariant_under_increasing_affine_map(seed, n_chains, n_draws, decimals, a, b):
    x = _chains(seed, n_chains, n_draws, decimals)
    y = a * x + b
    # The map must keep distinct draws distinct for the ranks to survive.
    assume(np.unique(y).size == np.unique(x).size)
    assert split_rhat(y) == split_rhat(x)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    n=st.integers(20, 500),
    prob=st.floats(0.5, 0.99),
    a=slopes,
    b=shifts,
)
def test_hdi_moves_with_shift_and_scale(seed, n, prob, a, b):
    x = np.random.default_rng(seed).standard_normal(n)
    low, high = hdi(x, prob)
    moved_low, moved_high = hdi(a * x + b, prob)
    tolerance = 1e-12 * (abs(b) + a * np.max(np.abs(x)))
    assert abs(moved_low - (a * low + b)) <= tolerance
    assert abs(moved_high - (a * high + b)) <= tolerance


@PROPERTY_SETTINGS
@given(
    T=scales,
    S=scales,
    mu=locations,
    alpha=locations,
    start=st.floats(-60.0, 130.0),
    widths=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=40),
)
def test_bin_probabilities_sum_to_one(T, S, mu, alpha, start, widths):
    # Bins at least 0.5 wide always hold a point of a 4001-point grid that
    # spans at most about 1100: the widest locations, scales and edges here.
    edges = start + np.concatenate(([0.0], np.cumsum(widths)))
    params = QrseParams(T=T, S=S, mu=mu, alpha=alpha)
    grid = EvalGrid.spanning((mu, alpha), max(T, S), cover=(edges[0], edges[-1]))
    masses = bin_probabilities(edges, params, grid)
    assert np.all(masses >= 0.0)
    assert abs(float(np.sum(masses)) - 1.0) <= 1e-9
