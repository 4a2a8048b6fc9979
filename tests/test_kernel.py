"""Property tests of the QRSE kernel and log partition function.

The oracle is the softplus/sigmoid form of the kernel, with a clip to
[0, ln 2], against which the two-transcendental tanh form must agree.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logsumexp

from qrse import (
    EvalGrid,
    GridTooNarrow,
    QrseParams,
    build_density,
    conditional_entropy,
    log_kernel,
)
from qrse import model
from tests.conftest import REF

LN2 = math.log(2.0)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

scales = st.floats(0.1, 8.0)
locations = st.floats(-50.0, 120.0)
# alpha sits within 50 of mu, which bounds |x - alpha| / S near the tipping
# point, where the oracle's 2p - 1 carries an absolute error of one ulp.
offsets = st.floats(-50.0, 50.0)
# Distance from the tipping point in temperature units, out to saturation.
distances = st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=64)


def oracle_entropy(x, p: QrseParams):
    z = 2.0 * (x - p.mu) / p.T
    return np.clip(np.logaddexp(0.0, z) - z * expit(z), 0.0, LN2)


def oracle_log_kernel(x, p: QrseParams):
    z = 2.0 * (x - p.mu) / p.T
    return oracle_entropy(x, p) - (2.0 * expit(z) - 1.0) * ((x - p.alpha) / p.S)


def assert_close(actual, expected):
    bound = 1e-12 * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(actual - expected) <= bound)


@PROPERTY_SETTINGS
@given(T=scales, S=scales, mu=locations, offset=offsets, r=distances)
def test_kernel_matches_oracle(T, S, mu, offset, r):
    p = QrseParams(T=T, S=S, mu=mu, alpha=mu + offset)
    x = mu + T * np.array(r)
    assert_close(log_kernel(x, p), oracle_log_kernel(x, p))
    assert_close(conditional_entropy(x, p), oracle_entropy(x, p))


@PROPERTY_SETTINGS
@given(T=scales, mu=locations, r=distances)
def test_entropy_bounds_and_exact_endpoints(T, mu, r):
    p = QrseParams(T=T, S=1.0, mu=mu, alpha=mu)
    x = np.concatenate([[mu], mu + T * np.array(r)])
    h = conditional_entropy(x, p)
    assert np.all(h >= 0.0)
    assert np.all(h <= LN2)
    assert h[0] == LN2
    saturated = np.abs(np.tanh((x - mu) / T)) == 1.0
    assert np.all(h[saturated] == 0.0)


def test_scalar_input_gives_scalar():
    assert np.ndim(log_kernel(REF.mu, REF)) == 0
    assert float(conditional_entropy(REF.mu, REF)) == LN2


def test_blocked_evaluation_equals_single_block(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.normal(REF.mu, 20.0, 3 * model._BLOCK + 1234)
    blocked_kernel = log_kernel(x, REF)
    blocked_entropy = conditional_entropy(x, REF)
    monkeypatch.setattr(model, "_BLOCK", x.size)
    np.testing.assert_array_equal(blocked_kernel, log_kernel(x, REF))
    np.testing.assert_array_equal(blocked_entropy, conditional_entropy(x, REF))


def test_blocked_evaluation_keeps_shape():
    x = np.linspace(-40.0, 60.0, 2 * model._BLOCK + 10).reshape(2, -1)
    k = log_kernel(x, REF)
    assert k.shape == x.shape
    np.testing.assert_array_equal(k.reshape(-1), log_kernel(x.reshape(-1), REF))


@PROPERTY_SETTINGS
@given(T=scales, S=scales, mu=st.floats(-50.0, 50.0), alpha=st.floats(-50.0, 50.0))
def test_log_z_matches_logsumexp(T, S, mu, alpha):
    table = build_density(QrseParams(T=T, S=S, mu=mu, alpha=alpha))
    reference = float(logsumexp(table.log_kernel_values)) + math.log(table.grid.spacing)
    assert table.log_z == pytest.approx(reference, abs=1e-12)
    expected_pdf = np.exp(table.log_kernel_values - reference)
    np.testing.assert_allclose(
        table.pdf, expected_pdf, rtol=1e-12, atol=1e-12 * np.max(expected_pdf)
    )


@pytest.mark.parametrize("side", ["low", "high"])
def test_grid_cut_on_one_side_is_too_narrow(side):
    full = EvalGrid.auto(REF)
    low, high = full.points[0], full.points[-1]
    if side == "low":
        grid = EvalGrid.from_bounds(REF.mu - REF.T, high)
    else:
        grid = EvalGrid.from_bounds(low, REF.alpha)
    with pytest.raises(GridTooNarrow):
        build_density(REF, grid)
