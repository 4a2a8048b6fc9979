"""Property tests of the QRSE kernel, its sum over data and the log
partition function.

The kernel's oracle is the softplus/sigmoid form, with a clip to [0, ln 2],
against which the two-transcendental tanh form must agree. The sum over
data has its own oracle: the kernel's definition evaluated in 40-digit
arithmetic at each point and summed exactly.
"""

import contextlib
import decimal
import math
from unittest import mock

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
    log_likelihood,
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


ORACLE = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def exact_log_kernel(x: float, p: QrseParams) -> float:
    """The kernel from its definition, in 40-digit decimal arithmetic,
    rounded once: the binary entropy of the entry probability
    1/(1 + exp(-2u)) and the exit probability 1/(1 + exp(2u)), each formed
    directly, minus tanh(u) (x - alpha)/S, with u = (x - mu)/T and
    tanh(u) = (1 - exp(-2u)) / (1 + exp(-2u)). The exponent range is the
    widest decimal allows, so exp(2u) neither overflows nor underflows at
    |u| = 1e6."""
    with decimal.localcontext(ORACLE):
        x, T, S, mu, alpha = map(decimal.Decimal, (x, p.T, p.S, p.mu, p.alpha))
        u = (x - mu) / T
        down, up = (-2 * u).exp(), (2 * u).exp()
        enter, leave = 1 / (1 + down), 1 / (1 + up)
        entropy = -(enter * enter.ln() + leave * leave.ln())
        tanh = (1 - down) / (1 + down)
        return float(entropy - tanh * (x - alpha) / S)


@st.composite
def data_sum_cases(draw):
    """Parameters and data for the sum over data: T from 300 times below S
    to 300 times above it; mu among the data, or below or above all of it
    (split index 0 or n); optional ties at x == mu, duplicated values and
    a pair of points 1e6 T either side of mu."""
    S = draw(st.floats(0.05, 10.0))
    T = S * 10.0 ** draw(st.floats(-2.5, 2.5))
    mu = draw(st.floats(-50.0, 50.0))
    alpha = mu + draw(offsets)
    spread = draw(st.sampled_from([T, S]))
    centre = mu + draw(st.floats(-3.0, 3.0)) * spread
    x = [centre + spread * z for z in draw(st.lists(st.floats(-20.0, 20.0), min_size=1,
                                                      max_size=30))]
    side = draw(st.sampled_from(["among", "below", "above"]))
    if side == "below":
        mu = min(x) - T * draw(st.floats(0.0, 5.0))
    elif side == "above":
        mu = max(x) + T * draw(st.floats(1e-3, 5.0))
    if draw(st.booleans()):
        x.append(mu)
    x += draw(st.lists(st.sampled_from(x), max_size=4))
    if draw(st.booleans()):
        x += [mu - 1e6 * T, mu + 1e6 * T]
    return QrseParams(T=T, S=S, mu=mu, alpha=alpha), np.array(x)


def both_layouts(x):
    """Row blocks (the default _BLOCK, for N <= 8,192), then one row with
    its sides as separate slices (_BLOCK patched to N)."""
    yield contextlib.nullcontext()
    yield mock.patch.object(model, "_BLOCK", x.size)


def data_sum(x, p: QrseParams) -> float:
    return float(model._data_log_kernel(model._sort_data(x), p.as_array()[None])[0])


def test_overflowing_points_are_saturated():
    # (x - mu) / T overflows: the entropy is exactly 0 and the kernel
    # -|x - alpha| / S, with no warning (the suite turns warnings into
    # errors) and no NaN, pointwise and in the sum over data.
    p = QrseParams(T=0.1, S=1.0, mu=0.0, alpha=0.0)
    x = np.array([1e308, -1e308])
    np.testing.assert_array_equal(log_kernel(x, p), [-1e308, -1e308])
    np.testing.assert_array_equal(conditional_entropy(x, p), [0.0, 0.0])
    for one in x[:, None]:
        assert data_sum(one, p) == -1e308
        assert log_likelihood(one, p) == -1e308 - model.local_log_z(p)


@PROPERTY_SETTINGS
@given(case=data_sum_cases())
def test_data_sum_matches_oracle(case):
    # Both layouts of _choice_sums: row blocks, and one row with its sides
    # as separate slices (which runs once a block holds fewer than two).
    p, x = case
    terms = [exact_log_kernel(v, p) for v in x.tolist()]
    bound = 1e-12 * math.fsum(map(abs, terms))
    for layout in both_layouts(x):
        with layout:
            assert abs(data_sum(x, p) - math.fsum(terms)) <= bound


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("where", ["at", "below", "above"])
def test_data_sum_splits_at_mu(n, where):
    # N = 1 and a few ties, with mu at the data (every point a tie), or
    # below or above all of it: split index 0 or n.
    p = QrseParams(T=0.7, S=2.5, mu=3.0, alpha=5.0)
    x = np.full(n, {"at": 3.0, "below": 4.0, "above": 2.0}[where])
    terms = [exact_log_kernel(v, p) for v in x.tolist()]
    assert abs(data_sum(x, p) - math.fsum(terms)) <= 1e-15 * math.fsum(map(abs, terms))


def test_negative_zero_sits_with_zero():
    # -0.0 - 0.0 is -0.0, whose sign bit would put a tie at mu = 0 below the
    # split that searchsorted puts it above; sorting reads -0.0 as 0.0.
    p = QrseParams(T=0.7, S=2.5, mu=0.0, alpha=5.0)
    x = np.array([-0.0, 1.5, 0.0, -0.0, -2.0])
    terms = [exact_log_kernel(v, p) for v in x.tolist()]
    assert abs(data_sum(x, p) - math.fsum(terms)) <= 1e-15 * math.fsum(map(abs, terms))
    assert data_sum(x, p) == data_sum(x + 0.0, p)


@PROPERTY_SETTINGS
@given(T=scales, S=scales, mu=st.floats(-50.0, 50.0), offset=offsets,
       r=st.lists(st.floats(1e3, 1e9) | st.floats(-1e9, -1e3), min_size=1, max_size=20))
def test_saturated_points_add_their_line_only(T, S, mu, offset, r):
    # Past saturation e = exp(-2|d|/T) is 0: the entropy sums are exactly 0
    # and each point adds what log_kernel gives it, -sign(d) (x - alpha)/S.
    p = QrseParams(T=T, S=S, mu=mu, alpha=mu + offset)
    x = mu + T * np.array(r)
    data = model._sort_data(x)
    below = np.searchsorted(data.x, [mu])
    weighted, log_terms, _ = model._choice_sums(data.x, np.array([2.0 / T]), np.array([mu]), below)
    assert weighted[0] == log_terms[0] == 0.0
    kernel = log_kernel(x, p).tolist()
    assert abs(data_sum(x, p) - math.fsum(kernel)) <= 1e-12 * math.fsum(map(abs, kernel))


@pytest.mark.parametrize("n", [1, 20, 45, 3001])
def test_data_sum_matches_oracle_across_product_columns(n):
    # The log1p sum is a sum of logs of column products: N = 1, N below
    # _FACTORS, N not a multiple of it, and N = 3,001, whose 94 columns
    # are 31 full rows plus 87 points folded into the first columns. Points
    # lie within 4 T of mu, with ties at mu, so that factors reach 2.
    p = QrseParams(T=1.3, S=2.9, mu=4.0, alpha=6.5)
    rng = np.random.default_rng(n)
    x = p.mu + p.T * rng.uniform(-4.0, 4.0, n)
    x[::7] = p.mu
    terms = [exact_log_kernel(v, p) for v in x.tolist()]
    bound = 1e-12 * math.fsum(map(abs, terms))
    for layout in both_layouts(x):
        with layout:
            assert abs(data_sum(x, p) - math.fsum(terms)) <= bound


def log1p_sum(x, p: QrseParams) -> float:
    """``_choice_sums``' sum of log1p(e) over x, e = exp(-2|x - mu|/T)."""
    data = model._sort_data(x)
    below = np.searchsorted(data.x, [p.mu])
    sums = model._choice_sums(data.x, np.array([2.0 / p.T]), np.array([p.mu]), below)
    return float(sums[1, 0])


@pytest.mark.parametrize("near", [0.0, 0.1])
@pytest.mark.parametrize("n", [7, 3001])
def test_log1p_sum_in_the_far_tail(n, near):
    # Every point 10-30 T from mu, so each e lies in 1e-26-2e-9, where
    # 1 + e keeps few of e's bits or none; then a tenth of them within 3 T
    # of mu and the rest that far out. The sum holds 1e-12 of math.log1p's
    # summed exactly, in both layouts.
    p = QrseParams(T=0.8, S=2.0, mu=-3.0, alpha=1.0)
    rng = np.random.default_rng(n)
    z = rng.choice([-1.0, 1.0], n) * rng.uniform(10.0, 30.0, n)
    z[: int(near * n)] = rng.uniform(-3.0, 3.0, int(near * n))
    x = p.mu + p.T * z
    e = [math.exp(-(2.0 / p.T) * abs(v - p.mu)) for v in x.tolist()]
    exact = math.fsum(map(math.log1p, e))
    for layout in both_layouts(x):
        with layout:
            assert abs(log1p_sum(x, p) - exact) <= 1e-12 * exact


def test_log1p_sum_rows_stand_alone():
    # One block holding rows that take the column products and rows whose
    # points are nearly all far in the tail, which take np.log1p: each row
    # gives the bits of its one-row call.
    x = np.sort(np.random.default_rng(3).normal(0.0, 5.0, 500))
    scale = 2.0 / np.array([2.0, 0.5, 1.0, 1.0])
    mu = np.array([0.0, 40.0, 1.0, -40.0])
    below = np.searchsorted(x, mu)
    block = model._choice_sums(x, scale, mu, below)
    for r in range(len(mu)):
        alone = model._choice_sums(x, scale[r:r + 1], mu[r:r + 1], below[r:r + 1])
        np.testing.assert_array_equal(block[:, r], alone[:, 0])


@st.composite
def choice_sum_cases(draw):
    """Sorted data of 1 to 8,192 points, where a block of _BLOCK elements
    holds two rows or more, and 2 to 8 rows (2/T, mu, split). The data may
    hold -0.0 and 0.0, points 25 T and 1e6 T (past saturation) from 0, and
    ties from rounding; each mu lies below the data, among it, on a data
    point or above it."""
    n = draw(st.integers(1, model._BLOCK // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.floats(0.1, 30.0)), n)
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        x = np.round(x, decimals)
    extra = draw(st.lists(st.sampled_from([-0.0, 0.0, 25.0, -25.0, 1e6, -1e6]), max_size=min(n, 6)))
    x[:len(extra)] = extra
    x = model._sort_data(x).x
    T = np.array(draw(st.lists(scales, min_size=2, max_size=8)))
    mu = []
    for scale in T.tolist():
        side = draw(st.sampled_from(["below", "among", "on", "above"]))
        if side == "below":
            mu.append(x[0] - scale * draw(st.floats(0.0, 5.0)))
        elif side == "among":
            mu.append(draw(st.floats(x[0], x[-1])))
        elif side == "on":
            mu.append(x[draw(st.integers(0, n - 1))])
        else:
            mu.append(x[-1] + scale * draw(st.floats(1e-3, 5.0)))
    mu = np.array(mu)
    return x, 2.0 / T, mu, np.searchsorted(x, mu)


@PROPERTY_SETTINGS
@given(case=choice_sum_cases())
def test_choice_sum_layouts_agree_bit_for_bit(case):
    # Row blocks negate each row's lower slice of 1 + e, as one row with its
    # sides as separate slices does: the three sums have the same bits in
    # both layouts, and each row those of its one-row call.
    x, scale, mu, below = case
    results = []
    for layout in both_layouts(x):
        with layout:
            sums = model._choice_sums(x, scale, mu, below)
            for r in range(len(mu)):
                alone = model._choice_sums(x, scale[r:r + 1], mu[r:r + 1], below[r:r + 1])
                assert alone[:, 0].tobytes() == sums[:, r].tobytes()
            results.append(sums)
    assert results[0].tobytes() == results[1].tobytes()
