import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from qrse import (
    DensityTable,
    EmptyBinGrid,
    EvalGrid,
    GridTooLarge,
    GridTooNarrow,
    QrseError,
    QrseParams,
    bin_probabilities,
    build_density,
    choice_difference,
    conditional_entropy,
    entry_probability,
    exit_probability,
    log_kernel,
    log_likelihood,
    payoff_difference,
)
from qrse.model import _log_likelihood_rows, _local_log_z_rows, local_log_z
from tests.conftest import REF

# Binary entropy at p = 3/4, from -(p ln p + (1-p) ln(1-p)):
#   -(0.75 * ln 0.75 + 0.25 * ln 0.25) = 0.5623351446188083
ENTROPY_AT_THREE_QUARTERS = 0.5623351446188083


def naive_log_kernel(x: float, p: QrseParams) -> float:
    """Textbook form of the kernel, written without the stable identities."""
    z = 2.0 * (x - p.mu) / p.T
    prob = 1.0 / (1.0 + math.exp(-z))
    if prob in (0.0, 1.0):
        entropy = 0.0
    else:
        entropy = -(prob * math.log(prob) + (1 - prob) * math.log(1 - prob))
    return entropy - math.tanh((x - p.mu) / p.T) * (x - p.alpha) / p.S


class TestQrseParams:
    def test_array_round_trip_order(self):
        arr = REF.as_array()
        assert arr.tolist() == [2.1, 4.9, 8.66, 17.8]
        assert QrseParams.from_array(arr) == REF

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_scales(self, bad):
        with pytest.raises(ValueError):
            QrseParams(T=bad, S=1.0, mu=0.0, alpha=0.0)
        with pytest.raises(ValueError):
            QrseParams(T=1.0, S=bad, mu=0.0, alpha=0.0)

    def test_rejects_non_finite_locations(self):
        with pytest.raises(ValueError):
            QrseParams(T=1.0, S=1.0, mu=math.nan, alpha=0.0)
        with pytest.raises(ValueError):
            QrseParams(T=1.0, S=1.0, mu=0.0, alpha=math.inf)


class TestEvalGrid:
    def test_from_bounds_spacing(self):
        grid = EvalGrid.from_bounds(0.0, 10.0, 11)
        assert grid.points.tolist() == list(range(11))
        assert grid.spacing == 1.0
        assert grid.cell_edges().tolist() == [i - 0.5 for i in range(12)]

    def test_auto_span(self):
        grid = EvalGrid.auto(REF)
        scale = max(REF.T, REF.S)
        assert grid.points[0] == pytest.approx(min(REF.mu, REF.alpha) - 8 * scale)
        assert grid.points[-1] == pytest.approx(max(REF.mu, REF.alpha) + 8 * scale)
        assert grid.points.size == 4001

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            EvalGrid(points=np.array([0.0, 1.0, 3.0]), spacing=1.0)

    def test_far_from_zero_allows_for_rounding(self):
        # mu + k * dx rounds at ulp(1e4) ~ 1.8e-12, far above 1e-9 of a
        # 2.5e-4 spacing; the grid is still uniform to working precision.
        # 2 * 78,000 + 1 points: 19.5 T either side at S / 4 apart.
        params = QrseParams(T=1.0, S=1e-3, mu=1e4, alpha=1e4)
        grid = EvalGrid.local(params)
        assert grid.points.size == 156_001
        EvalGrid(points=np.linspace(1e4, 1e4 + 1.0, 4001), spacing=2.5e-4)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_rejects_small_departures_far_from_zero(self, offset):
        points = offset + np.arange(100) * 2.5e-4
        points[50] += 1e-9
        with pytest.raises(ValueError, match="uniformly spaced"):
            EvalGrid(points=points, spacing=2.5e-4)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            EvalGrid(points=np.array([1.0]), spacing=1.0)


class TestChoiceProbabilities:
    def test_payoff_difference(self):
        assert payoff_difference(3.0, 1.0) == 4.0
        np.testing.assert_array_equal(
            payoff_difference(np.array([0.0, 1.0]), 1.0), [-2.0, 0.0]
        )

    def test_entry_exit_sum_to_one(self):
        x = np.linspace(-40, 60, 501)
        total = entry_probability(x, REF) + exit_probability(x, REF)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_entry_half_at_tipping_point(self):
        assert entry_probability(REF.mu, REF) == 0.5

    def test_entry_three_quarters_closed_form(self):
        # expit(ln 3) = 3/4 exactly, reached at x = mu + T ln(3) / 2.
        x = REF.mu + REF.T * math.log(3.0) / 2.0
        assert entry_probability(x, REF) == pytest.approx(0.75, abs=1e-15)
        assert exit_probability(x, REF) == pytest.approx(0.25, abs=1e-15)

    def test_entry_exit_match_expit(self):
        # z = 2 (x - mu) / T runs past +-745, where exp(-|z|) underflows.
        x = REF.mu + REF.T / 2.0 * np.linspace(-800.0, 800.0, 16001)
        z = 2.0 * (x - REF.mu) / REF.T
        np.testing.assert_allclose(entry_probability(x, REF), expit(z), rtol=1e-15, atol=0)
        np.testing.assert_allclose(exit_probability(x, REF), expit(-z), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("z", [-1e4, 1e4])
    def test_saturated_probabilities_raise_no_warning(self, z):
        x = REF.mu + z * REF.T / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = entry_probability(x, REF)
            exit_ = exit_probability(x, REF)
            both = entry_probability(np.array([x, -x]), REF)
        assert (entry, exit_) == ((1.0, 0.0) if z > 0 else (0.0, 1.0))
        assert both.tolist() == [float(expit(2.0 * (x - REF.mu) / REF.T)),
                                 float(expit(2.0 * (-x - REF.mu) / REF.T))]

    def test_choice_difference_is_tanh(self):
        x = np.linspace(-30, 50, 401)
        expected = np.tanh((x - REF.mu) / REF.T)
        assert np.max(np.abs(choice_difference(x, REF) - expected)) <= 1e-12

    def test_saturation_is_finite_and_tiny(self):
        # 1000 temperature units out, the minority probability underflows
        # toward zero but must stay a well-defined float.
        far_low = REF.mu - 1000.0 * REF.T
        far_high = REF.mu + 1000.0 * REF.T
        p_low = float(entry_probability(far_low, REF))
        p_high = float(exit_probability(far_high, REF))
        for p in (p_low, p_high):
            assert math.isfinite(p)
            assert 0.0 <= p <= 1e-300


class TestConditionalEntropy:
    def test_ln2_at_tipping_point(self):
        assert float(conditional_entropy(REF.mu, REF)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_closed_form_at_three_quarters(self):
        x = REF.mu + REF.T * math.log(3.0) / 2.0
        assert float(conditional_entropy(x, REF)) == pytest.approx(
            ENTROPY_AT_THREE_QUARTERS, abs=1e-12
        )

    def test_zero_in_saturation(self):
        x = np.array([REF.mu - 1000 * REF.T, REF.mu + 1000 * REF.T])
        np.testing.assert_array_equal(conditional_entropy(x, REF), [0.0, 0.0])

    def test_range_and_symmetry(self):
        x = np.linspace(-40, 60, 1001)
        h = conditional_entropy(x, REF)
        assert np.all(h >= 0.0)
        assert np.all(h <= math.log(2.0))
        # 2 * mu - x rounds in the last ulp, so allow a few of them.
        mirrored = conditional_entropy(2 * REF.mu - x, REF)
        assert np.max(np.abs(h - mirrored)) <= 2e-14


class TestLogKernel:
    def test_matches_naive_formula(self):
        p = QrseParams(T=2.0, S=4.0, mu=1.0, alpha=3.0)
        for x in (-7.3, -1.0, 0.0, 1.0, 2.0, 5.5, 14.0):
            assert float(log_kernel(x, p)) == pytest.approx(
                naive_log_kernel(x, p), abs=1e-12
            )

    def test_finite_far_out(self):
        x = np.array([-1e4, 1e4])
        assert np.all(np.isfinite(log_kernel(x, REF)))


class TestBuildDensity:
    def test_normalizes_on_auto_grid(self):
        table = build_density(REF)
        total = float(np.sum(table.pdf) * table.grid.spacing)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_normalizes_across_parameter_shapes(self):
        cases = [
            QrseParams(T=0.5, S=0.5, mu=-3.0, alpha=-3.0),
            QrseParams(T=8.0, S=0.5, mu=0.0, alpha=20.0),
            QrseParams(T=0.1, S=8.0, mu=10.0, alpha=-10.0),
            QrseParams(T=3.0, S=3.0, mu=40.0, alpha=40.0),
        ]
        for params in cases:
            table = build_density(params)
            total = float(np.sum(table.pdf) * table.grid.spacing)
            assert total == pytest.approx(1.0, abs=1e-6), params

    def test_partition_function_grid_refinement(self):
        # Halving the spacing must not move log Z by more than 1e-6.
        coarse = build_density(REF, EvalGrid.auto(REF, 4001))
        fine = build_density(REF, EvalGrid.auto(REF, 8001))
        assert abs(coarse.log_z - fine.log_z) <= 1e-6

    def test_narrow_grid_rejected(self):
        grid = EvalGrid.from_bounds(REF.mu - 1.0, REF.mu + 1.0, 101)
        with pytest.raises(GridTooNarrow):
            build_density(REF, grid)

    def test_cell_cdf_monotone_and_complete(self):
        table = build_density(REF)
        edges, cumulative = table.cell_cdf()
        assert edges.size == table.grid.points.size + 1
        assert np.all(np.diff(cumulative) >= 0.0)
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-9)

    def test_table_validates_mass(self):
        table = build_density(REF)
        with pytest.raises(ValueError):
            DensityTable(
                grid=table.grid,
                log_kernel_values=table.log_kernel_values,
                log_z=table.log_z,
                pdf=table.pdf * 2.0,  # breaks sum(pdf) * dx = 1
            )


class TestLogLikelihood:
    def test_matches_pointwise_sum(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-5.0, 30.0, size=50)
        table = build_density(REF)
        expected = sum(
            naive_log_kernel(float(x), REF) for x in data
        ) - data.size * table.log_z
        assert log_likelihood(data, REF, table.grid) == pytest.approx(
            expected, abs=1e-9
        )

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            log_likelihood(np.array([]), REF)
        with pytest.raises(ValueError):
            log_likelihood(np.array([1.0, math.nan]), REF)


# T below, between and above S, with alpha on either side of mu.
LOCAL_POINTS = (
    REF,
    QrseParams(T=0.1, S=8.0, mu=-3.0, alpha=40.0),
    QrseParams(T=8.0, S=0.1, mu=40.0, alpha=-20.0),
)


class TestLocalLogZ:
    def test_grid_shape(self):
        # 2 * ceil(19.5 * 4 * T / min(T, S)) + 1 points.
        for params, size in zip(LOCAL_POINTS, (157, 157, 12481)):
            grid = EvalGrid.local(params)
            reach = 19.5 * params.T
            assert grid.points.size == size
            assert grid.points[0] == pytest.approx(params.mu - reach, abs=1e-12)
            assert grid.points[-1] == pytest.approx(params.mu + reach, abs=1e-12)
            assert grid.spacing <= min(params.T, params.S) / 4.0

    def test_kernel_is_exactly_linear_past_the_grid(self):
        # The closed-form tails rest on this: from mu +- 19.5 T outwards
        # tanh rounds to +-1, the entropy to 0 and the kernel to a line.
        for params in LOCAL_POINTS:
            ends = EvalGrid.local(params).points[[0, -1]]
            steps = params.T * np.array([19.5, 20.0, 50.0, 400.0])
            x = np.concatenate([ends, params.mu - steps, params.mu + steps])
            np.testing.assert_array_equal(conditional_entropy(x, params), 0.0)
            np.testing.assert_array_equal(
                log_kernel(x, params), -np.sign(x - params.mu) * ((x - params.alpha) / params.S)
            )

    def test_tails_match_extended_sum(self):
        # The same grid, extended at its spacing until the weights past
        # both ends underflow (the kernel falls dx / S per step), summed
        # term by term.
        for params in LOCAL_POINTS:
            grid = EvalGrid.local(params)
            half = grid.points.size // 2 + math.ceil(800.0 * params.S / grid.spacing)
            points = np.arange(-half, half + 1) * grid.spacing + params.mu
            explicit = build_density(params, EvalGrid(points=points, spacing=grid.spacing))
            assert explicit.pdf[0] == explicit.pdf[-1] == 0.0
            assert local_log_z(params) == pytest.approx(explicit.log_z, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("S", [4.9, 8.0])
    def test_vanishing_temperature_limit(self, S):
        # As T -> 0 the kernel tends to -sign(x - mu) (x - alpha) / S, whose
        # integral is 2 S cosh((mu - alpha) / S); log Z differs by O(T).
        params = QrseParams(T=1e-9, S=S, mu=8.66, alpha=17.8)
        limit = math.log(2.0 * S * math.cosh((params.mu - params.alpha) / S))
        assert local_log_z(params) == pytest.approx(limit, rel=0.0, abs=1e-9)

    def test_default_bounds_worst_corner_size(self):
        # The grid reaches 19.5 T either side at min(T, S) / 4 apart.
        def size(T, S):
            return EvalGrid.local(QrseParams(T=T, S=S, mu=0.0, alpha=0.0)).points.size

        assert size(0.1, 8.0) == size(2.1, 4.9) == 157
        assert size(8.0, 0.1) == 12481

    @pytest.mark.parametrize(
        "T, S, message",
        [(8.0, 1e-6, "1248000001-point grid"), (5e-324, 8.0, "spacing that underflows to 0")],
        ids=["1e-06", "5e-324"],
    )
    def test_over_the_cap_is_typed(self, T, S, message):
        params = QrseParams(T=T, S=S, mu=0.0, alpha=1.0)
        with pytest.raises(GridTooLarge, match=message) as caught:
            local_log_z(params)
        assert isinstance(caught.value, QrseError)
        with pytest.raises(GridTooLarge):
            log_likelihood(np.array([0.5]), params)

    def test_rows_match_one_row_calls(self):
        # Rows of three grid sizes, one wider than the kernel's block (T=8,
        # S=0.05: 24,961 points), interleaved, give each row's own bits.
        points = LOCAL_POINTS + (QrseParams(T=8.0, S=0.05, mu=1.0, alpha=2.0),)
        rows = np.array([points[i].as_array() for i in (0, 3, 1, 2, 0, 2, 3, 1)])
        expected = np.array([local_log_z(QrseParams.from_array(row)) for row in rows])
        assert _local_log_z_rows(rows).tobytes() == expected.tobytes()

    def test_one_row_case(self):
        for params in LOCAL_POINTS:
            assert local_log_z(params) == _local_log_z_rows(params.as_array()[None, :])[0]

    def test_rows_raise_for_the_first_oversized_grid(self):
        rows = np.array([REF.as_array(), [8.0, 1e-6, 0.0, 1.0], [8.0, 1e-7, 0.0, 1.0]])
        with pytest.raises(GridTooLarge, match="S=1e-06"):
            _local_log_z_rows(rows)

    # 500 points fill 32 rows per block; 20,000 more than one block.
    @pytest.mark.parametrize("n", [500, 20_000])
    def test_likelihood_rows_match_one_row_calls(self, n):
        data = np.random.default_rng(4).normal(12.0, 6.0, n)
        rows = np.array([p.as_array() for p in LOCAL_POINTS * 13])
        expected = np.array([log_likelihood(data, QrseParams.from_array(row)) for row in rows])
        assert _log_likelihood_rows(data, rows).tobytes() == expected.tobytes()

    def test_likelihood_default_uses_local_grid(self):
        data = np.array([-4.0, 3.5, 12.0, 30.0])
        expected = float(np.sum(log_kernel(data, REF))) - data.size * local_log_z(REF)
        assert log_likelihood(data, REF) == expected


class TestBinProbabilities:
    def test_partition_sums_to_one(self):
        grid = EvalGrid.auto(REF)
        edges = np.linspace(grid.points[0], grid.points[-1], 40)
        probs = bin_probabilities(edges, REF, grid)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_single_wide_bin_captures_everything(self):
        probs = bin_probabilities(np.array([-1e6, 1e6]), REF)
        assert probs.shape == (1,)
        assert float(probs[0]) == pytest.approx(1.0, abs=1e-9)

    def test_matches_adaptive_quadrature(self):
        # Independent oracle: integrate the unnormalized kernel with
        # scipy.integrate.quad and normalize by a quad evaluation of Z,
        # bypassing the grid machinery entirely. The first and last bins
        # absorb the folded tails, so their oracle integrals run from the
        # far outside.
        edges = np.array([5.0, 9.0, 14.0, 21.0])
        probs = bin_probabilities(edges, REF)

        def kernel(x):
            return math.exp(naive_log_kernel(x, REF))

        # The grid carries all the model mass it can see; integrate over the
        # same span so truncation does not enter the comparison.
        grid = EvalGrid.auto(REF)
        lo, hi = float(grid.points[0]), float(grid.points[-1])
        z, _ = quad(kernel, lo, hi, limit=400, points=[8.66, 17.8])
        spans = [(lo, 9.0), (9.0, 14.0), (14.0, hi)]
        for i, (low, high) in enumerate(spans):
            mass, _ = quad(kernel, low, high, limit=400, points=[8.66, 17.8])
            assert float(probs[i]) == pytest.approx(mass / z, abs=2e-5)

    def test_empty_bin_raises(self):
        grid = EvalGrid.from_bounds(-40.0, 60.0, 101)  # spacing 1.0
        edges = np.array([8.2, 8.4, 9.6])  # first bin holds no grid point
        with pytest.raises(EmptyBinGrid):
            bin_probabilities(edges, REF, grid)

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            bin_probabilities(np.array([1.0, 1.0, 2.0]), REF)
