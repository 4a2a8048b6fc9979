import numpy as np
import pytest

from qrse import EvalGrid, QrseParams, SampleConfig, build_density, rng_from_seed, sample
from qrse.synthetic import RNG_ALGORITHM, sample_from_table
from tests.conftest import REF


class TestRng:
    def test_algorithm_pinned(self):
        assert RNG_ALGORITHM == "numpy.random.Philox4x32-10"

    def test_bit_stream_matches_philox(self):
        # Independent construction of the same counter-based generator.
        ours = rng_from_seed(7).random(5)
        reference = np.random.Generator(np.random.Philox(key=7)).random(5)
        np.testing.assert_array_equal(ours, reference)


class TestSampleConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            SampleConfig(n=0, seed=0)
        with pytest.raises(ValueError):
            SampleConfig(n=10, seed=-1)


class TestSample:
    def test_deterministic_per_seed(self):
        a = sample(REF, SampleConfig(n=500, seed=42))
        b = sample(REF, SampleConfig(n=500, seed=42))
        c = sample(REF, SampleConfig(n=500, seed=43))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draws_stay_on_grid_span(self):
        grid = EvalGrid.auto(REF)
        draws = sample(REF, SampleConfig(n=2000, seed=1))
        assert draws.min() >= grid.points[0] - grid.spacing
        assert draws.max() <= grid.points[-1] + grid.spacing

    def test_moments_match_quadrature(self):
        # Oracle: grid-quadrature moments of the tabulated density, which
        # test_model ties to adaptive quadrature independently.
        n = 20000
        draws = sample(REF, SampleConfig(n=n, seed=9))
        table = build_density(REF)
        weights = table.pdf * table.grid.spacing
        mean = float(np.sum(weights * table.grid.points))
        var = float(np.sum(weights * (table.grid.points - mean) ** 2))
        se = np.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 4.0 * se
        assert 0.95 <= draws.var(ddof=1) / var <= 1.05

    def test_cdf_agreement(self):
        # Kolmogorov-Smirnov distance against the sampling CDF itself; at
        # n = 20000 a correct inverse-CDF sampler sits well under 0.015.
        n = 20000
        draws = np.sort(sample(REF, SampleConfig(n=n, seed=4)))
        edges, cumulative = build_density(REF).cell_cdf()
        model_cdf = np.interp(draws, edges, cumulative / cumulative[-1])
        empirical = np.arange(1, n + 1) / n
        ks = float(np.max(np.abs(model_cdf - empirical)))
        assert ks < 0.015

    def test_is_the_table_sampler_on_the_auto_grid(self):
        # The README's route to a custom grid: sample_from_table on that
        # grid's table gives sample's draws when the grid is the auto one.
        table = build_density(REF, EvalGrid.auto(REF))
        via_config = sample(REF, SampleConfig(n=100, seed=5))
        np.testing.assert_array_equal(via_config, sample_from_table(table, 100, 5))

    def test_asymmetry_direction(self):
        # alpha > mu tilts mass to the right of the tipping point.
        skewed = sample(REF, SampleConfig(n=50000, seed=2))
        centered = sample(
            QrseParams(T=REF.T, S=REF.S, mu=REF.mu, alpha=REF.mu),
            SampleConfig(n=50000, seed=2),
        )
        def skewness(v):
            d = v - v.mean()
            return float(np.mean(d**3) / np.mean(d**2) ** 1.5)
        assert skewness(skewed) > 0.5
        assert abs(skewness(centered)) < 0.1
