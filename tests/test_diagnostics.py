import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from qrse import (
    ChainConfig,
    FitReport,
    HistogramSpec,
    InsufficientDraws,
    ParamSummary,
    PosteriorDraws,
    PriorSpec,
    SampleConfig,
    TooFewSamples,
    build_histogram,
    hdi,
    posterior_mode,
    sample,
    split_rhat,
    summarize,
)
from qrse.diagnostics import _normal_quantile
from tests.conftest import REF, iid_normal_chains

# Two chains at distinct constants plus vanishing noise: after rank
# normalization every split chain holds one half of a standard normal
# sample, so W -> Var(|Z|-folded halves) = 1 - 2/pi + (2/pi - deleted)...
# Worked out: W = 1 - 2/pi, B/n = 8/(3 pi) - adjustment, and the statistic
# saturates at sqrt((1 - 2/pi + 8/(3 pi)) / (1 - 2/pi)) = 1.8264588405538467
# no matter how far apart the constants sit. Frozen as the analytic oracle.
TWO_CHAIN_SATURATION = 1.8264588405538467

PRIORS = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8)


def ndtri_split_rhat(chains: np.ndarray) -> float:
    """split_rhat as first written, with SciPy's inverse normal CDF."""
    half = chains.shape[1] // 2
    splits = np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half:]])
    ranks = rankdata(splits.reshape(-1)).reshape(splits.shape)
    z = ndtri((ranks - 0.375) / (splits.size + 0.25))
    within = np.mean(np.var(z, axis=1, ddof=1))
    between = half * np.var(np.mean(z, axis=1), ddof=1)
    return math.sqrt(((half - 1) / half * within + between / half) / within)


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        value = split_rhat(iid_normal_chains(4, 1000, seed=0))
        assert 0.999 <= value <= 1.005

    def test_two_separated_chains_saturate(self):
        rng = np.random.default_rng(1)
        chains = np.stack([
            0.0 + 0.01 * rng.standard_normal(2000),
            10.0 + 0.01 * rng.standard_normal(2000),
        ])
        value = split_rhat(chains)
        assert value == pytest.approx(TWO_CHAIN_SATURATION, abs=2e-3)
        # Rank normalization caps the two-chain statistic well below 3,
        # however separated the chains are; detecting such separation at
        # the > 3 level takes more chains.
        assert 1.5 < value < 3.0

    def test_many_separated_chains_exceed_three(self):
        rng = np.random.default_rng(2)
        chains = np.stack([
            10.0 * k + 0.01 * rng.standard_normal(1000) for k in range(8)
        ])
        assert split_rhat(chains) > 3.0

    def test_zero_variance_is_one(self):
        assert split_rhat(np.full((3, 100), 7.0)) == 1.0

    def test_distinct_constants_diverge(self):
        chains = np.stack([np.zeros(100), np.full(100, 5.0)])
        assert math.isinf(split_rhat(chains))

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_matches_ndtri_version(self, decimals):
        # decimals=1 and 0 round the draws into many and few tie groups.
        rng = np.random.default_rng(5)
        chains = rng.standard_normal((4, 501)) + np.array([[0.0], [0.0], [0.3], [1.0]])
        if decimals is not None:
            chains = np.round(3.0 * chains, decimals)
        assert split_rhat(chains) == pytest.approx(ndtri_split_rhat(chains), abs=1e-12)

    @pytest.mark.parametrize(
        "p",
        [
            np.linspace(0.075, 0.925, 1001),            # |p - 1/2| <= 0.425
            np.geomspace(1e-10, 0.075, 1001),           # lower tail, r <= 5
            1.0 - np.geomspace(1e-10, 0.0749, 1001),    # upper tail, r <= 5
            np.geomspace(5e-324, 1e-11, 1001),          # lower tail, r > 5
            np.array([1.0 - 2.0**-53, 1.0 - 1e-15]),    # upper tail, r > 5
        ],
        ids=["central", "lower", "upper", "far-lower", "far-upper"],
    )
    def test_quantile_matches_the_standard_library(self, p):
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf(value) for value in p.tolist()])
        got = _normal_quantile(p)
        assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(np.abs(expected)))

    def test_nan_draw_gives_nan(self):
        chains = iid_normal_chains(2, 100)
        chains[1, 7] = np.nan
        assert math.isnan(split_rhat(chains))

    def test_insufficient_draws(self):
        with pytest.raises(InsufficientDraws):
            split_rhat(np.zeros((1, 100)))
        with pytest.raises(InsufficientDraws):
            split_rhat(np.zeros((2, 3)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            split_rhat(np.zeros(100))


class TestHdi:
    def test_uniform_width(self):
        rng = np.random.default_rng(3)
        low, high = hdi(rng.uniform(0.0, 1.0, 20000), 0.94)
        assert (high - low) == pytest.approx(0.94, abs=0.01)

    def test_normal_interval(self):
        rng = np.random.default_rng(4)
        low, high = hdi(rng.standard_normal(50000), 0.94)
        half_width = float(ndtri(0.97))  # 1.8807936081512509
        # Shortest-window endpoints converge slowly (n^(-1/3)); 0.05 is the
        # realistic bar at this sample size.
        assert low == pytest.approx(-half_width, abs=0.05)
        assert high == pytest.approx(half_width, abs=0.05)

    def test_shortest_interval_hugs_the_peak(self):
        # Exponential: the HDI must start at the minimum, unlike an
        # equal-tailed interval.
        rng = np.random.default_rng(5)
        draws = rng.exponential(1.0, 20000)
        low, high = hdi(draws, 0.9)
        assert low == pytest.approx(draws.min(), abs=0.01)
        assert high < np.quantile(draws, 0.95)

    def test_point_mass(self):
        low, high = hdi(np.full(100, 3.3), 0.94)
        assert low == high == 3.3

    def test_validation(self):
        with pytest.raises(ValueError):
            hdi(np.zeros(100), 1.0)
        with pytest.raises(ValueError):
            hdi(np.zeros(100), 0.0)
        with pytest.raises(TooFewSamples):
            hdi(np.zeros(10), 0.94)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples(self, bad):
        # A NaN once gave the interval (1.0, nan).
        samples = np.linspace(0.0, 1.0, 100)
        samples[50] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            hdi(samples, 0.94)


class TestPosteriorMode:
    def test_near_peak_of_normal(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(3.0, 1.0, 20000)
        assert posterior_mode(draws) == pytest.approx(3.0, abs=0.3)

    def test_constant(self):
        assert posterior_mode(np.full(50, 2.5)) == 2.5

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            posterior_mode(np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples(self, bad):
        # These once reached np.histogram's "autodetected range" message.
        samples = np.linspace(0.0, 1.0, 100)
        samples[50] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            posterior_mode(samples)


class TestParamSummary:
    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            ParamSummary(mean=0.0, sd=1.0, mode=0.0, hdi_low=1.0, hdi_high=-1.0,
                         rhat=1.0)

    def test_equal_ends_allowed(self):
        summary = ParamSummary(mean=0.0, sd=0.0, mode=0.0, hdi_low=0.0,
                               hdi_high=0.0, rhat=1.0)
        assert summary.hdi_low == summary.hdi_high


@pytest.fixture(scope="module")
def artificial_posterior():
    """Gaussian bundle around the reference point, 2 chains x 600 draws."""
    rng = np.random.default_rng(7)
    center = np.array([REF.T, REF.S, REF.mu, REF.alpha])
    sds = np.array([0.05, 0.05, 0.1, 0.2])
    draws = center + sds * rng.standard_normal((2, 600, 4))
    draws[:, :, :2] = np.clip(draws[:, :, :2], 0.101, 7.999)
    config = ChainConfig(chains=2, draws=600, tune=0, seed=0)
    return PosteriorDraws(
        draws=draws,
        acceptance_rates=(0.3, 0.3),
        step_scales=((0.1,) * 4, (0.1,) * 4),
        config=config,
        priors=PRIORS,
    )


@pytest.fixture(scope="module")
def observed_hist():
    return build_histogram(sample(REF, SampleConfig(n=5000, seed=10)), "fd")


class TestSummarize:
    def test_report_rows_in_presentation_order(self, artificial_posterior, observed_hist):
        report = summarize(artificial_posterior, observed_hist)
        assert [name for name, _ in report.rows] == ["mu", "alpha", "T", "S"]

    def test_row_statistics(self, artificial_posterior, observed_hist):
        report = summarize(artificial_posterior, observed_hist)
        by_name = dict(report.rows)
        assert by_name["mu"].mean == pytest.approx(REF.mu, abs=0.05)
        assert by_name["T"].sd == pytest.approx(0.05, rel=0.2)
        for summary in by_name.values():
            assert summary.hdi_low <= summary.mode <= summary.hdi_high
            assert summary.rhat >= 1.0 - 1e-3

    def test_fit_scores(self, artificial_posterior, observed_hist):
        report = summarize(artificial_posterior, observed_hist)
        assert report.kl >= 0.0
        assert report.soofi_id == pytest.approx(-math.expm1(-report.kl))
        assert report.n == observed_hist.n
        assert report.chains == 2

    def test_text_table(self, artificial_posterior, observed_hist):
        report = summarize(artificial_posterior, observed_hist)
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0] == "parameter         mean (sd)     mode            94% HDI   rhat"
        assert all(len(line) == len(lines[0]) for line in lines[1:6])
        assert lines[2].startswith("mu")
        assert lines[5].startswith("S")
        assert any(line.startswith("KL divergence:") for line in lines)
        assert any(line.startswith("Soofi ID:") for line in lines)

    def test_text_table_widens_for_large_estimates(self, artificial_posterior, observed_hist):
        # Estimates in dollars, not thousands: the mean (sd) and HDI cells
        # of alpha are wider than the columns' usual widths, so the columns
        # widen and every cell still ends under the end of its header.
        report = summarize(artificial_posterior, observed_hist)
        report = dataclasses.replace(report, rows=tuple(
            (name, dataclasses.replace(s, mean=1000 * s.mean, sd=1000 * s.sd, mode=1000 * s.mode,
                                       hdi_low=1000 * s.hdi_low, hdi_high=1000 * s.hdi_high))
            for name, s in report.rows
        ))
        header, rule, *rows = report.to_text().splitlines()[:6]
        assert len(rule) == len(header) > 62 and set(rule) == {"-"}
        ends = [header.index(label) + len(label) for label in ("mean (sd)", "mode", "HDI", "rhat")]
        for row in rows:
            assert len(row) == len(header)
            assert all(row[end - 1] != " " and row[end:end + 1] in ("", " ") for end in ends)

    def test_json_shape(self, artificial_posterior, observed_hist):
        report = summarize(artificial_posterior, observed_hist)
        payload = report.to_json()
        assert set(payload["parameters"]) == {"mu", "alpha", "T", "S"}
        assert set(payload["parameters"]["mu"]) == {
            "mean", "sd", "mode", "hdi_low", "hdi_high", "rhat"
        }
        assert payload["n"] == observed_hist.n

    def test_custom_hdi_prob(self, artificial_posterior, observed_hist):
        wide = summarize(artificial_posterior, observed_hist, hdi_prob=0.99)
        narrow = summarize(artificial_posterior, observed_hist, hdi_prob=0.5)
        w = dict(wide.rows)["mu"]
        n = dict(narrow.rows)["mu"]
        assert (w.hdi_high - w.hdi_low) > (n.hdi_high - n.hdi_low)
        assert "50% HDI" in narrow.to_text()
