import contextlib
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize, special, stats

from qrse import (
    BadStart,
    ChainConfig,
    EvalGrid,
    GridTooLarge,
    OutOfSupport,
    ParseError,
    QrseError,
    PosteriorDraws,
    PriorSpec,
    QrseParams,
    SampleConfig,
    StuckChain,
    build_density,
    build_histogram,
    build_sampling_grid,
    fit_map,
    load_trace,
    log_likelihood,
    log_posterior,
    run_chain,
    run_chains,
    sample,
    save_trace,
)
from qrse import mcmc, mapfit
from qrse.model import local_log_z
from tests.conftest import REF

PRIORS = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8)


def location_box(priors: PriorSpec):
    """(low, high) for mu, then for alpha: CORNER_SDS prior sds either side
    of the prior centre, as the sampled posterior is truncated."""
    return tuple(
        (center - mcmc.CORNER_SDS * sd, center + mcmc.CORNER_SDS * sd)
        for center, sd in ((priors.mu_center, priors.mu_sd), (priors.alpha_center, priors.alpha_sd))
    )


def scipy_prior_logpdf(params: QrseParams, priors: PriorSpec) -> float:
    """Independent prior density via scipy's truncnorm/norm."""
    total = 0.0
    for value, center, sd in (
        (params.T, priors.t_center, priors.t_sd),
        (params.S, priors.s_center, priors.s_sd),
    ):
        a = (priors.bound_low - center) / sd
        b = (priors.bound_high - center) / sd
        total += stats.truncnorm.logpdf(value, a, b, loc=center, scale=sd)
    total += stats.norm.logpdf(params.mu, priors.mu_center, priors.mu_sd)
    total += stats.norm.logpdf(params.alpha, priors.alpha_center, priors.alpha_sd)
    return float(total)


class TestPriorSpec:
    def test_matches_scipy_truncnorm(self):
        for params in (
            REF,
            QrseParams(T=0.2, S=7.5, mu=-12.0, alpha=30.0),
            QrseParams(T=5.0, S=1.0, mu=8.66, alpha=17.8),
        ):
            assert PRIORS.log_density(params) == pytest.approx(
                scipy_prior_logpdf(params, PRIORS), abs=1e-10
            )

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            PRIORS.log_density(QrseParams(T=9.0, S=4.9, mu=0.0, alpha=0.0))
        with pytest.raises(OutOfSupport):
            PRIORS.log_density(QrseParams(T=2.0, S=0.05, mu=0.0, alpha=0.0))

    def test_support_bounds_inclusive(self):
        assert PRIORS.in_support(0.1, 8.0)
        assert not PRIORS.in_support(0.0999, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(t_center=2.0, s_center=2.0, mu_center=0.0, alpha_center=0.0,
                      t_sd=0.0)
        with pytest.raises(ValueError):
            PriorSpec(t_center=2.0, s_center=2.0, mu_center=0.0, alpha_center=0.0,
                      bound_low=8.0, bound_high=0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", list(PRIORS.to_json()))
    def test_every_field_must_be_finite(self, name, value):
        # A NaN or infinite setting once reached the mode search, which
        # failed there with a numpy warning or named T instead of the field.
        fields = {**PRIORS.to_json(), name: value}
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            PriorSpec(**fields)

    @pytest.mark.parametrize("bound_low", [0.0, -0.0, -1.0, -5.0, math.nan])
    def test_bound_low_must_be_positive(self, bound_low):
        # T and S are scales: a nonpositive bound would let the chain propose
        # T < 0, which fails only after the mode search.
        with pytest.raises(ValueError, match="0 < low < high"):
            PriorSpec(t_center=0.2, s_center=2.0, mu_center=0.0, alpha_center=0.0,
                      bound_low=bound_low)

    # A center more than a few sds below the interval is left out: there
    # the ndtr form subtracts two numbers near 1 and is itself inexact.
    @pytest.mark.parametrize("center, sd", [
        (center, sd)
        for center in (-3.0, 0.1, 2.1, 4.05, 4.9, 8.0, 12.0)
        for sd in (0.5, 2.0, 10.0)
        if (0.1 - center) / sd < 2.0
    ])
    def test_log_mass_matches_ndtr(self, center, sd):
        priors = PriorSpec(t_center=center, s_center=2.0, mu_center=0.0, alpha_center=0.0,
                           t_sd=sd)
        mass = special.ndtr((priors.bound_high - center) / sd) - special.ndtr(
            (priors.bound_low - center) / sd
        )
        expected = math.log(mass)
        assert abs(priors._t_log_mass - expected) <= 1e-14 * max(1.0, abs(expected))

    @pytest.mark.parametrize("t_center", [-20.0, 28.1])
    def test_center_far_outside_either_bound(self, t_center):
        # -20 and 28.1 mirror each other about the interval's midpoint 4.05.
        # Below the interval both lower-tail CDFs round to 1, and their
        # difference used to leave a mass of 0.
        priors = PriorSpec(t_center=t_center, s_center=4.9, mu_center=8.66,
                           alpha_center=17.8)
        assert priors._t_log_mass == pytest.approx(-53.73742804257583, rel=1e-12)
        params = QrseParams(T=0.5, S=4.9, mu=8.66, alpha=17.8)
        assert priors.log_density(params) == pytest.approx(
            scipy_prior_logpdf(params, priors), rel=1e-12
        )

    def test_json_round_trip(self):
        restored = PriorSpec.from_json(PRIORS.to_json())
        assert restored == PRIORS

    def test_centers_and_sds_order(self):
        assert PRIORS.centers().tolist() == [2.1, 4.9, 8.66, 17.8]
        assert PRIORS.sds().tolist() == [2.0, 2.0, 10.0, 10.0]


class TestLogPosterior:
    def test_prior_only_with_empty_data(self):
        value = log_posterior(REF, np.array([]), PRIORS)
        assert value == PRIORS.log_density(REF)

    def test_composition_with_data(self):
        data = sample(REF, SampleConfig(n=200, seed=2))
        grid = build_sampling_grid(data, PRIORS)
        value = log_posterior(REF, data, PRIORS, grid)
        expected = scipy_prior_logpdf(REF, PRIORS) + log_likelihood(data, REF, grid)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_out_of_support_raises(self):
        with pytest.raises(OutOfSupport):
            log_posterior(
                QrseParams(T=8.5, S=4.0, mu=0.0, alpha=0.0), np.array([]), PRIORS
            )

    def test_default_matches_sampler_target(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("build_sampling_grid called")

        monkeypatch.setattr(mcmc, "build_sampling_grid", forbidden)
        data = sample(REF, SampleConfig(n=200, seed=2))
        target = mcmc._Target(data, PRIORS)
        for theta in ([2.1, 4.9, 8.66, 17.8], [0.3, 7.5, 20.0, -5.0]):
            params = QrseParams.from_array(theta)
            expected = scipy_prior_logpdf(params, PRIORS) + log_likelihood(data, params)
            value = log_posterior(params, data, PRIORS)
            assert value == target(np.array([theta]))[0]
            assert value == pytest.approx(expected, abs=1e-10)


class TestBuildSamplingGrid:
    def test_covers_data_and_prior_corners(self):
        data = np.array([-35.0, 90.0])
        grid = build_sampling_grid(data, PRIORS)
        assert grid.points[0] < data.min()
        assert grid.points[-1] > data.max()
        assert grid.points[0] < PRIORS.mu_center - 4 * PRIORS.mu_sd
        assert grid.points[-1] > PRIORS.alpha_center + 4 * PRIORS.alpha_sd

    def test_empty_data_allowed(self):
        grid = build_sampling_grid(np.array([]), PRIORS)
        assert grid.points.size == 4001


def fine_log_z(params: QrseParams) -> float:
    """log Z on a grid 10x finer than the local grid, reaching 60 max(T, S)
    either side of mu, past which the density holds under exp(-60)."""
    wide, narrow = max(params.T, params.S), min(params.T, params.S)
    grid = EvalGrid.from_bounds(
        params.mu - 60.0 * wide, params.mu + 60.0 * wide, math.ceil(4800.0 * wide / narrow) + 1
    )
    return build_density(params, grid).log_z


class TestLocalLogZAccuracy:
    """The per-proposal log Z against a fine reference over the support.

    T and S take the truncation bounds and the prior centers; mu and alpha
    take the location box's corners and centers: 81 points. The bound is
    relative, 1e-9 * max(1, |log Z|): where |log Z| is near 1800, float
    rounding alone costs about 5e-9 on any grid. The fixed 4001-point
    sampling grid fails it, by 2.9e-5 relative at (0.1, 8, 48.66, 57.8)
    and 3.3e-6 at (0.1, 0.1, -31.34, -22.2).
    """

    def corners(self):
        (mu_low, mu_high), (alpha_low, alpha_high) = location_box(PRIORS)
        return itertools.product(
            (PRIORS.bound_low, PRIORS.t_center, PRIORS.bound_high),
            (PRIORS.bound_low, PRIORS.s_center, PRIORS.bound_high),
            (mu_low, PRIORS.mu_center, mu_high),
            (alpha_low, PRIORS.alpha_center, alpha_high),
        )

    def test_local_grid_within_bound(self):
        for theta in self.corners():
            params = QrseParams(*theta)
            reference = fine_log_z(params)
            error = abs(local_log_z(params) - reference)
            assert error <= 1e-9 * max(1.0, abs(reference)), theta

    def test_sampling_grid_fails_the_bound(self):
        grid = build_sampling_grid(np.array([]), PRIORS)
        for theta in ((0.1, 8.0, 48.66, 57.8), (0.1, 0.1, -31.34, -22.2)):
            params = QrseParams(*theta)
            reference = fine_log_z(params)
            error = abs(build_density(params, grid).log_z - reference)
            assert error > 1e-6 * max(1.0, abs(reference)), theta


class TestLocalGridCheck:
    def test_startup_check_at_extreme_scale_ratios(self, small_data, monkeypatch):
        # T high and S low give the most points; location cannot change it.
        checked = []
        monkeypatch.setattr(mcmc, "log_posterior", lambda *args: checked.append(args))
        mcmc._check_local_grids(small_data, PRIORS)
        assert len(checked) == 1
        corner, data, priors, grid = checked[0]
        assert corner == QrseParams(T=8.0, S=0.1, mu=8.66, alpha=17.8)
        assert data is small_data and priors is PRIORS
        assert grid.points.size == 12481

    def test_locations_far_from_zero(self):
        # The grid at (T, S) = (1, 1e-3) around mu = 1e4 rounds at ulp(1e4),
        # which once failed the uniform-spacing check with a ValueError.
        mcmc._check_local_grids(np.array([1e4 - 0.5, 1e4, 1e4 + 0.5]), PriorSpec(
            t_center=0.5, s_center=0.5, mu_center=1e4, alpha_center=1e4,
            bound_low=1e-3, bound_high=1.0,
        ))

    @pytest.mark.parametrize("step_scales", [None, (0.1, 0.1, 0.3, 0.5)],
                             ids=["independence", "random-walk"])
    def test_only_public_evaluation_is_the_startup_check(
        self, small_data, lanes, monkeypatch, step_scales
    ):
        # The mode search, the Laplace fit and both kernels evaluate
        # through _Target; the start-up check is the one caller of the
        # public log_posterior, and it checks the data itself.
        calls = []
        real = mcmc.log_posterior

        def log_posterior(params, data, priors, grid):
            calls.append((params, grid.points.size))
            return real(params, data, priors, grid)

        monkeypatch.setattr(mcmc, "log_posterior", log_posterior)
        lanes(1)
        config = ChainConfig(chains=2, draws=50, tune=10, step_scales=step_scales)
        run_chains(small_data, PRIORS, config)
        assert calls == [(QrseParams(T=8.0, S=0.1, mu=8.66, alpha=17.8), 12481)]
        calls.clear()
        run_chains(np.array([]), PRIORS, config)
        assert calls == []

    def test_oversized_grid_fails_before_any_chain(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a chain ran or the target was evaluated")

        monkeypatch.setattr(mcmc, "run_chain", forbidden)
        monkeypatch.setattr(mcmc, "log_posterior", forbidden)
        monkeypatch.setattr(mcmc._Target, "__call__", forbidden)
        priors = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8,
                           bound_low=1e-6)
        data = sample(REF, SampleConfig(n=50, seed=1))
        with pytest.raises(GridTooLarge, match="1248000001-point"):
            run_chains(data, priors, ChainConfig(chains=2, draws=10, tune=0))


class TestChainConfig:
    def test_defaults(self):
        config = ChainConfig()
        assert (config.chains, config.draws, config.tune) == (3, 30000, 4000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chains": 1},
            {"draws": 0},
            {"tune": -1},
            {"seed": -2},
            {"step_scales": (0.1, 0.1, 0.1)},
            {"step_scales": (0.1, -0.1, 0.1, 0.1)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["chains", "draws", "tune", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_counts_must_be_integers(self, name, value):
        # chains = 2.5 once failed later, in numpy, with an untyped TypeError.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            ChainConfig(**{name: value})

    def test_numpy_integers_pass_and_save(self, tmp_path):
        # A numpy-integer config once broke save_trace's JSON metadata.
        data = sample(REF, SampleConfig(n=50, seed=1))
        priors = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8)
        plain = run_chains(data, priors, ChainConfig(chains=2, draws=20, tune=5, seed=1))
        config = ChainConfig(chains=np.int64(2), draws=np.int32(20), tune=np.uint8(5), seed=np.int64(1))
        posterior = run_chains(data, priors, config)
        np.testing.assert_array_equal(posterior.draws, plain.draws)
        save_trace(posterior, tmp_path / "trace.csv")
        np.testing.assert_array_equal(load_trace(tmp_path / "trace.csv").draws, plain.draws)

    def test_initial_length_must_match_chains(self):
        with pytest.raises(ValueError):
            ChainConfig(chains=3, initial=(REF, REF))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_step_scales_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="step_scales"):
            ChainConfig(chains=2, draws=50, tune=0, step_scales=(0.1, 0.1, bad, 0.5))


class TestRunChain:
    def test_deterministic_and_shaped(self):
        result_a = run_chain(
            np.array([]), PRIORS, REF, (0.5, 0.5, 2.0, 2.0), draws=300, tune=100, seed=7
        )
        result_b = run_chain(
            np.array([]), PRIORS, REF, (0.5, 0.5, 2.0, 2.0), draws=300, tune=100, seed=7
        )
        np.testing.assert_array_equal(result_a.draws, result_b.draws)
        assert result_a.draws.shape == (300, 4)
        assert 0.0 < result_a.acceptance_rate < 1.0

    def test_single_coordinate_marginal(self):
        # Freeze T, S, alpha by proposing zero steps there; the mu marginal
        # must then reproduce its normal prior. Batch means give the MCSE.
        result = run_chain(
            np.array([]), PRIORS, REF, (0.0, 0.0, 8.0, 0.0),
            draws=6000, tune=500, seed=3,
        )
        mu_draws = result.draws[:, 2]
        np.testing.assert_array_equal(result.draws[:, 0], np.full(6000, REF.T))
        batches = mu_draws.reshape(30, 200).mean(axis=1)
        mcse = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(mu_draws.mean() - PRIORS.mu_center) <= 4 * mcse
        assert mu_draws.std(ddof=1) == pytest.approx(PRIORS.mu_sd, rel=0.15)

    def test_adaptation_only_during_tune(self):
        # With tune=0 the scales cannot move.
        result = run_chain(
            np.array([]), PRIORS, REF, (0.3, 0.3, 1.0, 1.0), draws=250, tune=0, seed=1
        )
        assert result.step_scales == (0.3, 0.3, 1.0, 1.0)

    def test_tuning_raises_tiny_scales(self):
        # A hopelessly small scale accepts nearly everything, so the tuner
        # must grow it by 1.1 per hundred-step window.
        result = run_chain(
            np.array([]), PRIORS, REF, (1e-6, 1e-6, 1e-6, 1e-6),
            draws=200, tune=1000, seed=2,
        )
        assert all(s > 1e-6 for s in result.step_scales)

    def test_stuck_chain(self):
        with pytest.raises(StuckChain):
            run_chain(
                np.array([]), PRIORS, REF, (1e7, 1e7, 1e7, 1e7),
                draws=400, tune=0, seed=0,
            )

    def test_start_outside_support_rejected(self):
        start = QrseParams(T=8.5, S=2.0, mu=0.0, alpha=0.0)  # T above bound
        with pytest.raises(ValueError):
            run_chain(np.array([]), PRIORS, start, (0.5,) * 4, 10, 0, 0)

    def test_correlated_walk_recovers_the_correlation(self, monkeypatch):
        # run_chains never passes a correlation to the walk, so only a
        # direct call reaches it. With the log posterior replaced by a
        # Gaussian whose mu and alpha correlate at 0.8, the walk must
        # recover it, and its own jumps must follow that correlation
        # (independent coordinates give accepted jumps about 0.4).
        center = REF.as_array()
        sds = np.array([0.1, 0.1, 1.0, 1.0])
        correlation = np.eye(4)
        correlation[2, 3] = correlation[3, 2] = 0.8
        precision = np.linalg.inv(correlation * np.outer(sds, sds))

        def log_targets(self, points):
            shift = points - center
            return -0.5 * np.sum((shift @ precision) * shift, axis=1)

        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        result = run_chain(np.array([]), PRIORS, REF, tuple(1.2 * sds), draws=20_000,
                           tune=1000, seed=0, proposal_cholesky=np.linalg.cholesky(correlation))
        draws = result.draws
        assert np.corrcoef(draws[:, 2], draws[:, 3])[0, 1] == pytest.approx(0.8, abs=0.03)
        np.testing.assert_allclose(draws.std(axis=0), sds, rtol=0.1)
        jumps = np.diff(draws, axis=0)
        jumps = jumps[np.any(jumps != 0.0, axis=1)]
        assert np.corrcoef(jumps[:, 2], jumps[:, 3])[0, 1] > 0.7


@pytest.fixture(scope="module")
def small_data():
    return sample(REF, SampleConfig(n=400, seed=6))


@pytest.fixture(scope="module")
def small_posterior(small_data):
    config = ChainConfig(chains=3, draws=100, tune=150, seed=0)
    return run_chains(small_data, PRIORS, config)


class TestRunChains:
    def test_shape_and_rates(self, small_posterior):
        assert small_posterior.draws.shape == (3, 100, 4)
        assert len(small_posterior.acceptance_rates) == 3
        assert all(0.0 < r < 1.0 for r in small_posterior.acceptance_rates)

    def test_chains_explore_differently(self, small_posterior):
        assert not np.array_equal(
            small_posterior.draws[0], small_posterior.draws[1]
        )

    def test_deterministic(self, small_data, small_posterior):
        config = ChainConfig(chains=3, draws=100, tune=150, seed=0)
        again = run_chains(small_data, PRIORS, config)
        np.testing.assert_array_equal(again.draws, small_posterior.draws)

    def test_seed_changes_draws(self, small_data, small_posterior):
        config = ChainConfig(chains=3, draws=100, tune=150, seed=12)
        other = run_chains(small_data, PRIORS, config)
        assert not np.array_equal(other.draws, small_posterior.draws)

    def test_explicit_initials_respected(self, small_data):
        starts = (REF, QrseParams(T=2.5, S=4.5, mu=9.0, alpha=17.0))
        config = ChainConfig(
            chains=2, draws=50, tune=100, seed=0, initial=starts,
            step_scales=(0.1, 0.1, 0.3, 0.5),
        )
        posterior = run_chains(small_data, PRIORS, config)
        assert posterior.draws.shape == (2, 50, 4)

    def test_stuck_chain_names_index(self, small_data):
        config = ChainConfig(
            chains=2, draws=300, tune=0, seed=0, step_scales=(1e7, 1e7, 1e7, 1e7)
        )
        with pytest.raises(StuckChain, match="chain 0"):
            run_chains(small_data, PRIORS, config)

    @pytest.mark.parametrize("n", [400, 20_000], ids=["row-blocks", "rows-alone"])
    def test_lock_step_walks_keep_their_solo_bits(self, lanes, n):
        # One lane steps the three walks together, one target call a step;
        # chain i run alone is run_chain at seed + i. At 400 points the
        # proposals share the kernel's row block, and at 20,000 each row
        # runs alone. The scales narrow with the posterior, as 1 / sqrt(n).
        data = sample(REF, SampleConfig(n=n, seed=5))
        scales = tuple(s * math.sqrt(400 / n) for s in LANE_CONFIG.step_scales)
        config = dataclasses.replace(LANE_CONFIG, draws=100, tune=200, seed=3,
                                     step_scales=scales)
        lanes(1)
        together = run_chains(data, PRIORS, config)
        assert together.kernel == mcmc.RANDOM_WALK
        for index, start in enumerate(LANE_STARTS):
            alone = run_chain(data, PRIORS, start, config.step_scales, config.draws, config.tune,
                              config.seed + index)
            np.testing.assert_array_equal(together.draws[index], alone.draws)
            assert together.acceptance_rates[index] == alone.acceptance_rate
            assert together.step_scales[index] == alone.step_scales

    def test_pooled(self, small_posterior):
        pooled = small_posterior.pooled(2)
        assert pooled.shape == (300,)
        np.testing.assert_array_equal(
            pooled[:100], small_posterior.draws[0, :, 2]
        )

    def test_draw_validation(self):
        config = ChainConfig(chains=2, draws=2, tune=0, seed=0)
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=np.zeros((2, 2, 4)),  # T = 0 violates truncation
                acceptance_rates=(0.5, 0.5),
                step_scales=((1.0,) * 4,) * 2,
                config=config,
                priors=PRIORS,
            )

    def test_acceptance_rate_one_is_legal(self):
        # Prior-only, with steps so small that every proposal is accepted.
        config = ChainConfig(chains=2, draws=50, tune=0, step_scales=(1e-9,) * 4)
        posterior = run_chains(np.array([]), PRIORS, config)
        assert posterior.acceptance_rates == (1.0, 1.0)

    @pytest.mark.parametrize(
        "rate, legal", [(0.0, True), (1.0, True), (-0.1, False), (1.5, False)]
    )
    def test_acceptance_rate_range(self, rate, legal):
        def build():
            PosteriorDraws(
                draws=np.full((2, 2, 4), 1.0),
                acceptance_rates=(rate, 0.5),
                step_scales=((1.0,) * 4,) * 2,
                config=ChainConfig(chains=2, draws=2, tune=0, seed=0),
                priors=PRIORS,
            )

        if legal:
            build()
        else:
            with pytest.raises(ValueError, match="acceptance"):
                build()


class TestKernelChoice:
    """The independence kernel runs only where the Laplace fit can shape it;
    every other case keeps the random walk, and the draws record which."""

    @pytest.fixture(autouse=True)
    def one_lane(self, lanes):
        lanes(1)  # every sweep and walk is then seen here

    def kernel_seen(self, data, priors, config, tmp_path, monkeypatch):
        # One entry per chain: True for an independence sweep (a run_chain
        # call with proposals), False for each start of a random walk.
        calls = []
        real_chain, real_walk = mcmc.run_chain, mcmc._random_walk

        def run_chain(*args, **kwargs):
            calls.append("proposals" in kwargs)
            return real_chain(*args, **kwargs)

        def random_walk(target, states, *rest):
            calls.extend(False for _ in states)
            return real_walk(target, states, *rest)

        monkeypatch.setattr(mcmc, "run_chain", run_chain)
        monkeypatch.setattr(mcmc, "_random_walk", random_walk)
        posterior = run_chains(data, priors, config)
        assert calls == [posterior.kernel == mcmc.INDEPENDENCE] * config.chains
        save_trace(posterior, tmp_path / "trace.csv")
        assert load_trace(tmp_path / "trace.csv").kernel == posterior.kernel
        return posterior.kernel

    def test_data_and_laplace_fit_give_independence(self, small_data, tmp_path, monkeypatch):
        config = ChainConfig(chains=2, draws=50, tune=10)
        assert self.kernel_seen(small_data, PRIORS, config, tmp_path, monkeypatch) == (
            "independence-t5"
        )

    def test_empty_data_gives_independence(self, tmp_path, monkeypatch):
        config = ChainConfig(chains=2, draws=50, tune=10)
        assert self.kernel_seen(np.array([]), PRIORS, config, tmp_path, monkeypatch) == (
            "independence-t5"
        )

    def test_empty_data_with_mode_on_the_bound_gives_random_walk(self, tmp_path, monkeypatch):
        # The prior alone, with T's centre below the support: the mode sits
        # on T's lower bound, where the Laplace fit falls back.
        priors = PriorSpec(t_center=-3.0, s_center=4.9, mu_center=8.66, alpha_center=17.8,
                           t_sd=0.5)
        config = ChainConfig(chains=2, draws=50, tune=10)
        assert self.kernel_seen(np.array([]), priors, config, tmp_path, monkeypatch) == (
            "random-walk"
        )

    def test_explicit_scales_give_random_walk(self, small_data, tmp_path, monkeypatch):
        config = ChainConfig(chains=2, draws=50, tune=10, step_scales=(0.1, 0.1, 0.3, 0.5))
        assert self.kernel_seen(small_data, PRIORS, config, tmp_path, monkeypatch) == (
            "random-walk"
        )

    def test_boundary_mode_gives_random_walk(self, small_data, tmp_path, monkeypatch):
        # A narrow T prior centred below the support puts the mode on T's
        # lower bound, where the Laplace fit falls back to per-coordinate
        # scales. (Centred at -3 the data pull the mode inside, to T = 0.78.)
        priors = PriorSpec(t_center=-5.0, s_center=4.9, mu_center=8.66, alpha_center=17.8,
                           t_sd=0.5)
        target = mcmc._Target(small_data, priors)
        mode, hessian, bounded = mcmc._posterior_mode(target)
        assert mode[0] == pytest.approx(priors.bound_low, abs=1e-9)
        assert mcmc._laplace_proposal(hessian, bounded, priors)[1] is None
        config = ChainConfig(chains=2, draws=50, tune=10)
        assert self.kernel_seen(small_data, priors, config, tmp_path, monkeypatch) == (
            "random-walk"
        )


class TestIndependenceKernel:
    FACTOR = np.array([
        [0.5, 0.0, 0.0, 0.0],
        [0.1, 0.4, 0.0, 0.0],
        [0.3, -0.2, 2.0, 0.0],
        [0.0, 0.5, 1.5, 1.0],
    ])

    def test_t_log_density_matches_scipy(self):
        center = REF.as_array()
        points = mcmc._t_proposals(np.random.default_rng(0), center, self.FACTOR, 50)
        expected = stats.multivariate_t.logpdf(
            points, loc=center, shape=self.FACTOR @ self.FACTOR.T, df=mcmc.PROPOSAL_DOF
        )
        got = mcmc._t_log_density(points, center, self.FACTOR)
        # Equal up to the normalising constant the sampler leaves out.
        np.testing.assert_allclose(got - expected, (got - expected)[0], rtol=0, atol=1e-10)

    def test_t_proposals_match_their_scale_matrix(self):
        draws = mcmc._t_proposals(
            np.random.default_rng(1), np.zeros(4), self.FACTOR, 200_000
        )
        # Covariance of a t is dof / (dof - 2) times its scale matrix.
        dof = mcmc.PROPOSAL_DOF
        expected = dof / (dof - 2.0) * self.FACTOR @ self.FACTOR.T
        np.testing.assert_allclose(np.cov(draws.T), expected, atol=0.05 * expected.max())

    def test_equal_weights_accept_every_proposal(self):
        points = np.random.default_rng(2).uniform(1.0, 2.0, (31, 4))
        result = run_chain(np.array([]), PRIORS, QrseParams.from_array(points[0]),
                           (1.0,) * 4, draws=20, tune=10, seed=0,
                           proposals=(points, np.zeros(31)))
        assert result.acceptance_rate == 1.0
        np.testing.assert_array_equal(result.draws, points[11:])
        assert result.step_scales == (1.0,) * 4

    def test_stuck_sweep(self):
        points = np.ones((11, 4))
        weights = np.full(11, -50.0)
        weights[0] = 0.0
        with pytest.raises(StuckChain, match="0.0000"):
            run_chain(np.array([]), PRIORS, QrseParams(1.0, 1.0, 1.0, 1.0), (1.0,) * 4,
                      draws=10, tune=0, seed=0, proposals=(points, weights))

    def test_start_outside_support_rejected(self):
        weights = np.zeros(11)
        weights[0] = -math.inf
        with pytest.raises(ValueError, match="initial point"):
            run_chain(np.array([]), PRIORS, REF, (1.0,) * 4, draws=10, tune=0, seed=0,
                      proposals=(np.ones((11, 4)), weights))

    def test_gaussian_posterior_moments(self, small_data, monkeypatch):
        # With the log posterior replaced by a correlated Gaussian in
        # _Target's call, the one target of the mode search and the
        # proposals' rows, and in its derivatives, which give the mode
        # search and the Laplace fit their derivatives, run_chains (mode, Laplace
        # fit, t proposals, weights, sweep) must recover its mean and
        # covariance.
        # Weighting by the target alone, without the proposal density,
        # shrinks every variance to about 0.44 of truth.
        center = REF.as_array()
        covariance = 0.01 * self.FACTOR @ self.FACTOR.T
        precision = np.linalg.inv(covariance)

        def log_targets(self, points):
            # As the real one: -inf outside the support.
            shift = points - center
            scales = points[:, :2]
            inside = np.all((PRIORS.bound_low <= scales) & (scales <= PRIORS.bound_high), axis=1)
            return np.where(inside, -0.5 * np.sum((shift @ precision) * shift, axis=1), -math.inf)

        def log_target_derivatives(self, row):  # negated, as the search minimizes
            return precision @ (row - center), precision

        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        monkeypatch.setattr(mcmc._Target, "derivatives", log_target_derivatives)
        config = ChainConfig(chains=4, draws=10_000, tune=500, seed=5)
        posterior = run_chains(small_data, PRIORS, config)
        assert posterior.kernel == "independence-t5"
        pooled = posterior.draws.reshape(-1, 4)
        # Batch means over 500-draw batches give each mean's MCSE.
        batches = posterior.draws.reshape(4, 20, 500, 4).mean(axis=2).reshape(-1, 4)
        mcse = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
        assert np.all(np.abs(pooled.mean(axis=0) - center) <= 4.0 * mcse)
        np.testing.assert_allclose(np.diag(np.cov(pooled.T)), np.diag(covariance), rtol=0.1)
        np.testing.assert_allclose(np.cov(pooled.T), covariance, atol=0.05 * covariance.max())


# Explicit starts and scales skip the mode search, and let a patched
# _random_walk tell the chains apart by their start.
LANE_STARTS = tuple(
    QrseParams(T=2.0 + 0.1 * i, S=4.9, mu=8.66, alpha=17.8) for i in range(3)
)
LANE_CONFIG = ChainConfig(
    chains=3, draws=50, tune=0, seed=0, initial=LANE_STARTS,
    step_scales=(0.1, 0.1, 0.3, 0.5),
)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test if the block outlasts ``seconds``.

    pytest's Failed is a BaseException, so no handler in the code under test
    (an OSError handler would catch TimeoutError) can swallow it.
    """
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def lanes(monkeypatch):
    """Set the lane count run_chains uses, whatever the CPU count."""
    def set_lanes(count: int) -> None:
        monkeypatch.setattr(mcmc, "_lane_count", lambda chains: count)

    return set_lanes


@pytest.fixture
def fork_starts(monkeypatch):
    """Every lane process started, in order."""
    context = multiprocessing.get_context("fork")
    started = []

    class Recorded(context.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(context, "Process", Recorded)
    return started


def fail_chains(monkeypatch, failing: set[int], fail) -> None:
    """Make each random walk call ``fail(run)`` on the (draws, post-tune
    accepts, scales) of each of its chains that starts at LANE_STARTS[i]
    for i in ``failing``, in the lane that runs it. ``fail`` returns the
    run to hand back in its place, or raises in that lane."""
    real = mcmc._random_walk
    starts = [LANE_STARTS[i].as_array() for i in failing]

    def random_walk(target, states, *rest):
        runs = real(target, states, *rest)
        return [
            fail(run) if any(np.array_equal(state, start) for start in starts) else run
            for state, run in zip(states, runs)
        ]

    monkeypatch.setattr(mcmc, "_random_walk", random_walk)


def stick(run):
    """A run with no post-tune accept: its chain is stuck."""
    draws, _, scales = run
    return draws, 0, scales


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="lanes are forked processes",
)
class TestLanes:
    @staticmethod
    def assert_lane_invariant(data, config, lanes, fork_starts, lane_counts, kernel):
        lanes(1)
        serial = run_chains(data, PRIORS, config)
        assert fork_starts == []
        assert serial.kernel == kernel
        for count in lane_counts:
            lanes(count)
            laned = run_chains(data, PRIORS, config)
            assert len(fork_starts) == count - 1
            fork_starts.clear()
            np.testing.assert_array_equal(laned.draws, serial.draws)
            np.testing.assert_array_equal(laned.acceptance_rates, serial.acceptance_rates)
            np.testing.assert_array_equal(laned.step_scales, serial.step_scales)
            assert laned.kernel == kernel

    # The independence kernel deals target evaluations, so four lanes for
    # three chains all get work.
    @pytest.mark.parametrize("chains, lane_counts", [(3, (2, 3, 4)), (5, (2,))])
    def test_outputs_do_not_depend_on_lanes(
        self, small_data, lanes, fork_starts, chains, lane_counts
    ):
        config = ChainConfig(chains=chains, draws=100, tune=150, seed=0)
        self.assert_lane_invariant(
            small_data, config, lanes, fork_starts, lane_counts, mcmc.INDEPENDENCE
        )

    def test_rows_one_at_a_time_do_not_depend_on_lanes(self, lanes, fork_starts):
        # 20,000 points exceed the kernel's block, so every target row runs
        # alone, its sides split at its own mu, in whichever lane has it.
        data = sample(REF, SampleConfig(n=20_000, seed=5))
        config = ChainConfig(chains=3, draws=40, tune=20, seed=0)
        self.assert_lane_invariant(data, config, lanes, fork_starts, (2,), mcmc.INDEPENDENCE)

    def test_independence_sweeps_run_here(self, small_data, lanes, monkeypatch):
        # Lane 0 evaluates its slice through _Target, and every chain's
        # sweep is one run_chain call in this process, so both can be traced.
        parent = os.getpid()
        seen = {"sweeps": 0, "targets": 0}
        real_chain, real_targets = mcmc.run_chain, mcmc._Target.__call__

        def run_chain(*args, **kwargs):
            assert os.getpid() == parent and "proposals" in kwargs
            seen["sweeps"] += 1
            return real_chain(*args, **kwargs)

        def log_targets(self, points):
            seen["targets"] += len(points) if os.getpid() == parent else 0
            return real_targets(self, points)

        monkeypatch.setattr(mcmc, "run_chain", run_chain)
        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        config = ChainConfig(chains=3, draws=100, tune=50)
        lanes(1)
        run_chains(small_data, PRIORS, config)
        serial = dict(seen)
        lanes(2)
        seen.update(sweeps=0, targets=0)
        run_chains(small_data, PRIORS, config)
        assert serial["sweeps"] == seen["sweeps"] == 3
        # Lane 1 took the last 227 of the 453 evaluations.
        assert serial["targets"] - 227 <= seen["targets"] < serial["targets"]

    def test_random_walk_outputs_do_not_depend_on_lanes(self, small_data, lanes, fork_starts):
        config = ChainConfig(chains=3, draws=100, tune=150, seed=0,
                             step_scales=(0.1, 0.1, 0.3, 0.5))
        self.assert_lane_invariant(
            small_data, config, lanes, fork_starts, (2, 3, 4), mcmc.RANDOM_WALK
        )

    @pytest.mark.parametrize("config", [LANE_CONFIG, ChainConfig(chains=3, draws=100, tune=50)],
                             ids=["random-walk", "independence"])
    def test_one_target_per_run(self, small_data, lanes, monkeypatch, config):
        # The calling process builds the run's target, and the lanes use the
        # copy their fork inherits.
        parent = os.getpid()
        built = []
        real = mcmc._Target.__init__

        def init(self, *args):
            if os.getpid() != parent:
                raise AssertionError("a lane built a target")
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(mcmc._Target, "__init__", init)
        lanes(2)
        with deadline(60):
            run_chains(small_data, PRIORS, config)
        assert len(built) == 1

    def test_one_lane_starts_no_process(self, small_data, lanes, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a lane process was made")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", forbidden)
        lanes(1)
        assert run_chains(small_data, PRIORS, LANE_CONFIG).draws.shape == (3, 50, 4)
        lanes(2)
        with pytest.raises(AssertionError, match="lane process"):
            run_chains(small_data, PRIORS, LANE_CONFIG)

    @pytest.mark.parametrize(
        "failing, named", [({1}, 1), ({0, 1}, 0), ({1, 2}, 1), ({2}, 2), ({0, 2}, 0)]
    )
    def test_lowest_stuck_chain_is_raised(
        self, small_data, lanes, monkeypatch, failing, named
    ):
        # With 2 lanes, chain 0 runs here and chains 1 and 2 in the child.
        fail_chains(monkeypatch, failing, stick)
        lanes(2)
        with deadline(60), pytest.raises(StuckChain) as caught:
            run_chains(small_data, PRIORS, LANE_CONFIG)
        assert str(caught.value) == f"chain {named}: post-tune acceptance 0.0000 below 0.01"
        assert multiprocessing.active_children() == []

    def test_lane_that_dies_raises(self, small_data, lanes, monkeypatch):
        parent = os.getpid()

        def die(run):
            if os.getpid() == parent:
                raise AssertionError("chain 1 ran in the calling process")
            os._exit(1)

        fail_chains(monkeypatch, {1}, die)
        lanes(2)
        with deadline(60), pytest.raises(QrseError) as caught:
            run_chains(small_data, PRIORS, LANE_CONFIG)
        assert str(caught.value) == (
            "sampler lane 1 (chains 1-2) exited with status 1 before returning its results"
        )
        assert multiprocessing.active_children() == []

    def test_evaluation_lane_that_dies_raises(self, small_data, lanes, monkeypatch):
        # Each chain has 1 + 50 + 100 target evaluations: 453 in all, 226
        # in lane 0 and 227 in lane 1.
        parent = os.getpid()
        real = mcmc._Target.__call__

        def log_targets(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        lanes(2)
        with deadline(60), pytest.raises(QrseError) as caught:
            run_chains(small_data, PRIORS, ChainConfig(chains=3, draws=100, tune=50))
        assert str(caught.value) == (
            "sampler lane 1 (target evaluations 226-452) exited with status 1 "
            "before returning its results"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "config, failing",
        [(LANE_CONFIG, {1}), (ChainConfig(chains=3, draws=100, tune=50), {1}),
         (LANE_CONFIG, {0, 1}), (ChainConfig(chains=3, draws=100, tune=50), {0, 1})],
        ids=["random-walk", "independence", "random-walk-both-lanes", "independence-both-lanes"],
    )
    def test_error_in_other_lane_is_raised(self, small_data, lanes, monkeypatch, config, failing):
        # Lane 1 holds chains 1 and 2, whose random walks call _Target
        # once per step, or the last 227 target evaluations, one
        # _Target call. The target fails only once the work is dealt, in
        # the lanes named by ``failing``; when both fail, lane 0's error
        # is the one raised.
        parent = os.getpid()
        dealing = []
        real_deal, real_target = mcmc._deal, mcmc._Target.__call__

        def deal(*args):
            dealing.append(True)  # a forked lane inherits the mark
            try:
                return real_deal(*args)
            finally:
                dealing.pop()

        def log_targets(self, points):
            lane = 0 if os.getpid() == parent else 1
            if dealing and lane in failing:
                raise ValueError(f"bad point in lane {lane}")
            return real_target(self, points)

        monkeypatch.setattr(mcmc, "_deal", deal)
        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        lanes(2)
        with deadline(60), pytest.raises(ValueError) as caught:
            run_chains(small_data, PRIORS, config)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"bad point in lane {min(failing)}"
        assert multiprocessing.active_children() == []

    def test_each_lane_runs_on_its_own_cpu(self, lanes):
        cpus = sorted(os.sched_getaffinity(0))
        lanes(2)
        affinities = mcmc._deal(
            lambda jobs: [os.sched_getaffinity(0) for _ in jobs], range(2), "jobs"
        )
        assert affinities == [[{cpus[0]}], [{cpus[1 % len(cpus)]}]]
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_lanes_run_unpinned_where_affinity_is_refused(self, small_data, lanes, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("not allowed")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        lanes(2)
        draws = run_chains(small_data, PRIORS, LANE_CONFIG).draws
        monkeypatch.undo()
        lanes(1)
        np.testing.assert_array_equal(draws, run_chains(small_data, PRIORS, LANE_CONFIG).draws)

    @pytest.mark.parametrize("failing", [set(), {0}, {1}], ids=["none", "lane-0", "lane-1"])
    def test_caller_affinity_is_restored(self, small_data, lanes, monkeypatch, failing):
        # Chain 0 runs in lane 0, chains 1 and 2 in lane 1, and the failing
        # lane's walk raises there, so the failure passes through _deal.
        def fail(run):
            raise ValueError("walk failed in its lane")

        before = os.sched_getaffinity(0)
        parent = os.getpid()
        set_here = []
        real = os.sched_setaffinity

        def record(pid, cpus):
            if os.getpid() == parent:
                set_here.append(set(cpus))
            real(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", record)
        fail_chains(monkeypatch, failing, fail)
        lanes(2)
        with deadline(60), contextlib.ExitStack() as stack:
            if failing:
                stack.enter_context(pytest.raises(ValueError, match="walk failed in its lane"))
            run_chains(small_data, PRIORS, LANE_CONFIG)
        assert os.sched_getaffinity(0) == before
        assert set_here == [{min(before)}, before]

    @pytest.mark.parametrize("failing, named", [({1, 2}, 1), ({0, 2}, 0), ({2}, 2)])
    @pytest.mark.parametrize("lane_count", [1, 2])
    def test_lowest_stuck_independence_chain_is_raised(
        self, small_data, lanes, monkeypatch, failing, named, lane_count
    ):
        # A start with a huge weight is never left, so its chain sticks.
        # The starts avoid the prior center, where the mode search begins.
        all_starts = tuple(
            QrseParams(T=2.01 + 0.1 * i, S=4.9, mu=8.66, alpha=17.8) for i in range(3)
        )
        real = mcmc._Target.__call__
        starts = np.array([all_starts[i].as_array() for i in failing])

        def log_targets(self, points):
            bonus = 1e6 * np.any(np.all(points[:, None] == starts, axis=2), axis=1)
            return real(self, points) + bonus

        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        lanes(lane_count)
        config = ChainConfig(chains=3, draws=50, tune=0, seed=0, initial=all_starts)
        with deadline(60), pytest.raises(StuckChain) as caught:
            run_chains(small_data, PRIORS, config)
        assert str(caught.value) == f"chain {named}: post-tune acceptance 0.0000 below 0.01"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("lane_count", [1, 2])
    @pytest.mark.parametrize("scales", [None, (0.1, 0.1, 0.3, 0.5)],
                             ids=["independence", "random-walk"])
    def test_bad_start_is_raised_before_a_stuck_chain(
        self, small_data, lanes, monkeypatch, scales, lane_count
    ):
        # Chain 0's start carries a huge bonus, so neither kernel ever
        # leaves it; chain 1 starts outside the location box. No chain may
        # step before every start is checked.
        stuck = QrseParams(T=2.01, S=4.9, mu=8.66, alpha=17.8)
        starts = (stuck, dataclasses.replace(REF, alpha=60.0), LANE_STARTS[2])
        real = mcmc._Target.__call__

        def log_targets(self, points):
            return real(self, points) + 1e6 * np.all(points == stuck.as_array(), axis=1)

        monkeypatch.setattr(mcmc._Target, "__call__", log_targets)
        lanes(lane_count)
        config = ChainConfig(chains=3, draws=50, tune=0, seed=0, initial=starts,
                             step_scales=scales)
        with deadline(60), pytest.raises(
            BadStart, match=r"^chain 1: .*alpha=60\.0 outside the location box"
        ):
            run_chains(small_data, PRIORS, config)
        assert multiprocessing.active_children() == []


def with_value(data, value):
    """A copy of ``data`` with its eighth point set to ``value``."""
    data = data.copy()
    data[7] = value
    return data


# Observations that break the one rule for them, a 1-d array of finite
# numbers. The shapes once ended in an IndexError, a TypeError or numpy's
# AxisError.
BAD_DATA = {
    "nan": lambda data: with_value(data, math.nan),
    "inf": lambda data: with_value(data, math.inf),
    "0-d": lambda data: np.asarray(data[0]),
    "2-d": lambda data: data.reshape(20, -1),
    "column": lambda data: data[:, None],
}
BAD_DATA_MESSAGE = "observations must be a 1-d array of finite numbers"


class TestDataChecks:
    @pytest.mark.parametrize("edit", BAD_DATA.values(), ids=BAD_DATA)
    def test_run_chains_rejects_before_any_evaluation(self, small_data, monkeypatch, edit):
        def forbidden(*args, **kwargs):
            raise AssertionError("target evaluated")

        monkeypatch.setattr(mcmc, "log_posterior", forbidden)
        monkeypatch.setattr(mcmc._Target, "__call__", forbidden)
        data = edit(small_data)
        with pytest.raises(ValueError, match=BAD_DATA_MESSAGE):
            run_chains(data, PRIORS, ChainConfig(chains=2, draws=10, tune=0))
        with pytest.raises(ValueError, match=BAD_DATA_MESSAGE):
            run_chain(data, PRIORS, REF, (0.1,) * 4, 10, 0, 0)

    def test_public_functions_keep_their_check(self, small_data):
        for edit in BAD_DATA.values():
            data = edit(small_data)
            for call in (lambda: log_likelihood(data, REF),
                         lambda: log_posterior(REF, data, PRIORS),
                         lambda: build_sampling_grid(data, PRIORS)):
                with pytest.raises(ValueError, match=BAD_DATA_MESSAGE):
                    call()


def with_cell(lines, column, value):
    """A trace's lines with ``column`` of its fourth draw set to ``value``."""
    cells = lines[5].split(",")
    cells[lines[1].split(",").index(column)] = value
    return lines[:5] + [",".join(cells)] + lines[6:]


def with_step_scale(lines, value):
    """A trace's lines with chain 1's mu step scale set to ``value``."""
    metadata = json.loads(lines[0][2:])
    metadata["step_scales"][1][2] = value
    return ["# " + json.dumps(metadata)] + lines[1:]


def with_metadata(lines, key, value):
    """A trace's lines with the metadata's ``key`` set to ``value``."""
    metadata = json.loads(lines[0][2:])
    metadata[key] = value
    return ["# " + json.dumps(metadata)] + lines[1:]


class TestTrace:
    def test_round_trip_bit_exact(self, small_posterior, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(small_posterior, path)
        restored = load_trace(path)
        np.testing.assert_array_equal(restored.draws, small_posterior.draws)
        assert restored.acceptance_rates == small_posterior.acceptance_rates
        assert restored.step_scales == small_posterior.step_scales
        assert restored.priors == small_posterior.priors
        assert restored.config.seed == small_posterior.config.seed
        assert restored.rng_algorithm == small_posterior.rng_algorithm
        assert restored.kernel == small_posterior.kernel == "independence-t5"

    def test_kernel_metadata(self, small_posterior, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(small_posterior, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0][2:])["kernel"] == "independence-t5"

        # Every trace written before the kernel was recorded ran the walk.
        metadata = json.loads(lines[0][2:])
        del metadata["kernel"]
        path.write_text("\n".join(["# " + json.dumps(metadata)] + lines[1:]) + "\n")
        assert load_trace(path).kernel == "random-walk"

        metadata["kernel"] = "gibbs"
        path.write_text("\n".join(["# " + json.dumps(metadata)] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match="kernel must be one of") as caught:
            load_trace(path)
        assert str(path) in str(caught.value)

    def test_kernel_must_be_known(self, small_posterior):
        with pytest.raises(ValueError, match="kernel"):
            PosteriorDraws(
                draws=small_posterior.draws,
                acceptance_rates=small_posterior.acceptance_rates,
                step_scales=small_posterior.step_scales,
                config=small_posterior.config,
                priors=PRIORS,
                kernel="independence",
            )

    def test_generator_must_be_philox(self, small_posterior, tmp_path):
        # A trace naming another generator once loaded without a word.
        with pytest.raises(ValueError, match="^rng_algorithm must be 'numpy.random.Philox4x32-10'"):
            dataclasses.replace(small_posterior, rng_algorithm="numpy.random.MT19937")

        path = self.write_trace(
            small_posterior, tmp_path, lambda lines: with_metadata(lines, "rng", "numpy.random.MT19937")
        )
        with pytest.raises(ParseError) as caught:
            load_trace(path)
        assert str(caught.value) == (
            f"{path}: not a valid trace file: rng_algorithm must be "
            "'numpy.random.Philox4x32-10', got 'numpy.random.MT19937'"
        )

    def test_format_header(self, small_posterior, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(small_posterior, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert '"format": "qrse-trace-v1"' in lines[0]
        assert lines[1] == "chain,draw,T,S,mu,alpha"
        assert len(lines) == 2 + 3 * 100

    def test_rejects_missing_metadata(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chain,draw,T,S,mu,alpha\n0,0,1,1,1,1\n")
        with pytest.raises(ParseError, match="bad.csv"):
            load_trace(path)

    def test_missing_key_is_named(self, small_posterior, tmp_path):
        def edit(lines):
            metadata = json.loads(lines[0][2:])
            del metadata["chains"]
            return ["# " + json.dumps(metadata)] + lines[1:]

        path = self.write_trace(small_posterior, tmp_path, edit)
        with pytest.raises(ParseError) as caught:
            load_trace(path)
        assert str(caught.value) == f"{path}: not a valid trace file: missing key 'chains'"

    def test_fractional_count_is_rejected(self, small_posterior, tmp_path):
        # 100.5 draws once loaded as 100.
        def edit(lines):
            metadata = json.loads(lines[0][2:])
            metadata["draws"] += 0.5
            return ["# " + json.dumps(metadata)] + lines[1:]

        path = self.write_trace(small_posterior, tmp_path, edit)
        with pytest.raises(ParseError) as caught:
            load_trace(path)
        assert str(caught.value) == (
            f"{path}: not a valid trace file: draws must be an integer, got 100.5"
        )

    def write_trace(self, posterior, tmp_path, edit):
        path = tmp_path / "trace.csv"
        save_trace(posterior, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:-7], "rows"),
            (lambda lines: lines[:2], "rows"),
            (lambda lines: [lines[0].replace("qrse-trace-v1", "qrse-trace-v0")] + lines[1:],
             "format"),
            (lambda lines: [lines[0][:-3]] + lines[1:], "trace file"),
            (lambda lines: [lines[0], "chain,draw,S,T,mu,alpha"] + lines[2:], "header"),
            (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "order"),
            (lambda lines: lines[:2] + [lines[2].replace("0,0,", "0,1,", 1)] + lines[3:],
             "order"),
            (lambda lines: with_cell(lines, "T", "nan"), "draws must be finite"),
            (lambda lines: with_cell(lines, "mu", "inf"), "draws must be finite"),
            # A report once read these and exited 0. The sampler never keeps
            # a draw outside the location box.
            (lambda lines: with_step_scale(lines, math.nan), "finite and nonnegative"),
            (lambda lines: with_step_scale(lines, math.inf), "finite and nonnegative"),
            (lambda lines: with_step_scale(lines, -0.5), "finite and nonnegative"),
            # Strings once read as the numbers they spell.
            (lambda lines: with_step_scale(lines, "0.5"), "step_scales: '0.5' is not a number"),
            (lambda lines: with_metadata(lines, "acceptance_rates", ["0.3"] * 3),
             "acceptance_rates: '0.3' is not a number"),
            (lambda lines: with_metadata(lines, "priors", PRIORS.to_json() | {"t_sd": "2"}),
             "t_sd: '2' is not a number"),
            # A JSON integer past float64's range once raised OverflowError.
            (lambda lines: with_metadata(lines, "acceptance_rates", [10**400] * 3),
             "int too large to convert to float"),
            (lambda lines: with_cell(lines, "mu", repr(PRIORS.mu_center + 40.5)), "location box"),
            (lambda lines: with_cell(lines, "alpha", repr(PRIORS.alpha_center - 40.5)),
             "location box"),
        ],
        ids=["truncated", "no-rows", "format-tag", "bad-json", "header", "swapped", "draw-index",
             "nan-T", "inf-mu", "nan-scale", "inf-scale", "negative-scale", "string-scale",
             "string-rate", "string-prior", "huge-rate", "mu-outside-box", "alpha-outside-box"],
    )
    def test_rejects_malformed_trace(self, small_posterior, tmp_path, edit, message):
        path = self.write_trace(small_posterior, tmp_path, edit)
        with pytest.raises(ParseError, match=message) as caught:
            load_trace(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"acceptance_rates": (0.5,)}, "one acceptance rate per chain"),
            ({"step_scales": ((1.0,),) * 3}, "four step scales per chain"),
            ({"step_scales": ((1.0,) * 4,) * 2}, "four step scales per chain"),
            ({"config": ChainConfig(chains=2, draws=5)}, "does not match the config"),
            ({"config": ChainConfig(chains=3, draws=99)}, "does not match the config"),
        ],
        ids=["rates", "scale-width", "scale-rows", "config-chains", "config-draws"],
    )
    def test_metadata_must_match_draws(self, small_posterior, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_posterior, **change)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"acceptance_rates": [0.5]}, "one acceptance rate per chain"),
            ({"step_scales": [[1.0]]}, "four step scales per chain"),
            ({"step_scales": [[1.0]] * 3}, "four step scales per chain"),
            # load_trace shapes the rows by the metadata's counts, so counts
            # that disagree with the rows show as rows out of order.
            ({"chains": 2, "draws": 150}, "order"),
            ({"priors": [1, 2]}, "priors must be a JSON object"),
        ],
        ids=["rates", "scale-rows", "scale-width", "config", "priors-not-an-object"],
    )
    def test_rejects_metadata_that_disagrees_with_draws(
        self, small_posterior, tmp_path, change, message
    ):
        def edit(lines):
            metadata = json.loads(lines[0][2:])
            metadata.update(change)
            return ["# " + json.dumps(metadata)] + lines[1:]

        path = self.write_trace(small_posterior, tmp_path, edit)
        with pytest.raises(ParseError, match=message) as caught:
            load_trace(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("name, value", [("mu_sd", math.nan), ("bound_high", math.inf)])
    def test_rejects_non_finite_priors(self, small_posterior, tmp_path, name, value):
        def edit(lines):
            metadata = json.loads(lines[0][2:])
            metadata["priors"][name] = value
            return ["# " + json.dumps(metadata)] + lines[1:]

        path = self.write_trace(small_posterior, tmp_path, edit)
        with pytest.raises(ParseError, match=rf"\b{name}\b") as caught:
            load_trace(path)
        assert str(path) in str(caught.value)


class TestLocationBox:
    """The target is truncated to the location box."""

    def test_target_rejects_locations_outside_the_box(self):
        target = mcmc._Target(np.array([]), PRIORS)
        reach = mcmc.CORNER_SDS * PRIORS.sds()
        for index in (2, 3):
            for sign in (-1.0, 1.0):
                theta = PRIORS.centers()
                theta[index] += sign * 0.99 * reach[index]
                assert math.isfinite(target(theta[None])[0])
                theta[index] += sign * 0.02 * reach[index]
                assert target(theta[None])[0] == -math.inf

    def test_far_proposals_never_outgrow_the_grid(self):
        # Location steps of 100 prior sds used to land beyond the verified
        # grid corners and raise GridTooNarrow mid-chain.
        data = sample(REF, SampleConfig(n=50, seed=1))
        priors = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8,
                           mu_sd=0.5, alpha_sd=0.5)
        config = ChainConfig(chains=2, draws=200, tune=0, seed=0,
                             step_scales=(0.1, 0.1, 100.0, 100.0))
        try:
            run_chains(data, priors, config)
        except StuckChain:
            pass  # nearly every proposal is rejected; exit 4, not an input error

    @pytest.mark.parametrize("scales", [None, (0.1, 0.1, 0.3, 0.5)])
    def test_explicit_start_outside_the_box_names_alpha(self, scales):
        # Both kernels: the independence kernel's start row and the walk's
        # first target call.
        starts = (REF, dataclasses.replace(REF, alpha=60.0))
        config = ChainConfig(chains=2, draws=20, tune=0, initial=starts, step_scales=scales)
        with pytest.raises(BadStart, match=r"^chain 1: .*alpha=60\.0 outside the location box") as err:
            run_chains(np.array([]), PRIORS, config)
        assert "mu=" not in str(err.value) and "T=" not in str(err.value)

    @pytest.mark.parametrize("scales", [None, (0.1, 0.1, 0.3, 0.5)])
    def test_bad_start_message_names_every_bad_coordinate_and_its_range(self, scales):
        # T below the support, S above it and mu below the box; alpha is
        # inside and goes unnamed.
        bad = QrseParams(T=0.05, S=9.0, mu=-40.0, alpha=17.8)
        message = (
            "initial point has non-finite log posterior: "
            "T=0.05 outside the support [0.1, 8.0], "
            "S=9.0 outside the support [0.1, 8.0], "
            "mu=-40.0 outside the location box [-31.34, 48.66]"
        )
        config = ChainConfig(chains=2, draws=20, tune=0, initial=(REF, bad), step_scales=scales)
        with pytest.raises(BadStart) as err:
            run_chains(np.array([]), PRIORS, config)
        assert str(err.value) == f"chain 1: {message}"
        with pytest.raises(BadStart) as err:
            run_chain(np.array([]), PRIORS, bad, (0.1, 0.1, 0.3, 0.5), 20, 0, 0)
        assert str(err.value) == message

    def test_jittered_starts_are_clipped_into_the_box(self, monkeypatch):
        # A mode on the box's wall: starts jittered past it used to fail.
        wall = PRIORS.centers()
        wall[3] = location_box(PRIORS)[1][1]
        monkeypatch.setattr(mcmc, "_posterior_mode", lambda target: (wall.copy(), None, None))
        config = ChainConfig(chains=4, draws=50, tune=0, step_scales=(0.1, 0.1, 0.3, 0.5))
        posterior = run_chains(np.array([]), PRIORS, config)
        assert posterior.draws[:, :, 3].max() <= wall[3]


# T <= S (157-point grids) and T > S with larger grids of several sizes,
# one of them wider than the kernel's block, interleaved; then rows outside
# the support and outside the location box.
WIDE_PRIORS = dataclasses.replace(PRIORS, bound_low=0.05)
TARGET_ROWS = np.array([
    [2.1, 4.9, 8.66, 17.8],
    [8.0, 0.05, 9.0, 17.0],   # 24,961-point grid
    [3.0, 1.0, 7.0, 18.5],
    [1.9, 5.2, 8.2, 17.1],
    [8.0, 0.1, 10.0, 15.0],   # 12,481 points
    [3.0, 1.0, 9.5, 16.0],
    [0.5, 0.3, 8.0, 18.0],
    [2.2, 4.7, 9.1, 18.3],
    [0.04, 4.9, 8.66, 17.8],  # T below the support
    [2.1, 8.5, 8.66, 17.8],   # S above it
    [2.1, 4.9, 60.0, 17.8],   # mu outside the location box
    [2.1, 4.9, 8.66, -30.0],  # alpha outside it
])


def reference_targets(rows, data, priors) -> np.ndarray:
    """The public log_posterior at each row inside the support and the
    location box, and -inf outside them."""
    (mu_low, mu_high), (alpha_low, alpha_high) = location_box(priors)
    out = []
    for T, S, mu, alpha in rows.tolist():
        if not (mu_low <= mu <= mu_high and alpha_low <= alpha <= alpha_high):
            out.append(-math.inf)
        elif not priors.in_support(T, S):
            with pytest.raises(OutOfSupport):
                log_posterior(QrseParams(T, S, mu, alpha), data, priors)
            out.append(-math.inf)
        else:
            out.append(log_posterior(QrseParams(T, S, mu, alpha), data, priors))
    return np.array(out)


class TestLogTargets:
    """The row evaluator, the sampler's one target, gives the bits of the
    serial target: the public log_posterior, one point at a time."""

    @staticmethod
    def assert_same_bits(data, priors, rows=TARGET_ROWS):
        expected = reference_targets(rows, data, priors)
        got = mcmc._Target(data, priors)(rows)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    # 400 points put 40 rows in a block; 20,000 exceed one block, so each
    # row is evaluated alone in chunks.
    @pytest.mark.parametrize("n", [400, 20_000])
    def test_matches_serial_target(self, n):
        data = sample(REF, SampleConfig(n=n, seed=3))
        self.assert_same_bits(data, WIDE_PRIORS)
        self.assert_same_bits(data, WIDE_PRIORS, rows=np.tile(TARGET_ROWS[[0, 2, 3]], (50, 1)))

    # The mode search and the random walk evaluate one row per call.
    @pytest.mark.parametrize("n", [2_000, 20_000, 100_000])
    def test_one_row_matches_log_posterior_at_random_points(self, n):
        data = sample(REF, SampleConfig(n=n, seed=8))
        rng = np.random.default_rng(n)
        low = np.array([0.0, 0.0, -35.0, -25.0])
        high = np.array([8.5, 8.5, 55.0, 60.0])
        rows = rng.uniform(low, high, (300, 4))  # some outside the support or the box
        expected = reference_targets(rows, data, PRIORS)
        assert 0 < np.sum(expected == -math.inf) < 100
        target = mcmc._Target(data, PRIORS)
        got = np.concatenate([target(row[None]) for row in rows])
        assert got.tobytes() == expected.tobytes()

    @staticmethod
    def assert_rows_independent(data):
        # Each row splits the data at its own mu: among the data, at a data
        # point, at the largest one inside the location box (mu <= 48.66)
        # and below the smallest.
        low, high = float(np.min(data)), float(np.max(data[data <= 48.66]))
        rows = np.concatenate([
            np.tile(TARGET_ROWS, (3, 1)),
            np.random.default_rng(9).uniform([0.2, 0.2, 0.0, 10.0], [6.0, 6.0, 15.0, 25.0],
                                             (40, 4)),
            [[2.1, 4.9, data[7], 17.8], [2.0, 5.0, high, 17.0], [2.2, 4.8, low - 0.5, 18.0]],
        ])
        target = mcmc._Target(data, WIDE_PRIORS)
        whole = target(rows)
        order = np.random.default_rng(10).permutation(len(rows))
        permuted = target(rows[order])
        assert permuted.tobytes() == whole[order].tobytes()
        for part in (slice(0, 1), slice(1, 2), slice(3, 17), slice(30, None), slice(5, 6),
                     slice(-3, None)):
            got = target(rows[part])
            assert got.tobytes() == whole[part].tobytes(), part

    def test_rows_do_not_depend_on_their_neighbours(self, small_data):
        # 400 points put 40 rows in a block.
        self.assert_rows_independent(small_data)

    def test_rows_do_not_depend_on_their_neighbours_one_at_a_time(self):
        # 20,000 points exceed a block, so each row runs alone.
        self.assert_rows_independent(sample(REF, SampleConfig(n=20_000, seed=6)))

    def test_prior_only_and_nothing_inside(self, small_data):
        self.assert_same_bits(np.array([]), WIDE_PRIORS)
        outside = TARGET_ROWS[8:]
        self.assert_same_bits(small_data, WIDE_PRIORS, rows=outside)
        assert np.all(mcmc._Target(small_data, WIDE_PRIORS)(outside) == -math.inf)
        assert mcmc._Target(small_data, PRIORS)(np.empty((0, 4))).shape == (0,)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="lanes are forked processes",
    )
    def test_deal_calls_once_per_lane_on_contiguous_slices(self, lanes):
        lanes(3)
        assert mcmc._deal(lambda jobs: [tuple(jobs)], range(7), "jobs") == [
            [(0, 1)], [(2, 3)], [(4, 5, 6)]
        ]
        assert multiprocessing.active_children() == []


class TestModeAndScales:
    def test_prior_only_mode_is_prior_center(self):
        target = mcmc._Target(np.array([]), PRIORS)
        mode, _, _ = mcmc._posterior_mode(target)
        np.testing.assert_allclose(mode, PRIORS.centers(), atol=1e-3)

    def test_prior_only_scales_match_prior_sd(self):
        # At an interior normal mode the curvature is -1/sd^2, so the
        # 2.4/sqrt(4) rule gives 1.2 sd per coordinate, and independent
        # coordinates leave the proposal correlation at identity.
        hessian = -mcmc._Target(np.array([]), PRIORS).derivatives(PRIORS.centers())[1]
        scales, cholesky = mcmc._laplace_proposal(hessian, np.zeros(4, bool), PRIORS)
        np.testing.assert_allclose(scales, 1.2 * PRIORS.sds(), rtol=0.05)
        np.testing.assert_allclose(cholesky, np.eye(4), atol=1e-3)

    def test_boundary_mode_falls_back_without_warning(self):
        # With T on its lower bound the fit falls back, whatever the Hessian
        # there, and T takes a tenth of its prior sd.
        data = sample(REF, SampleConfig(n=200, seed=2))
        target = mcmc._Target(data, PRIORS)
        mode = PRIORS.centers()
        mode[0] = PRIORS.bound_low
        hessian = -target.derivatives(mode)[1]
        bounded = np.array([True, False, False, False])
        scales, cholesky = mcmc._laplace_proposal(hessian, bounded, PRIORS)
        assert cholesky is None
        assert np.all(np.isfinite(scales)) and np.all(scales > 0.0)
        assert scales[0] == pytest.approx(0.1 * PRIORS.t_sd)

    def test_correlated_target_recovers_correlation(self):
        # Quadratic log target with corr(mu, alpha) = 0.8 and unit sds:
        # the Laplace proposal should report marginal (not conditional)
        # sds and the matching Cholesky factor.
        correlation = np.eye(4)
        correlation[2, 3] = correlation[3, 2] = 0.8
        precision = np.linalg.inv(correlation)
        scales, cholesky = mcmc._laplace_proposal(-precision, np.zeros(4, bool), PRIORS)
        np.testing.assert_allclose(scales, 1.2 * np.ones(4), rtol=1e-3)
        np.testing.assert_allclose(cholesky[3, 2], 0.8, rtol=1e-3)
        np.testing.assert_allclose(cholesky[3, 3], 0.6, rtol=1e-3)
        np.testing.assert_allclose(cholesky @ cholesky.T, correlation, atol=1e-3)

    def test_saddle_falls_back_to_diagonal(self):
        # A saddle (positive curvature in one coordinate) defeats the
        # Hessian inversion; usable coordinates keep their curvature
        # scales and the bad one falls back to a tenth of the prior sd.
        hessian = np.diag([-1.0, -1.0, -1.0, 1.0])
        scales, cholesky = mcmc._laplace_proposal(hessian, np.zeros(4, bool), PRIORS)
        assert cholesky is None
        np.testing.assert_allclose(scales[:3], 1.2 * np.ones(3), rtol=1e-3)
        assert scales[3] == pytest.approx(0.1 * PRIORS.sds()[3])

    def test_search_converges_below_zero(self):
        # With T = S = 0.2 the log-likelihood is positive, so the value the
        # search minimizes is negative; its stopping rule must still read
        # the value's size, and stop once the value no longer falls. A rule
        # of bare eps took 8 more steps here, none of them lower.
        data = sample(dataclasses.replace(REF, T=0.2, S=0.2), SampleConfig(n=2000, seed=3))
        priors = dataclasses.replace(PRIORS, t_center=0.2, s_center=0.2, bound_low=0.05)
        target = mcmc._Target(data, priors)
        values, value = [], target.value
        target.value = lambda row: values.append(value(row)[0]) or value(row)
        lows, highs = mcmc._bounds(priors)
        search = mapfit._newton(target, priors.centers(), lows, highs)
        assert search.value < 0.0
        assert search.converged and search.iterations < 50
        assert len(values) - 1 - int(np.argmin(values)) <= 1


# A location box that holds mu and alpha anywhere in [-40, 60], and room for
# T and S a step beyond (0.1, 8).
DERIVATIVE_PRIORS = PriorSpec(t_center=2.1, s_center=4.9, mu_center=10.0, alpha_center=10.0,
                              mu_sd=20.0, alpha_sd=20.0, bound_low=0.05, bound_high=8.5)


@pytest.fixture(scope="module")
def derivative_target(small_data):
    return mcmc._Target(small_data, DERIVATIVE_PRIORS)


# The examples put T >> S, S >> T, and mu 30 T below all the data, where
# every point is past saturation, or above it.
LOG_SCALE = st.floats(math.log(0.1), math.log(8.0))
LOCATION = st.floats(-40.0, 60.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_t=LOG_SCALE, log_s=LOG_SCALE, mu=LOCATION, alpha=LOCATION)
@example(log_t=math.log(8.0), log_s=math.log(0.25), mu=8.0, alpha=15.0)
@example(log_t=math.log(0.1), log_s=math.log(8.0), mu=8.0, alpha=15.0)
@example(log_t=math.log(0.5), log_s=math.log(3.0), mu=-40.0, alpha=-30.0)
@example(log_t=math.log(0.3), log_s=math.log(2.0), mu=55.0, alpha=40.0)
def test_log_target_derivatives_match_central_differences(
    derivative_target, small_data, log_t, log_s, mu, alpha
):
    target = derivative_target
    row = np.array([math.exp(log_t), math.exp(log_s), mu, alpha])
    if mu == -40.0:
        assert np.all(np.tanh((small_data - mu) / row[0]) == 1.0)
    gradient, hessian = (-part for part in target.derivatives(row))

    def central(i, h):
        shift = np.zeros(4)
        shift[i] = h * (row[i] if i < 2 else 1.0)
        up, down = row + shift, row - shift
        values = target(np.array([up, down]))
        slopes = [-target.derivatives(point)[0] for point in (up, down)]
        return np.concatenate([[values[0] - values[1]], slopes[0] - slopes[1]]) / (2.0 * shift[i])

    # Central differences at h and h/2 (relative for T and S), Richardson's
    # extrapolation of the two, and their disagreement as the differences'
    # rounding error, as in the fit's derivative test. The local grid moves
    # with mu and T, and the derivatives are its quadrature of the
    # derivatives of log Z, equal to the value's to the quadrature's error.
    h = 1e-3
    coarse, fine = (np.array([central(i, step) for i in range(4)]) for step in (h, h / 2.0))
    extrapolated, spread = (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)
    rtol = 1e-6
    assert np.all(np.abs(gradient - extrapolated[:, 0]) <= rtol * np.max(np.abs(gradient)) + 4.0 * spread[:, 0])
    assert np.all(np.abs(hessian - extrapolated[:, 1:]) <= rtol * np.max(np.abs(hessian)) + 4.0 * spread[:, 1:])


def mode_case(name):
    """(data, priors) of a case the mode search must solve: seed-7 data of
    the benchmark's two workloads and the README run, with priors centred
    at the fit as ``qrse sample`` centres them; the README data with the
    truth as prior centres and T and S bounded at 2; CI's random-walk case;
    and the box-wall data, whose simplex mode lay on the location box's
    wall."""
    n, seed = {"posterior_2k_long": (2000, 7), "acceptance_100k": (100_000, 7)}.get(name, (20_000, 0))
    if name == "walk":
        data = sample(QrseParams(T=5.0, S=5.0, mu=0.0, alpha=0.0), SampleConfig(n=500, seed=1))
        fitted = fit_map(build_histogram(data, "fd"), restarts=0).params
        return data, PriorSpec(-20.0, fitted.S, fitted.mu, fitted.alpha)
    if name == "box_wall":
        data = sample(QrseParams(T=0.59, S=6.412, mu=-1.765, alpha=17.457), SampleConfig(n=1000, seed=60))
        return data, PRIORS
    data = sample(REF, SampleConfig(n=n, seed=7))
    if name == "bound_2":
        return data, dataclasses.replace(PRIORS, bound_high=2.0)
    fitted = fit_map(build_histogram(data, "fd"), seed=seed).params
    return data, PriorSpec(fitted.T, fitted.S, fitted.mu, fitted.alpha)


@pytest.mark.parametrize("name, floor", [
    ("posterior_2k_long", None), ("acceptance_100k", None), ("readme", None), ("walk", None),
    ("bound_2", -64_771.70), ("box_wall", -2921.996),
])
def test_mode_no_worse_than_nelder_mead(name, floor):
    # The oracle is SciPy's Nelder-Mead from the start the sampler's simplex
    # search took: the prior centres, T and S clipped 1e-3 of the support
    # inside it.
    data, priors = mode_case(name)
    target = mcmc._Target(data, priors)
    mode, _, bounded = mcmc._posterior_mode(target)
    inset = 1e-3 * (priors.bound_high - priors.bound_low)
    start = priors.centers()
    start[:2] = np.clip(start[:2], priors.bound_low + inset, priors.bound_high - inset)
    simplex = optimize.minimize(lambda theta: -target(theta[None])[0], start, method="Nelder-Mead",
                                options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000})
    value = target(mode[None])[0]
    assert value >= -simplex.fun - 1e-6
    if floor is not None:
        assert value >= floor
    if name == "box_wall":
        assert not bounded.any()
