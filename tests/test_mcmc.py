import contextlib
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest
from scipy import optimize, special, stats

from qrse import (
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
    build_sampling_grid,
    load_trace,
    log_likelihood,
    log_posterior,
    run_chain,
    run_chains,
    sample,
    save_trace,
)
from qrse import mcmc
from qrse.model import local_log_z
from tests.conftest import REF

PRIORS = PriorSpec(t_center=2.1, s_center=4.9, mu_center=8.66, alpha_center=17.8)


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
        target = mcmc._make_target(data, PRIORS, None)
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
        (mu_low, mu_high), (alpha_low, alpha_high) = mcmc._location_box(PRIORS)
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
        # through _log_targets; the start-up check is the one caller of the
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
        monkeypatch.setattr(mcmc, "_log_targets", forbidden)
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

    def test_initial_length_must_match_chains(self):
        with pytest.raises(ValueError):
            ChainConfig(chains=3, initial=(REF, REF))


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
        lanes(1)  # every run_chain call is then seen here

    def kernel_seen(self, data, priors, config, tmp_path, monkeypatch):
        calls = []
        real = mcmc.run_chain

        def run_chain(*args, **kwargs):
            calls.append("proposals" in kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcmc, "run_chain", run_chain)
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

    def test_empty_data_gives_random_walk(self, tmp_path, monkeypatch):
        config = ChainConfig(chains=2, draws=50, tune=10)
        assert self.kernel_seen(np.array([]), PRIORS, config, tmp_path, monkeypatch) == (
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
        # scales.
        priors = PriorSpec(t_center=-3.0, s_center=4.9, mu_center=8.66, alpha_center=17.8,
                           t_sd=0.5)
        target = mcmc._make_target(small_data, priors, None)
        mode = mcmc._posterior_mode(target, priors)
        assert mode[0] == pytest.approx(priors.bound_low, abs=1e-9)
        assert mcmc._laplace_proposal(target, mode, priors)[1] is None
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
        # _log_targets, the one target of the mode search, the Laplace fit
        # and the proposals' rows, run_chains (mode, Laplace fit, t
        # proposals, weights, sweep) must recover its mean and covariance.
        # Weighting by the target alone, without the proposal density,
        # shrinks every variance to about 0.44 of truth.
        center = REF.as_array()
        covariance = 0.01 * self.FACTOR @ self.FACTOR.T
        precision = np.linalg.inv(covariance)

        def log_targets(points, *args):
            # As the real one: -inf outside the support.
            shift = points - center
            scales = points[:, :2]
            inside = np.all((PRIORS.bound_low <= scales) & (scales <= PRIORS.bound_high), axis=1)
            return np.where(inside, -0.5 * np.sum((shift @ precision) * shift, axis=1), -math.inf)

        monkeypatch.setattr(mcmc, "_log_targets", log_targets)
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
# run_chain tell the chains apart by their start.
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
    """Make run_chain call ``fail()`` for the chains that start at
    LANE_STARTS[i] for i in ``failing``."""
    real = mcmc.run_chain
    starts = [LANE_STARTS[i] for i in failing]

    def run_chain(data, priors, initial, *rest):
        if initial in starts:
            fail()
        return real(data, priors, initial, *rest)

    monkeypatch.setattr(mcmc, "run_chain", run_chain)


def stick():
    raise StuckChain("post-tune acceptance 0.0000 below 0.01")


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

    def test_independence_sweeps_run_here(self, small_data, lanes, monkeypatch):
        # Lane 0 evaluates its slice through _log_targets, and every chain's
        # sweep is one run_chain call in this process, so both can be traced.
        parent = os.getpid()
        seen = {"sweeps": 0, "targets": 0}
        real_chain, real_targets = mcmc.run_chain, mcmc._log_targets

        def run_chain(*args, **kwargs):
            assert os.getpid() == parent and "proposals" in kwargs
            seen["sweeps"] += 1
            return real_chain(*args, **kwargs)

        def log_targets(points, *args):
            seen["targets"] += len(points) if os.getpid() == parent else 0
            return real_targets(points, *args)

        monkeypatch.setattr(mcmc, "run_chain", run_chain)
        monkeypatch.setattr(mcmc, "_log_targets", log_targets)
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

        def die():
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
        real = mcmc._log_targets

        def log_targets(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(mcmc, "_log_targets", log_targets)
        lanes(2)
        with deadline(60), pytest.raises(QrseError) as caught:
            run_chains(small_data, PRIORS, ChainConfig(chains=3, draws=100, tune=50))
        assert str(caught.value) == (
            "sampler lane 1 (target evaluations 226-452) exited with status 1 "
            "before returning its results"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("config", [LANE_CONFIG, ChainConfig(chains=3, draws=100, tune=50)],
                             ids=["random-walk", "independence"])
    def test_error_in_other_lane_is_raised(self, small_data, lanes, monkeypatch, config):
        # Lane 1 holds chains 1 and 2, whose random walks call _log_targets
        # once per step, or the last 227 target evaluations, one
        # _log_targets call.
        parent = os.getpid()

        def in_lane_1(real):
            def fail(*args, **kwargs):
                if os.getpid() != parent:
                    raise ValueError("bad point in lane 1")
                return real(*args, **kwargs)

            return fail

        monkeypatch.setattr(mcmc, "_log_targets", in_lane_1(mcmc._log_targets))
        lanes(2)
        with deadline(60), pytest.raises(ValueError) as caught:
            run_chains(small_data, PRIORS, config)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "bad point in lane 1"
        assert multiprocessing.active_children() == []

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
        real = mcmc._log_targets
        starts = np.array([all_starts[i].as_array() for i in failing])

        def log_targets(points, *args):
            bonus = 1e6 * np.any(np.all(points[:, None] == starts, axis=2), axis=1)
            return real(points, *args) + bonus

        monkeypatch.setattr(mcmc, "_log_targets", log_targets)
        lanes(lane_count)
        config = ChainConfig(chains=3, draws=50, tune=0, seed=0, initial=all_starts)
        with deadline(60), pytest.raises(StuckChain) as caught:
            run_chains(small_data, PRIORS, config)
        assert str(caught.value) == f"chain {named}: post-tune acceptance 0.0000 below 0.01"
        assert multiprocessing.active_children() == []


class TestDataChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_chains_rejects_before_any_evaluation(self, small_data, monkeypatch, bad):
        def forbidden(*args, **kwargs):
            raise AssertionError("target evaluated")

        monkeypatch.setattr(mcmc, "log_posterior", forbidden)
        monkeypatch.setattr(mcmc, "_log_targets", forbidden)
        data = small_data.copy()
        data[7] = bad
        with pytest.raises(ValueError, match="sampler requires finite observations"):
            run_chains(data, PRIORS, ChainConfig(chains=2, draws=10, tune=0))
        with pytest.raises(ValueError, match="sampler requires finite observations"):
            run_chain(data, PRIORS, REF, (0.1,) * 4, 10, 0, 0)

    def test_public_functions_keep_their_check(self, small_data):
        data = small_data.copy()
        data[7] = math.nan
        with pytest.raises(ValueError, match="log_likelihood requires finite observations"):
            log_likelihood(data, REF)
        with pytest.raises(ValueError, match="log_likelihood requires finite observations"):
            log_posterior(REF, data, PRIORS)


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
        ],
        ids=["truncated", "no-rows", "format-tag", "bad-json", "header", "swapped", "draw-index"],
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
        ],
        ids=["rates", "scale-rows", "scale-width", "config"],
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


class TestLocationBox:
    """The target is truncated to the location box."""

    def test_target_rejects_locations_outside_the_box(self):
        target = mcmc._make_target(np.array([]), PRIORS, None)
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


def reference_targets(rows, data, priors, grid=None) -> np.ndarray:
    """The public log_posterior at each row inside the support and the
    location box, and -inf outside them."""
    (mu_low, mu_high), (alpha_low, alpha_high) = mcmc._location_box(priors)
    out = []
    for T, S, mu, alpha in rows.tolist():
        if not (mu_low <= mu <= mu_high and alpha_low <= alpha <= alpha_high):
            out.append(-math.inf)
        elif not priors.in_support(T, S):
            with pytest.raises(OutOfSupport):
                log_posterior(QrseParams(T, S, mu, alpha), data, priors, grid)
            out.append(-math.inf)
        else:
            out.append(log_posterior(QrseParams(T, S, mu, alpha), data, priors, grid))
    return np.array(out)


class TestLogTargets:
    """The row evaluator, the sampler's one target, gives the bits of the
    serial target: the public log_posterior, one point at a time."""

    @staticmethod
    def assert_same_bits(data, priors, grid=None, rows=TARGET_ROWS):
        expected = reference_targets(rows, data, priors, grid)
        got = mcmc._log_targets(rows, data, priors, grid)
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
        target = mcmc._make_target(data, PRIORS, None)
        got = np.concatenate([target(row[None]) for row in rows])
        assert got.tobytes() == expected.tobytes()

    def test_rows_do_not_depend_on_their_neighbours(self, small_data):
        rows = np.concatenate([
            np.tile(TARGET_ROWS, (3, 1)),
            np.random.default_rng(9).uniform([0.2, 0.2, 0.0, 10.0], [6.0, 6.0, 15.0, 25.0],
                                             (40, 4)),
        ])
        whole = mcmc._log_targets(rows, small_data, WIDE_PRIORS, None)
        order = np.random.default_rng(10).permutation(len(rows))
        permuted = mcmc._log_targets(rows[order], small_data, WIDE_PRIORS, None)
        assert permuted.tobytes() == whole[order].tobytes()
        for part in (slice(0, 1), slice(1, 2), slice(3, 17), slice(30, None), slice(5, 6)):
            got = mcmc._log_targets(rows[part], small_data, WIDE_PRIORS, None)
            assert got.tobytes() == whole[part].tobytes(), part

    def test_matches_serial_target_on_an_explicit_grid(self, small_data):
        rows = TARGET_ROWS[[0, 2, 3, 5, 6, 8, 10]]
        self.assert_same_bits(small_data, PRIORS, build_sampling_grid(small_data, PRIORS), rows)

    def test_prior_only_and_nothing_inside(self, small_data):
        self.assert_same_bits(np.array([]), WIDE_PRIORS)
        outside = TARGET_ROWS[8:]
        self.assert_same_bits(small_data, WIDE_PRIORS, rows=outside)
        assert np.all(mcmc._log_targets(outside, small_data, WIDE_PRIORS, None) == -math.inf)
        assert mcmc._log_targets(np.empty((0, 4)), small_data, PRIORS, None).shape == (0,)

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


NELDER_MEAD_OPTIONS = {"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000}


def assert_same_as_scipy(func, x0, options=NELDER_MEAD_OPTIONS):
    expected = optimize.minimize(func, x0, method="Nelder-Mead", options=options)
    x, evals = mcmc._nelder_mead(func, x0, **options)
    np.testing.assert_array_equal(x, expected.x)
    assert evals == expected.nfev
    return x


class TestNelderMead:
    """The port takes SciPy's steps exactly, so SciPy is its oracle."""

    @pytest.mark.parametrize("x0", [
        [-1.2, 1.0],
        [1.3, 0.7, 0.8, 1.9, 1.2],
        [0.0, 1.0, -1.2, 0.5],  # a zero coordinate takes the absolute step
    ])
    def test_rosenbrock(self, x0):
        x = assert_same_as_scipy(optimize.rosen, np.array(x0))
        np.testing.assert_allclose(x, 1.0, atol=1e-4)

    @pytest.mark.parametrize("levels, x0", [
        (4.0, [2.0, -1.0, 0.5]),
        (2.0, [-2.8, 1.4, -1.9]),
        (4.0, [2.6, 1.9, -3.0]),
    ])
    def test_plateaus(self, levels, x0):
        # A step function ties many comparisons; together these starts pin
        # down whether each test in the port is < or <=.
        def steps(x):
            return float(np.floor(levels * np.sum((x - 0.3) ** 2)))

        assert_same_as_scipy(steps, np.array(x0))

    def test_iteration_cap(self):
        options = {"xatol": 1e-12, "fatol": 1e-12, "maxiter": 40}
        assert_same_as_scipy(optimize.rosen, np.array([-1.2, 1.0, 0.5]), options)

    @pytest.mark.parametrize("t_center", [2.1, 7.95])
    def test_readme_posterior(self, t_center):
        # At t_center 7.95 the start is clipped to just inside the upper
        # bound, and the stretched T vertex falls outside the support: the
        # first simplex holds an infinite value.
        data = sample(REF, SampleConfig(n=2000, seed=4))
        priors = PriorSpec(t_center=t_center, s_center=4.9, mu_center=8.66,
                           alpha_center=17.8)
        target = mcmc._make_target(data, priors, None)
        inset = 1e-3 * (priors.bound_high - priors.bound_low)
        start = priors.centers()
        start[:2] = np.clip(start[:2], priors.bound_low + inset, priors.bound_high - inset)
        x = assert_same_as_scipy(lambda theta: -target(theta[None])[0], start)
        np.testing.assert_array_equal(mcmc._posterior_mode(target, priors), x)

    def test_passes_a_copy(self):
        seen = []

        def func(x):
            seen.append(x)
            value = float(np.sum((x - 1.0) ** 2))
            x[0] = 99.0  # must not reach the simplex
            return value

        x0 = np.array([0.5, 0.5])
        x, _ = mcmc._nelder_mead(func, x0, **NELDER_MEAD_OPTIONS)
        np.testing.assert_allclose(x, 1.0, atol=1e-3)
        assert x0.tolist() == [0.5, 0.5]
        assert len({id(x) for x in seen}) == len(seen)


class TestModeAndScales:
    def test_prior_only_mode_is_prior_center(self):
        target = mcmc._make_target(np.array([]), PRIORS, None)
        mode = mcmc._posterior_mode(target, PRIORS)
        np.testing.assert_allclose(mode, PRIORS.centers(), atol=1e-3)

    def test_prior_only_scales_match_prior_sd(self):
        # At an interior normal mode the curvature is -1/sd^2, so the
        # 2.4/sqrt(4) rule gives 1.2 sd per coordinate, and independent
        # coordinates leave the proposal correlation at identity.
        target = mcmc._make_target(np.array([]), PRIORS, None)
        scales, cholesky = mcmc._laplace_proposal(target, PRIORS.centers(), PRIORS)
        np.testing.assert_allclose(scales, 1.2 * PRIORS.sds(), rtol=0.05)
        np.testing.assert_allclose(cholesky, np.eye(4), atol=1e-3)

    def test_stencil_is_one_call_on_the_difference_points(self):
        # The mode, mode +- step j and mode +- step j +- step k (j < k), each
        # built as the difference quotients' terms read: the 33 points, in
        # one call.
        mode = np.array([2.1, 4.9, -8.66, 0.0])
        calls = []

        def target(points):
            calls.append(points.copy())
            return -0.5 * np.sum((points - mode) ** 2, axis=1)

        scales, cholesky = mcmc._laplace_proposal(target, mode, PRIORS)
        np.testing.assert_allclose(scales, 1.2 * np.ones(4), rtol=1e-3)
        np.testing.assert_allclose(cholesky, np.eye(4), atol=1e-3)
        assert len(calls) == 1 and calls[0].shape == (33, 4)
        steps = np.maximum(1e-4 * np.abs(mode), 1e-5)
        shift = [np.where(np.arange(4) == j, steps[j], 0.0) for j in range(4)]
        expected = [mode] + [mode + s for s in shift] + [mode - s for s in shift]
        for j, k in itertools.combinations(range(4), 2):
            expected += [mode + shift[j] + shift[k], mode + shift[j] - shift[k],
                         mode - shift[j] + shift[k], mode - shift[j] - shift[k]]
        assert sorted(row.tobytes() for row in calls[0]) == sorted(
            row.tobytes() for row in expected
        )

    def test_boundary_mode_falls_back_without_warning(self):
        # With T at its lower bound, half the finite-difference points lie
        # outside the support, and the mixed terms meet -inf - -inf.
        data = sample(REF, SampleConfig(n=200, seed=2))
        target = mcmc._make_target(data, PRIORS, None)
        mode = PRIORS.centers()
        mode[0] = PRIORS.bound_low
        scales, cholesky = mcmc._laplace_proposal(target, mode, PRIORS)
        assert cholesky is None
        assert np.all(np.isfinite(scales)) and np.all(scales > 0.0)

    def test_correlated_target_recovers_correlation(self):
        # Quadratic log target with corr(mu, alpha) = 0.8 and unit sds:
        # the Laplace proposal should report marginal (not conditional)
        # sds and the matching Cholesky factor.
        correlation = np.eye(4)
        correlation[2, 3] = correlation[3, 2] = 0.8
        precision = np.linalg.inv(correlation)
        center = PRIORS.centers()

        def target(points):
            shift = points - center
            return -0.5 * np.sum((shift @ precision) * shift, axis=1)

        scales, cholesky = mcmc._laplace_proposal(target, center.copy(), PRIORS)
        np.testing.assert_allclose(scales, 1.2 * np.ones(4), rtol=1e-3)
        np.testing.assert_allclose(cholesky[3, 2], 0.8, rtol=1e-3)
        np.testing.assert_allclose(cholesky[3, 3], 0.6, rtol=1e-3)
        np.testing.assert_allclose(cholesky @ cholesky.T, correlation, atol=1e-3)

    def test_saddle_falls_back_to_diagonal(self):
        # A saddle (positive curvature in one coordinate) defeats the
        # Hessian inversion; usable coordinates keep their curvature
        # scales and the bad one falls back to a tenth of the prior sd.
        center = PRIORS.centers()

        def target(points):
            shift = points - center
            return -0.5 * np.sum(shift[:, :3] ** 2, axis=1) + 0.5 * shift[:, 3] ** 2

        scales, cholesky = mcmc._laplace_proposal(target, center.copy(), PRIORS)
        assert cholesky is None
        np.testing.assert_allclose(scales[:3], 1.2 * np.ones(3), rtol=1e-3)
        assert scales[3] == pytest.approx(0.1 * PRIORS.sds()[3])
