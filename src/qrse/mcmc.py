"""Metropolis-Hastings sampling of the parameter posterior.

The target combines the pointwise log-likelihood of the cleaned returns data
with truncated-normal priors on the two scales (T, S) and normal priors on
the two locations (mu, alpha). ``run_chains`` finds the posterior mode and
the Laplace approximation there from the target's exact gradient and
Hessian, then runs one of two kernels:

- the independence kernel ("independence-t5"), whenever the config carries
  no explicit step scales and the Laplace covariance is usable, with data
  or on the prior alone: every proposal is drawn from one multivariate t
  with 5 degrees of freedom, centred at the mode, with scale matrix 1.2^2
  times the Laplace covariance. Its heavier tails keep the ratio of target
  to proposal bounded, which makes the kernel uniformly ergodic (Tierney
  1994, Ann. Statist. 22(4); Mengersen & Tweedie 1996, Ann. Statist.
  24(1)). The tune steps are burn-in;
- the random walk ("random-walk") otherwise, for explicit step scales or
  a Laplace fit that fell back (a mode on a bound of the support or the
  location box, a saddle): Gaussian steps with a per-coordinate scale
  vector. ``run_chain`` also takes a fixed correlation for its steps,
  which ``run_chains`` never passes. Scales adapt in windows of 100 steps
  during the tune phase and are frozen afterwards, so the recorded draws
  come from a fixed kernel.

Everything is deterministic given (data, priors, config): chains use a
counter-based generator keyed by seed + chain_index, and initial points are
jittered around the posterior mode. The sampler has one target,
``_Target``, built once per run, which evaluates the log posterior at a
block of rows and gives the mode search its gradient and Hessian. When it
is built, the data is checked and sorted, once (``model._sort_data``), and
the bounds of the support and the location box are set. Each row takes
log Z from ``local_log_z``'s grid around its own mu, and its data term is
``model._data_log_kernel``'s sum over the sorted data, split at the row's
own mu: one exp and one division per point, and one log per 32 points for
the sum of log1p terms, against the pointwise ``log_kernel``'s tanh, log1p
and two divisions.

``run_chains`` spreads its work over parallel lanes, one per CPU the
process may use (``os.sched_getaffinity``): lane 0 is the calling process
and each other lane a forked process, pinned to a CPU of its own, that
inherits the run's one target. One dealer splits a list of jobs into equal
contiguous slices, one per lane. For the independence kernel, whose
proposals do not depend on the state, the jobs are all chains' target
evaluations, and each chain's accept/reject sweep runs afterwards in the
calling process. For the random walk the jobs are the chains, and a lane's
walks step in lock-step, one target call per step. Every start and
Generator is made in the calling process, and each target value is a pure
function of its row, so the output is bit-identical at any lane count.
Both kernels fail by one rule: every start is evaluated before any chain
steps, and the lowest chain with a non-finite start raises ``BadStart``;
after that, the lowest stuck chain raises ``StuckChain``.

The sampled posterior is truncated to mu and alpha within CORNER_SDS prior
sds of their centers, and the sampler rejects proposals outside that box.
Before any chain runs, ``run_chains`` builds the largest local log Z grid
the support allows, so an oversized one fails at startup, not mid-chain.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BadStart, OutOfSupport, ParseError, QrseError, StuckChain
from .mapfit import DEFAULT_SCALE_BOUNDS, _newton
from .model import (
    EvalGrid,
    QrseParams,
    _log_likelihood_derivatives,
    _log_likelihood_rows,
    _sort_data,
    build_density,
    log_likelihood,
)
from .synthetic import RNG_ALGORITHM, rng_from_seed

DEFAULT_SCALE_SD = 2.0
DEFAULT_LOCATION_SD = 10.0
TRUNCATION_LOW, TRUNCATION_HIGH = DEFAULT_SCALE_BOUNDS

ADAPT_WINDOW = 100
ADAPT_GROW = 1.1
ADAPT_SHRINK = 0.9
ACCEPT_HIGH = 0.5
ACCEPT_LOW = 0.2
STUCK_ACCEPTANCE = 0.01

# Degrees of freedom of the independence kernel's multivariate t proposal.
PROPOSAL_DOF = 5.0
INDEPENDENCE = "independence-t5"
RANDOM_WALK = "random-walk"
KERNELS = (INDEPENDENCE, RANDOM_WALK)

# How many prior standard deviations either side of its centre the location
# box reaches, for mu and for alpha (``_bounds``).
CORNER_SDS = 4.0

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

TRACE_FORMAT = "qrse-trace-v1"
TRACE_HEADER = "chain,draw,T,S,mu,alpha"


def _normal_logpdf(x, center: float, sd: float):
    z = (x - center) / sd
    return -0.5 * z * z - math.log(sd) - _HALF_LOG_2PI


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors: truncated normals for T and S, normals for mu, alpha.

    The truncated-normal log-density includes the normalization over the
    truncation interval, so prior densities integrate to one on the support.
    Both normalizers are computed once, at construction. Every field must be
    finite, the sds positive and 0 < bound_low < bound_high.
    """

    t_center: float
    s_center: float
    mu_center: float
    alpha_center: float
    t_sd: float = DEFAULT_SCALE_SD
    s_sd: float = DEFAULT_SCALE_SD
    mu_sd: float = DEFAULT_LOCATION_SD
    alpha_sd: float = DEFAULT_LOCATION_SD
    bound_low: float = TRUNCATION_LOW
    bound_high: float = TRUNCATION_HIGH
    _t_log_mass: float = field(init=False, repr=False, compare=False)
    _s_log_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("t_sd", "s_sd", "mu_sd", "alpha_sd"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        # T and S are scales: a bound at or below zero would let the chain
        # propose a nonpositive one.
        if not (0.0 < self.bound_low < self.bound_high):
            raise ValueError(
                f"truncation bounds must satisfy 0 < low < high, got "
                f"bound_low={self.bound_low!r}, bound_high={self.bound_high!r}"
            )
        for name, value in self.to_json().items():
            if not math.isfinite(value):
                raise ValueError(f"prior {name} must be finite, got {value!r}")
        object.__setattr__(
            self, "_t_log_mass", self._truncation_log_mass(self.t_center, self.t_sd)
        )
        object.__setattr__(
            self, "_s_log_mass", self._truncation_log_mass(self.s_center, self.s_sd)
        )

    def _truncation_log_mass(self, center: float, sd: float) -> float:
        # Normal mass on [low, high], taken from whichever tail is small:
        # with the center below the interval both lower-tail CDFs round
        # to 1, so the upper tails are subtracted instead.
        low = (self.bound_low - center) / sd * _SQRT1_2
        high = (self.bound_high - center) / sd * _SQRT1_2
        if low > 0.0:
            mass = 0.5 * (math.erfc(low) - math.erfc(high))
        else:
            mass = 0.5 * (math.erfc(-high) - math.erfc(-low))
        if mass <= 0.0:
            raise ValueError("prior center lies too far outside the truncation bounds")
        return math.log(mass)

    def in_support(self, T: float, S: float) -> bool:
        return (
            self.bound_low <= T <= self.bound_high
            and self.bound_low <= S <= self.bound_high
        )

    def log_density(self, params: QrseParams) -> float:
        """Sum of the four prior log-densities.

        Raises
        ------
        OutOfSupport
            If T or S violates the truncation bounds.
        """
        if not self.in_support(params.T, params.S):
            raise OutOfSupport(
                f"T={float(params.T)!r}, S={float(params.S)!r} outside "
                f"[{self.bound_low}, {self.bound_high}]"
            )
        return self._log_density(params.T, params.S, params.mu, params.alpha)

    def _log_density(self, T, S, mu, alpha):
        """``log_density`` without the support check, at scalars or at
        arrays of rows."""
        return (
            _normal_logpdf(T, self.t_center, self.t_sd)
            - self._t_log_mass
            + _normal_logpdf(S, self.s_center, self.s_sd)
            - self._s_log_mass
            + _normal_logpdf(mu, self.mu_center, self.mu_sd)
            + _normal_logpdf(alpha, self.alpha_center, self.alpha_sd)
        )

    def centers(self) -> np.ndarray:
        return np.array([self.t_center, self.s_center, self.mu_center, self.alpha_center])

    def sds(self) -> np.ndarray:
        return np.array([self.t_sd, self.s_sd, self.mu_sd, self.alpha_sd])

    def to_json(self) -> dict:
        return {
            "t_center": self.t_center,
            "s_center": self.s_center,
            "mu_center": self.mu_center,
            "alpha_center": self.alpha_center,
            "t_sd": self.t_sd,
            "s_sd": self.s_sd,
            "mu_sd": self.mu_sd,
            "alpha_sd": self.alpha_sd,
            "bound_low": self.bound_low,
            "bound_high": self.bound_high,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PriorSpec":
        if not isinstance(payload, dict):
            raise TypeError(f"priors must be a JSON object, got {type(payload).__name__}")
        return cls(**{key: float(value) for key, value in payload.items()})


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings. Defaults match the full-scale production run."""

    chains: int = 3
    draws: int = 30000
    tune: int = 4000
    seed: int = 0
    initial: tuple[QrseParams, ...] | None = None
    step_scales: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.chains < 2:
            raise ValueError("need at least 2 chains for convergence diagnostics")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.tune < 0:
            raise ValueError("tune must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.initial is not None and len(self.initial) != self.chains:
            raise ValueError("need one initial point per chain")
        if self.step_scales is not None and not _valid_scales(self.step_scales):
            raise ValueError(
                f"step_scales must be four finite nonnegative numbers, got {self.step_scales!r}"
            )


def _valid_scales(scales) -> bool:
    """The rule for one chain's step scales: four finite nonnegative numbers."""
    return len(scales) == 4 and all(0.0 <= s < math.inf for s in scales)


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Post-tune draws from every chain plus sampler diagnostics.

    ``draws`` has shape (chains, draws, 4) with columns (T, S, mu, alpha).
    ``step_scales`` holds each chain's frozen post-tune proposal scales (for
    the independence kernel, the proposal's per-coordinate scales).
    ``kernel`` names the kernel that ran, one of KERNELS. The chain and
    draw counts of ``draws``, ``config``, ``acceptance_rates`` and
    ``step_scales`` must agree, every draw must be finite and inside the
    support and the location box (``_bounds``), and each chain's scales
    must pass ``ChainConfig``'s rule (``_valid_scales``).
    """

    draws: np.ndarray
    acceptance_rates: tuple[float, ...]
    step_scales: tuple[tuple[float, float, float, float], ...]
    config: ChainConfig
    priors: PriorSpec
    rng_algorithm: str = RNG_ALGORITHM
    kernel: str = RANDOM_WALK

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 3 or draws.shape[2] != 4:
            raise ValueError("draws must have shape (chains, draws, 4)")
        chains = draws.shape[0]
        if (self.config.chains, self.config.draws) != draws.shape[:2]:
            raise ValueError(f"draws shape {draws.shape[:2]} does not match the config")
        if len(self.acceptance_rates) != chains:
            raise ValueError(f"need one acceptance rate per chain ({chains})")
        if len(self.step_scales) != chains or not all(map(_valid_scales, self.step_scales)):
            raise ValueError(f"need four step scales per chain ({chains}), finite and nonnegative")
        if not np.all(np.isfinite(draws)):
            raise ValueError("draws must be finite")
        lows, highs = _bounds(self.priors)
        if np.any(draws < lows) or np.any(draws > highs):
            raise ValueError("stored draws lie outside the prior support or the location box")
        if any(not (0.0 <= r <= 1.0) for r in self.acceptance_rates):
            raise ValueError("acceptance rates must lie in [0, 1]")
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)

    def pooled(self, index: int) -> np.ndarray:
        """All chains' draws for one parameter, flattened."""
        return self.draws[:, :, index].reshape(-1)


def build_sampling_grid(data, priors: PriorSpec) -> EvalGrid:
    """One fixed partition-function grid for ``log_posterior(grid=)`` and
    ``log_likelihood(grid=)`` over the support and location box of ``priors``.

    Spans the data range, from ``model._sort_data``'s sorted copy, and the
    prior's extreme corners (the corners of ``_bounds``' location box,
    scales at the upper truncation bound), then verifies the edge-mass
    limit at those corners so that no point of the support and the box can
    need a wider grid.
    """
    data = _sort_data(data)
    mu_corners, alpha_corners = np.transpose(_bounds(priors))[2:].tolist()
    points = mu_corners + alpha_corners
    if data is not None:
        points += (float(data.x[0]), float(data.x[-1]))
    grid = EvalGrid.spanning(points, priors.bound_high)
    for mu in mu_corners:
        for alpha in alpha_corners:
            corner = QrseParams(
                T=priors.bound_high, S=priors.bound_high, mu=mu, alpha=alpha
            )
            build_density(corner, grid)  # raises GridTooNarrow if the span is short
    return grid


def _check_local_grids(data, priors: PriorSpec) -> None:
    """Build the largest local log Z grid the support allows and evaluate
    the public ``log_posterior`` of nonempty ``data`` on it, which checks
    and sorts the data again and sums the pointwise ``log_kernel`` over it.

    The grid's size grows with T / min(T, S), so it peaks at (T, S) =
    (bound_high, bound_low); mu and alpha cannot change it and sit at the
    prior centres. ``EvalGrid.local`` raises before anything is evaluated.
    This call is the perfbench caller: the run's one pass through the spans
    ``perfbench/run.py`` reads, until ROADMAP direction 4 lands.

    Raises
    ------
    GridTooLarge
        If that grid would exceed MAX_LOCAL_POINTS.
    """
    corner = QrseParams(T=priors.bound_high, S=priors.bound_low,
                        mu=priors.mu_center, alpha=priors.alpha_center)
    log_posterior(corner, data, priors, EvalGrid.local(corner))


def log_posterior(
    params: QrseParams,
    data,
    priors: PriorSpec,
    grid: EvalGrid | None = None,
) -> float:
    """Log prior plus log-likelihood; the prior alone for empty 1-d data.

    With ``grid=None``, log Z comes from ``local_log_z`` at ``params``; an
    explicit grid, such as ``build_sampling_grid``'s, is used as given. The
    sampler's target is ``_Target``, which gives the ``grid=None`` bits at
    every point of the support and the location box; the sampler calls this
    once, in its start-up check (``_check_local_grids``).

    Raises
    ------
    OutOfSupport
        If T or S violates the prior truncation bounds (callers treat this
        as -inf and auto-reject).
    ValueError
        Unless the data is a 1-d array of finite numbers (``_sort_data``).
    """
    prior = priors.log_density(params)
    if np.shape(data) == (0,):
        return prior
    return prior + log_likelihood(data, params, grid)


class _Target:
    """The sampler's log target, built once per run: ``model._sort_data``
    checks and sorts the data here once, not on every evaluation (None when
    it is empty); the lows and highs of the support and the location box
    and the prior's centres and precision are kept here too.

    Called on an (m, 4) array of rows (T, S, mu, alpha), it gives their m
    log posteriors: -inf outside the support and the location box, and
    inside them log prior plus ``_log_likelihood_rows``, the bits of
    ``log_posterior`` at that point with log Z from ``local_log_z``, in a
    few calls over blocks of rows. A row's value does not depend on the
    rows around it. For ``mapfit._newton``, ``value`` is the negative log
    target at one row, which is its own state, and ``derivatives`` the
    negated gradient and Hessian there.
    """

    def __init__(self, data, priors: PriorSpec):
        self.data = _sort_data(data)
        self.priors = priors
        self.lows, self.highs = _bounds(priors)
        self.centers, self.precision = priors.centers(), priors.sds() ** -2.0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        inside = ((self.lows <= points) & (points <= self.highs)).all(axis=1)
        rows = points[inside]
        # One row (the mode search's values, a lane with one walk) takes the prior
        # in Python floats: the same bits, several times faster than on arrays.
        log_p = self.priors._log_density(*(rows[0].tolist() if len(rows) == 1 else rows.T))
        if self.data is not None:
            log_p = log_p + _log_likelihood_rows(self.data, rows)
        out = np.full(len(points), -math.inf)
        out[inside] = log_p
        return out

    def value(self, row: np.ndarray) -> tuple[float, np.ndarray]:
        return -self(row[None])[0], row

    def derivatives(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The negated gradient and Hessian of the log target at one row
        inside the support and the location box: the prior's in closed
        form, plus ``_log_likelihood_derivatives`` taken from log T and
        log S by the chain rule (d^2/dT^2 = (d^2/dlog T^2 - d/dlog T) / T^2)."""
        gradient = (self.centers - row) * self.precision
        hessian = np.diag(-self.precision)
        if self.data is not None:
            log_gradient, log_hessian = _log_likelihood_derivatives(self.data, row)
            log_hessian[[0, 1], [0, 1]] -= log_gradient[:2]
            scale = np.array([row[0], row[1], 1.0, 1.0])
            gradient += log_gradient / scale
            hessian += log_hessian / np.multiply.outer(scale, scale)
        return -gradient, -hessian


def _bounds(priors: PriorSpec, inset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lows and highs of (T, S, mu, alpha): the support, moved ``inset``
    times its width inside, then the location box, CORNER_SDS prior sds
    either side of each centre: the one box every part of the sampler reads."""
    pad = CORNER_SDS * priors.sds()
    lows, highs = priors.centers() - pad, priors.centers() + pad
    inset *= priors.bound_high - priors.bound_low
    lows[:2], highs[:2] = priors.bound_low + inset, priors.bound_high - inset
    return lows, highs


def _posterior_mode(target: _Target) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The target's maximum over the support and the location box, the log
    target's Hessian there, and which coordinates lie on a bound, by
    ``mapfit._newton`` from the prior centres clipped into the box, T and S
    1e-3 of the support's width inside it: at a small T the likelihood has a
    local mode in mu every few T, and started on T's lower bound, the search
    in CI's random-walk case stops 7 nats below the mode it finds from inside.
    """
    lows, highs = target.lows, target.highs
    search = _newton(target, np.clip(target.centers, *_bounds(target.priors, 1e-3)), lows, highs)
    return search.theta, -search.hessian, (search.theta <= lows) | (search.theta >= highs)


def _laplace_proposal(
    hessian: np.ndarray, bounded: np.ndarray, priors: PriorSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """Proposal scales and correlation from the Laplace approximation.

    ``hessian`` is the log target's at the mode, and ``bounded`` marks the
    mode's coordinates on a bound. With none there, the negated Hessian is
    inverted: the square roots of the diagonal give marginal sds, scaled by
    2.4/sqrt(d) (1.2 in four dimensions); the off-diagonal structure is
    returned as the lower Cholesky factor of the correlation matrix.
    ``run_chains`` multiplies the two into the factor of the independence
    kernel's scale matrix, 1.2^2 times the Laplace covariance; mu and alpha
    in particular are strongly coupled, and a proposal blind to that would
    rarely land where the posterior is.

    Falls back to per-coordinate curvature with no correlation at a mode on
    a bound or a saddle: a coordinate on a bound, or without negative
    curvature, takes a tenth of its prior sd. The None correlation tells
    ``run_chains`` to run the random walk on these scales.
    """
    factor = 2.4 / math.sqrt(len(hessian))
    if not bounded.any() and np.all(np.isfinite(hessian)):
        try:
            # Cholesky doubles as the negative-definiteness check
            np.linalg.cholesky(-hessian)
            covariance = np.linalg.inv(-hessian)
            sds = np.sqrt(np.diag(covariance))
            correlation = covariance / np.outer(sds, sds)
            return factor * sds, np.linalg.cholesky(correlation)
        except np.linalg.LinAlgError:
            pass
    scales = [
        factor / math.sqrt(-second) if not edge and -math.inf < second < 0.0 else 0.1 * sd
        for second, edge, sd in zip(np.diag(hessian).tolist(), bounded.tolist(), priors.sds().tolist())
    ]
    return np.array(scales), None


@dataclass(frozen=True, eq=False)
class ChainResult:
    """One chain's post-tune draws, acceptance rate, and frozen scales."""

    draws: np.ndarray
    acceptance_rate: float
    step_scales: tuple[float, float, float, float]


def run_chain(
    data,
    priors: PriorSpec,
    initial: QrseParams,
    step_scales,
    draws: int,
    tune: int,
    seed,
    proposal_cholesky: np.ndarray | None = None,
    *,
    proposals: tuple[np.ndarray, np.ndarray] | None = None,
) -> ChainResult:
    """One Metropolis-Hastings chain.

    Without ``proposals`` this is the random walk, the one-chain case of the
    lock-step walk ``run_chains`` runs, with the same bits at the same seed
    and start. Proposals are Gaussian steps whose per-coordinate sds are
    ``step_scales``.
    ``proposal_cholesky``, when given, is the lower Cholesky factor of a
    fixed proposal correlation matrix, letting the walk jump obliquely
    through correlated regions; None means independent coordinates. During
    the first ``tune`` steps every scale is multiplied by 1.1 when the
    rolling 100-step acceptance exceeds 0.5 and by 0.9 when it falls below
    0.2 (the correlation never adapts). After tuning the scales never
    change, and exactly ``draws`` states are recorded.

    With ``proposals`` this is the accept/reject sweep of the independence
    kernel, and no target is evaluated here. ``proposals`` is
    ``(points, log_weights)``: row 0 of ``points`` is the start and row
    k the proposal at step k - 1, and each log weight is the log target at
    that point minus the log proposal density there (up to one constant).
    A proposal is accepted with probability min(1, exp(its log weight minus
    the current state's)). The first ``tune`` steps are burn-in;
    ``step_scales`` is returned as the chain's scales, and ``data``,
    ``initial`` and ``proposal_cholesky`` are not used.

    ``seed`` may be an integer or an already-constructed numpy Generator;
    either kernel draws one uniform per step from it.

    Raises
    ------
    BadStart
        If the start (``initial``, or row 0 of the proposals) has a
        non-finite log posterior.
    GridTooLarge
        If a proposal's local log Z grid would be too large
        (``run_chains`` rules this out before any chain runs).
    StuckChain
        If the post-tune acceptance rate is below STUCK_ACCEPTANCE.
    """
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    if proposals is not None:
        points, log_weights = proposals
        if not (len(points) == len(log_weights) == 1 + tune + draws):
            raise ValueError("proposals need 1 + tune + draws points and log weights")
        start, log_p = points[0], log_weights[0]
    else:
        target = _Target(data, priors)
        start = initial.as_array()
        log_p = target(start[None])[0]
    if not math.isfinite(log_p):
        raise BadStart(_bad_start_message(start, priors))
    if proposals is not None:
        return _chain_result(*_independence_sweep(points, log_weights, draws, tune, rng),
                             step_scales)
    [walk] = _random_walk(target, start[None], [log_p], step_scales, draws, tune, [rng],
                          proposal_cholesky)
    return _chain_result(*walk)


def _chain_result(draws: np.ndarray, post_tune_accepts: int, scales) -> ChainResult:
    """Either kernel's ChainResult from a chain's recorded states, post-tune
    accepts and final scales; StuckChain if its acceptance is below
    STUCK_ACCEPTANCE."""
    acceptance = post_tune_accepts / len(draws)
    if acceptance < STUCK_ACCEPTANCE:
        raise StuckChain(
            f"post-tune acceptance {acceptance:.4f} below {STUCK_ACCEPTANCE}"
        )
    return ChainResult(
        draws=draws, acceptance_rate=acceptance, step_scales=tuple(float(s) for s in scales)
    )


def _bad_start_message(start: np.ndarray, priors: PriorSpec) -> str:
    """What is wrong with a start whose log posterior is not finite: each
    parameter outside its range in ``_bounds``, the support or the location box."""
    lows, highs = _bounds(priors)
    where = ("the support",) * 2 + ("the location box",) * 2
    outside = [
        f"{name}={value!r} outside {place} [{low!r}, {high!r}]"
        for name, value, low, high, place
        in zip(("T", "S", "mu", "alpha"), start.tolist(), lows.tolist(), highs.tolist(), where)
        if not low <= value <= high
    ]
    return "initial point has non-finite log posterior" + (
        ": " + ", ".join(outside) if outside else ""
    )


def _random_walk(target, states, log_p, step_scales, draws, tune, rngs, proposal_cholesky=None):
    """The random-walk chains from the rows of ``states``, whose log targets
    are ``log_p``, stepped in lock-step: each chain draws its jump from its
    own Generator in ``rngs``, one target call evaluates every proposal, and
    each chain then draws its uniform, as it would alone. One (recorded
    states, post-tune accepts, final scales) per chain."""
    states = np.array(states, dtype=float)
    log_p = list(log_p)
    scales = np.tile(np.asarray(step_scales, dtype=float), (len(rngs), 1))
    out = np.empty((len(rngs), draws, 4))
    window_accepts = [0] * len(rngs)
    post_tune_accepts = [0] * len(rngs)
    for step in range(tune + draws):
        jumps = [rng.standard_normal(4) for rng in rngs]
        if proposal_cholesky is not None:
            jumps = [proposal_cholesky @ jump for jump in jumps]
        proposals = states + np.reshape(jumps, states.shape) * scales
        log_p_proposals = target(proposals).tolist()
        for chain, rng in enumerate(rngs):
            if math.log(rng.random()) < log_p_proposals[chain] - log_p[chain]:
                states[chain] = proposals[chain]
                log_p[chain] = log_p_proposals[chain]
                window_accepts[chain] += 1
                if step >= tune:
                    post_tune_accepts[chain] += 1
        if step < tune:
            if (step + 1) % ADAPT_WINDOW == 0:
                rates = np.array(window_accepts) / ADAPT_WINDOW
                scales[rates > ACCEPT_HIGH] *= ADAPT_GROW
                scales[rates < ACCEPT_LOW] *= ADAPT_SHRINK
                window_accepts = [0] * len(rngs)
        else:
            out[:, step - tune] = states
    return list(zip(out, post_tune_accepts, scales))


def _independence_sweep(points, log_weights, draws, tune, rng):
    """The independence chain over precomputed weights: (recorded states,
    post-tune accepts)."""
    # 1 - U lies in (0, 1], so its log is finite.
    log_uniforms = np.log1p(-rng.random(tune + draws)).tolist()
    weights = log_weights.tolist()
    current = 0  # row of the current state
    states = np.empty(tune + draws, dtype=np.intp)
    post_tune_accepts = 0
    for step, log_u in enumerate(log_uniforms):
        if log_u < weights[step + 1] - weights[current]:
            current = step + 1
            if step >= tune:
                post_tune_accepts += 1
        states[step] = current
    return points[states[tune:]], post_tune_accepts


def _t_proposals(rng: np.random.Generator, mode: np.ndarray, factor: np.ndarray,
                 count: int) -> np.ndarray:
    """``count`` draws from the multivariate t with PROPOSAL_DOF degrees of
    freedom, centre ``mode`` and scale matrix ``factor @ factor.T``."""
    normal = rng.standard_normal((count, mode.size))
    chi2 = rng.chisquare(PROPOSAL_DOF, count)
    return mode + (normal @ factor.T) * np.sqrt(PROPOSAL_DOF / chi2)[:, None]


def _t_log_density(points: np.ndarray, mode: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Log density of that t at each row of ``points``, less its constant."""
    white = np.linalg.solve(factor, (points - mode).T)
    squared = np.sum(white * white, axis=0)
    return -0.5 * (PROPOSAL_DOF + mode.size) * np.log1p(squared / PROPOSAL_DOF)


def _lane_count(jobs: int) -> int:
    """How many processes share the work: one per CPU this process may run
    on, at most one per job. Lanes need ``os.sched_getaffinity`` and the
    fork start method (Linux), so elsewhere all work runs here."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def _set_affinity(cpus) -> None:
    """Run this thread on ``cpus`` only, or leave it as it is where the
    system refuses."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _lane_main(writer, fn, jobs, cpu: int) -> None:
    _set_affinity({cpu})
    try:
        results = fn(jobs)
    except Exception as err:  # sent to the parent, which raises it
        results = err
    writer.send(results)


def _deal(fn, jobs, what: str) -> list:
    """``[fn(slice) for slice in slices]``: ``jobs`` cut into
    ``_lane_count(len(jobs))`` equal contiguous slices, one per lane, lane
    0 taking the first, and ``fn`` called once on each.

    ``fn`` returns one result per job of its slice and raises the failure
    of the lowest job that fails. Lane 0 is this process. Each other lane is
    a forked process that inherits ``fn`` and everything it reads, and
    sends back over a one-way pipe its results or its exception. The
    failure of the lowest lane is raised: lane 0's at once, any other
    lane's once the lanes before it have returned, so it is the failure of
    the lowest job. A lane whose process exits without sending raises a
    QrseError that names it and its slice of ``what``. With one lane no
    process is started. Every lane is joined before this returns or raises.

    Lane k runs on the k-th CPU of this thread's affinity set only, since
    the scheduler need not move a forked lane off its parent's CPU, and
    two lanes on one CPU take twice as long. This thread's affinity is
    restored before this returns or raises.
    """
    count = len(jobs)
    lanes = _lane_count(count)
    if lanes <= 1:
        return [fn(jobs)]
    import multiprocessing

    bounds = [count * lane // lanes for lane in range(lanes + 1)]
    context = multiprocessing.get_context("fork")
    affinity = os.sched_getaffinity(0)
    cpus = sorted(affinity)
    children = []
    try:
        for lane in range(1, lanes):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_lane_main,
                args=(writer, fn, jobs[bounds[lane]:bounds[lane + 1]], cpus[lane % len(cpus)]),
                daemon=True,
            )
            # NumPy's OpenBLAS pool is the only other thread here, and
            # OpenBLAS stops it before a fork (pthread_atfork), so the child
            # inherits no lock a missing thread holds.
            process.start()
            writer.close()  # else the reader never sees EOF from a dead lane
            children.append((process, reader))
        _set_affinity({cpus[0]})
        results = [fn(jobs[:bounds[1]])]
        for lane, (process, reader) in enumerate(children, start=1):
            try:
                outcome = reader.recv()
            except (EOFError, OSError):
                process.join()
                raise QrseError(
                    f"sampler lane {lane} ({what} {bounds[lane]}-{bounds[lane + 1] - 1}) "
                    f"exited with status {process.exitcode} before returning its results"
                ) from None
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        _set_affinity(affinity)
        for process, reader in children:
            process.join()
            reader.close()
    return results


def run_chains(data, priors: PriorSpec, config: ChainConfig) -> PosteriorDraws:
    """Run config.chains independent chains and assemble the posterior draws.

    Chain i is keyed by seed + i (the seed split rule). Unless the config
    carries explicit initial points, chains start at the posterior mode
    jittered by up to 10 percent of each prior sd and clipped into the
    support and the location box. Unless it carries
    explicit step scales, the Laplace approximation at the mode sets the
    proposal; explicit scales imply a random walk with independent
    proposal coordinates.

    The kernel is the independence sampler when the config carries no step
    scales, no coordinate of the mode lies on a bound of the support or the
    location box, and the Hessian there is negative definite, whether or
    not there is data. Its proposals are a multivariate t with PROPOSAL_DOF
    degrees of freedom, centred at the mode, with scale matrix 1.2^2 times
    the Laplace covariance; the tune steps are burn-in. Otherwise (explicit
    scales, or a Laplace fit that fell back to per-coordinate curvature, at
    a mode on a bound or a saddle) it is the random walk of ``run_chain``,
    with independent proposal coordinates. ``PosteriorDraws.kernel``
    records which ran.

    The data is checked and sorted once, when the run's one target is built
    (``model._sort_data``), and ``_check_local_grids`` runs if there is
    data. Every start, Generator and independence proposal is made here, in
    chain order, and the work is dealt over ``_lane_count`` lanes (see the
    module docstring): the chains x (1 + tune + draws) target evaluations of
    the independence kernel, whose sweeps then run here through
    ``run_chain``, or the random walk's chains, whose starts are evaluated
    here first. With one lane no process is started.

    Raises
    ------
    ValueError
        Unless the data is a 1-d array of finite numbers.
    GridTooLarge
        From the startup check of the local log Z grid.
    BadStart
        If a chain's start has a non-finite log posterior, before any chain
        steps; the message names the lowest such chain.
    StuckChain
        If a chain's post-tune acceptance is below STUCK_ACCEPTANCE, once
        every chain has run; the message names the lowest such chain.
    QrseError
        If a lane's process exits without returning its work.
    """
    target = _Target(data, priors)
    if target.data is not None:
        _check_local_grids(data, priors)

    mode = None
    if config.initial is None or config.step_scales is None:
        mode, hessian, bounded = _posterior_mode(target)
    if config.step_scales is None:
        scales, proposal_cholesky = _laplace_proposal(hessian, bounded, priors)
    else:
        scales = np.asarray(config.step_scales, dtype=float)
        proposal_cholesky = None
    independent = proposal_cholesky is not None
    if independent:
        factor = scales[:, None] * proposal_cholesky  # 1.2^2 x covariance
        steps = config.tune + config.draws
        points = np.empty((config.chains, 1 + steps, 4))

    lows, highs = _bounds(priors, 1e-6)
    starts, rngs = np.empty((config.chains, 4)), []
    for index in range(config.chains):
        rng = rng_from_seed(config.seed + index)
        if config.initial is not None:
            starts[index] = config.initial[index].as_array()
        else:
            jitter = rng.uniform(-0.1, 0.1, 4) * priors.sds()
            starts[index] = np.clip(mode + jitter, lows, highs)
        if independent:
            points[index, 0] = starts[index]
            points[index, 1:] = _t_proposals(rng, mode, factor, steps)
        rngs.append(rng)

    if independent:
        flat = points.reshape(-1, 4)
        targets = np.concatenate(_deal(target, flat, "target evaluations"))
        log_weights = (targets - _t_log_density(flat, mode, factor)).reshape(config.chains, -1)
        start_log_p = log_weights[:, 0]
    else:
        start_log_p = target(starts)
    bad = np.flatnonzero(~np.isfinite(start_log_p))
    if bad.size:
        raise BadStart(f"chain {bad[0]}: {_bad_start_message(starts[bad[0]], priors)}")
    if not independent:
        def walk(indices: range) -> list:
            return _random_walk(target, starts[indices], start_log_p[indices], scales,
                                config.draws, config.tune, [rngs[i] for i in indices])

        walks = [run for lane in _deal(walk, range(config.chains), "chains") for run in lane]
    results = []
    for index, rng in enumerate(rngs):
        try:
            results.append(
                run_chain(data, priors, None, scales, config.draws, config.tune, rng,
                          proposals=(points[index], log_weights[index]))
                if independent else _chain_result(*walks[index])
            )
        except StuckChain as err:
            raise StuckChain(f"chain {index}: {err}") from None
    return PosteriorDraws(
        draws=np.stack([result.draws for result in results]),
        acceptance_rates=tuple(result.acceptance_rate for result in results),
        step_scales=tuple(result.step_scales for result in results),
        config=config,
        priors=priors,
        kernel=INDEPENDENCE if independent else RANDOM_WALK,
    )


def save_trace(posterior: PosteriorDraws, path) -> None:
    """Write a trace file: one JSON metadata comment line, then CSV draws."""
    config = posterior.config
    metadata = {
        "format": TRACE_FORMAT,
        "rng": posterior.rng_algorithm,
        "kernel": posterior.kernel,
        "seed": config.seed,
        "chains": config.chains,
        "draws": config.draws,
        "tune": config.tune,
        "priors": posterior.priors.to_json(),
        "acceptance_rates": list(posterior.acceptance_rates),
        "step_scales": [list(s) for s in posterior.step_scales],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# " + json.dumps(metadata) + "\n")
        handle.write(TRACE_HEADER + "\n")
        for chain_index in range(config.chains):
            # repr round-trips float64 exactly, so load_trace is bit-identical.
            chain = posterior.draws[chain_index].tolist()
            for draw_index, (T, S, mu, alpha) in enumerate(chain):
                handle.write(
                    f"{chain_index},{draw_index},{T!r},{S!r},{mu!r},{alpha!r}\n"
                )


def load_trace(path) -> PosteriorDraws:
    """Read a trace file written by save_trace back into PosteriorDraws.

    Raises ParseError, naming the file, unless its metadata, format tag,
    kernel name, header, row count and (chain, draw) row order are as
    save_trace writes and every draw is finite and inside the support and
    the location box (``PosteriorDraws``). A trace without a kernel name was
    written before there was a choice, so it ran the random walk.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
            if not first.startswith("# "):
                raise ValueError("trace file must start with a JSON metadata line")
            metadata = json.loads(first[2:])
            if not isinstance(metadata, dict) or metadata.get("format") != TRACE_FORMAT:
                raise ValueError(f"format tag is not {TRACE_FORMAT!r}")
            if handle.readline().rstrip("\n") != TRACE_HEADER:
                raise ValueError(f"column header is not {TRACE_HEADER!r}")
            rows = handle.readlines()
        config = ChainConfig(
            chains=int(metadata["chains"]),
            draws=int(metadata["draws"]),
            tune=int(metadata["tune"]),
            seed=int(metadata["seed"]),
        )
        shape = (config.chains, config.draws)
        if len(rows) != shape[0] * shape[1]:
            raise ValueError(f"{len(rows)} rows, expected {shape[0]} chains x {shape[1]} draws")
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
        if table.shape[1] != 6 or not np.array_equal(
            table[:, :2], np.indices(shape).reshape(2, -1).T
        ):
            raise ValueError("rows are not six columns in (chain, draw) order")
        return PosteriorDraws(
            draws=table[:, 2:].reshape(*shape, 4),
            acceptance_rates=tuple(float(r) for r in metadata["acceptance_rates"]),
            step_scales=tuple(tuple(float(x) for x in s) for s in metadata["step_scales"]),
            config=config,
            priors=PriorSpec.from_json(metadata["priors"]),
            rng_algorithm=str(metadata["rng"]),
            kernel=metadata.get("kernel", RANDOM_WALK),
        )
    except KeyError as err:
        raise ParseError(f"{path}: not a valid trace file: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise ParseError(f"{path}: not a valid trace file: {err}") from None
