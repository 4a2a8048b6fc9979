"""Metropolis-Hastings sampling of the parameter posterior.

The target combines the pointwise log-likelihood of the cleaned returns data
with truncated-normal priors on the two scales (T, S) and normal priors on
the two locations (mu, alpha). ``run_chains`` finds the posterior mode and
the Laplace approximation there, then runs one of two kernels:

- the independence kernel ("independence-t5"), whenever there is data, the
  config carries no explicit step scales and the Laplace covariance is
  usable: every proposal is drawn from one multivariate t with 5 degrees of
  freedom, centred at the mode, with scale matrix 1.2^2 times the Laplace
  covariance. Its heavier tails keep the ratio of target to proposal
  bounded, which makes the kernel uniformly ergodic (Tierney 1994, Ann.
  Statist. 22(4); Mengersen & Tweedie 1996, Ann. Statist. 24(1)). The tune
  steps are burn-in;
- the random walk ("random-walk") otherwise: Gaussian steps with a
  per-coordinate scale vector and, when the Laplace fit gives one, its
  correlation. Scales adapt in windows of 100 steps during the tune phase
  and are frozen afterwards, so the recorded draws come from a fixed kernel.

Everything is deterministic given (data, priors, config): chains use a
counter-based generator keyed by seed + chain_index, and initial points are
jittered around the posterior mode. The sampler has one target,
``_log_targets``, which evaluates the log posterior at a block of rows; each
row takes log Z from ``local_log_z``'s grid around its own mu, unless the
caller passes one fixed grid. The data is checked for NaN and infinity once,
when the target is built, not on every evaluation.

``run_chains`` spreads its work over parallel lanes, one per CPU the
process may use (``os.sched_getaffinity``): lane 0 is the calling process
and each other lane a forked process. One dealer serves both kernels: it
splits a list of jobs into equal contiguous slices, one per lane, and
makes one call per lane on its slice. An independence chain's proposals do
not depend on its state, so every chain draws its proposals first; the
jobs are then the target evaluations of all chains, and each lane's call
is ``_log_targets`` on its slice. Each chain's accept/reject sweep runs
afterwards in the calling process. For the random walk the jobs are whole
chains, so with 3 chains on 2 lanes lane 0 runs chain 0 and lane 1 chains 1
and 2. The mode search and the random walk evaluate one row at a time, and
the Laplace fit its whole 33-point stencil in one call. Either way every
start, proposal and Generator is made in the calling process before any
lane runs, and each target value is a pure function of its row, so the
output is bit-identical at any lane count, including one.

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

from .errors import OutOfSupport, ParseError, QrseError, StuckChain
from .model import (
    DEFAULT_GRID_POINTS,
    EvalGrid,
    QrseParams,
    _log_likelihood_rows,
    build_density,
    log_likelihood,
)
from .synthetic import RNG_ALGORITHM, rng_from_seed

DEFAULT_SCALE_SD = 2.0
DEFAULT_LOCATION_SD = 10.0
TRUNCATION_LOW = 0.1
TRUNCATION_HIGH = 8.0

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

# How many prior standard deviations out the location corners sit when the
# partition-function grid is checked at startup.
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
    Both normalizers are computed once, at construction.
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
            raise ValueError("truncation bounds must satisfy 0 < low < high")
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
        if self.step_scales is not None:
            if len(self.step_scales) != 4 or any(s < 0.0 for s in self.step_scales):
                raise ValueError("step_scales must be four nonnegative numbers")


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Post-tune draws from every chain plus sampler diagnostics.

    ``draws`` has shape (chains, draws, 4) with columns (T, S, mu, alpha).
    ``step_scales`` holds each chain's frozen post-tune proposal scales (for
    the independence kernel, the proposal's per-coordinate scales).
    ``kernel`` names the kernel that ran, one of KERNELS. The chain and
    draw counts of ``draws``, ``config``, ``acceptance_rates`` and
    ``step_scales`` must agree.
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
        if len(self.step_scales) != chains or any(len(s) != 4 for s in self.step_scales):
            raise ValueError(f"need four step scales per chain ({chains})")
        low, high = self.priors.bound_low, self.priors.bound_high
        scales_stored = draws[:, :, :2]
        if np.any(scales_stored < low) or np.any(scales_stored > high):
            raise ValueError("stored T or S violates the prior truncation bounds")
        if any(not (0.0 <= r <= 1.0) for r in self.acceptance_rates):
            raise ValueError("acceptance rates must lie in [0, 1]")
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)

    def pooled(self, index: int) -> np.ndarray:
        """All chains' draws for one parameter, flattened."""
        return self.draws[:, :, index].reshape(-1)


def _location_box(priors: PriorSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """(low, high) for mu, then for alpha: CORNER_SDS prior sds either side."""
    mu_pad, alpha_pad = CORNER_SDS * priors.mu_sd, CORNER_SDS * priors.alpha_sd
    return (
        (priors.mu_center - mu_pad, priors.mu_center + mu_pad),
        (priors.alpha_center - alpha_pad, priors.alpha_center + alpha_pad),
    )


def build_sampling_grid(
    data, priors: PriorSpec, n_points: int = DEFAULT_GRID_POINTS
) -> EvalGrid:
    """One fixed partition-function grid for a whole MCMC run, for callers
    who pass ``grid=`` instead of the default per-proposal grid.

    Spans the data range and the prior's extreme corners (the corners of
    the location box, scales at the upper truncation bound), then verifies
    the edge-mass limit at those corners so that no in-support proposal
    can need a wider grid.
    """
    values = np.asarray(data, dtype=float)
    mu_corners, alpha_corners = _location_box(priors)
    points = mu_corners + alpha_corners
    if values.size:
        points += (float(np.min(values)), float(np.max(values)))
    grid = EvalGrid.spanning(points, priors.bound_high, n_points=n_points)
    for mu in mu_corners:
        for alpha in alpha_corners:
            corner = QrseParams(
                T=priors.bound_high, S=priors.bound_high, mu=mu, alpha=alpha
            )
            build_density(corner, grid)  # raises GridTooNarrow if the span is short
    return grid


def _check_local_grids(values: np.ndarray, priors: PriorSpec) -> None:
    """Build the largest local log Z grid the support allows and evaluate
    the public ``log_posterior`` of ``values`` on it.

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
    log_posterior(corner, values, priors, EvalGrid.local(corner))


def log_posterior(
    params: QrseParams,
    data,
    priors: PriorSpec,
    grid: EvalGrid | None = None,
) -> float:
    """Log prior plus log-likelihood; prior only when data is empty.

    With ``grid=None``, log Z comes from ``local_log_z`` at ``params``; an
    explicit grid is used as given. The sampler's target is
    ``_log_targets``, which gives these bits at every point of the support
    and the location box; the sampler calls this once, in its start-up
    check (``_check_local_grids``).

    Raises
    ------
    OutOfSupport
        If T or S violates the prior truncation bounds (callers treat this
        as -inf and auto-reject).
    ValueError
        If the data holds a NaN or an infinity.
    """
    prior = priors.log_density(params)
    values = np.asarray(data, dtype=float)
    if values.size == 0:
        return prior
    return prior + log_likelihood(values, params, grid)


def _make_target(data, priors: PriorSpec, grid: EvalGrid | None):
    """The sampler's log target: ``_log_targets`` on ``data``, which is
    checked here once, not on every evaluation. It maps an (m, 4) array of
    rows (T, S, mu, alpha) to their m log posteriors.

    Raises
    ------
    ValueError
        If the data holds a NaN or an infinity.
    """
    values = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("the sampler requires finite observations")
    return lambda points: _log_targets(points, values, priors, grid)


def _log_targets(points: np.ndarray, values: np.ndarray, priors: PriorSpec,
                 grid: EvalGrid | None) -> np.ndarray:
    """The log posterior at each row (T, S, mu, alpha) of ``points``, in a few
    calls over blocks of rows: -inf outside the support and the location
    box, and inside them log prior plus ``_log_likelihood_rows``, the bits
    of ``log_posterior`` at that point. A row's value does not depend on
    the rows around it. ``values`` must be finite.
    """
    (mu_low, mu_high), (alpha_low, alpha_high) = _location_box(priors)
    low = (priors.bound_low, priors.bound_low, mu_low, alpha_low)
    high = (priors.bound_high, priors.bound_high, mu_high, alpha_high)
    inside = ((low <= points) & (points <= high)).all(axis=1)
    rows = points[inside]
    # One row (the mode search, the random walk) takes the prior in Python
    # floats: the same bits, several times faster than on 1-element arrays.
    log_p = priors._log_density(*(rows[0].tolist() if len(rows) == 1 else rows.T))
    if values.size:
        log_p = log_p + _log_likelihood_rows(values, rows, grid)
    out = np.full(len(points), -math.inf)
    out[inside] = log_p
    return out


def _posterior_mode(target, priors: PriorSpec) -> np.ndarray:
    """Interior maximum of the target, found by simplex descent from the
    prior centers (clipped into the truncation interval).

    The descent is ``_nelder_mead``, a bit-exact port of SciPy's
    Nelder-Mead, so the mode and every draw started from it are those
    SciPy would give, without ``sample`` importing SciPy.
    """
    inset = 1e-3 * (priors.bound_high - priors.bound_low)
    start = priors.centers()
    start[:2] = np.clip(start[:2], priors.bound_low + inset, priors.bound_high - inset)
    x, _ = _nelder_mead(
        lambda theta: -target(theta[None])[0], start, xatol=1e-6, fatol=1e-8, maxiter=2000
    )
    return x


def _nelder_mead(
    func, x0: np.ndarray, *, xatol: float, fatol: float, maxiter: int
) -> tuple[np.ndarray, int]:
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex method.

    A port of the unbounded, non-adaptive path of ``_minimize_neldermead``
    in SciPy's ``scipy/optimize/_optimize.py`` (BSD-3-Clause, Copyright (c)
    2001-2002 Enthought, Inc. and 2003- SciPy Developers). It keeps that
    code's coefficients (reflection 1, expansion 2, contraction and shrink
    0.5), its initial simplex (each coordinate in turn stretched by 5%, or
    set to 0.00025 where it is zero), its stopping test (simplex within
    ``xatol`` of the best vertex and values within ``fatol`` of the best),
    its ``maxiter`` count, its argsort of the vertices after every
    iteration and the copy of each point handed to ``func``. Every
    floating-point operation is the same, so the result matches
    ``scipy.optimize.minimize(method="Nelder-Mead")`` bit for bit.

    Returns the best vertex and the number of ``func`` evaluations.
    """
    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y

    evals = 0

    def f(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return func(np.copy(x))

    fsim = np.array([f(vertex) for vertex in sim], dtype=float)
    # SciPy sorts the first simplex twice. argsort is not documented as
    # stable, so a second pass may reorder tied vertices (say, two outside
    # the support); it is kept.
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0].copy(), evals


def _laplace_proposal(
    target, mode: np.ndarray, priors: PriorSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """Proposal scales and correlation from the Laplace approximation.

    Builds the finite-difference Hessian of the log target at the mode and
    inverts its negation. The square roots of the diagonal give marginal
    sds (per-coordinate curvature alone would give conditional sds, which
    undersize the steps along correlated directions); these are scaled by
    the 2.4/sqrt(d) random-walk rule. The off-diagonal structure is
    returned as the lower Cholesky factor of the correlation matrix so the
    walk can jump along the posterior's principal axes; mu and alpha in
    particular are strongly coupled, and axis-aligned jumps mix too slowly
    to satisfy the usual R-hat bar within a few thousand draws.

    Falls back to per-coordinate curvature with no correlation when the
    Hessian is unusable (boundary mode, saddle), and to a tenth of the
    prior sd per dimension where even that fails.

    ``target`` maps rows to log targets, and the central-difference stencil
    (the mode, mode +- step j, and mode +- step j +- step k for j < k: 33
    points in 4 dimensions) is one call.
    """
    d = mode.size
    factor = 2.4 / math.sqrt(d)
    steps = np.maximum(1e-4 * np.abs(mode), 1e-5)
    shifts = np.diag(steps)
    plus, minus = mode + shifts, mode - shifts
    j, k = np.triu_indices(d, 1)
    stencil = np.concatenate([
        mode[None], plus, minus,
        plus[j] + shifts[k], plus[j] - shifts[k], minus[j] + shifts[k], minus[j] - shifts[k],
    ])
    # Python floats: at a boundary mode some points lie outside the support,
    # and -inf - -inf gives, without a warning, the NaN the fallback looks for.
    value = target(stencil).tolist()
    hessian = np.empty((d, d))
    for i in range(d):
        hessian[i, i] = (value[1 + i] - 2.0 * value[0] + value[1 + d + i]) / steps[i] ** 2
    for pair, (a, b) in enumerate(zip(j.tolist(), k.tolist())):
        pp, pm, mp, mm = value[1 + 2 * d + pair::len(j)]
        hessian[a, b] = hessian[b, a] = (pp - pm - mp + mm) / (4.0 * steps[a] * steps[b])
    if np.all(np.isfinite(hessian)):
        try:
            # Cholesky doubles as the negative-definiteness check
            np.linalg.cholesky(-hessian)
            covariance = np.linalg.inv(-hessian)
            sds = np.sqrt(np.diag(covariance))
            correlation = covariance / np.outer(sds, sds)
            return factor * sds, np.linalg.cholesky(correlation)
        except np.linalg.LinAlgError:
            pass
    scales = np.empty(d)
    for j in range(d):
        second = hessian[j, j]
        if math.isfinite(second) and second < 0.0:
            scales[j] = factor / math.sqrt(-second)
        else:
            scales[j] = 0.1 * priors.sds()[j]
    return scales, None


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
    grid: EvalGrid | None = None,
    proposal_cholesky: np.ndarray | None = None,
    *,
    proposals: tuple[np.ndarray, np.ndarray] | None = None,
) -> ChainResult:
    """One Metropolis-Hastings chain.

    Without ``proposals`` this is the random walk. Proposals are Gaussian
    steps whose per-coordinate sds are ``step_scales``.
    ``proposal_cholesky``, when given, is the lower Cholesky factor of a
    fixed proposal correlation matrix, letting the walk jump obliquely
    through correlated regions; None means independent coordinates. During
    the first ``tune`` steps every scale is multiplied by 1.1 when the
    rolling 100-step acceptance exceeds 0.5 and by 0.9 when it falls below
    0.2 (the correlation never adapts). After tuning the scales never
    change, and exactly ``draws`` states are recorded.

    With ``proposals`` this is the accept/reject sweep of the independence
    kernel, and no target is evaluated here. ``proposals`` is
    ``(points, log_weights)``: row 0 of ``points`` is ``initial`` and row
    k the proposal at step k - 1, and each log weight is the log target at
    that point minus the log proposal density there (up to one constant).
    A proposal is accepted with probability min(1, exp(its log weight minus
    the current state's)). The first ``tune`` steps are burn-in;
    ``step_scales`` is returned as the chain's scales, and ``grid`` and
    ``proposal_cholesky`` are not used.

    ``seed`` may be an integer or an already-constructed numpy Generator;
    either kernel draws one uniform per step from it.

    Raises
    ------
    GridTooLarge
        If a proposal's local log Z grid would be too large (no explicit
        grid; ``run_chains`` rules this out before any chain runs).
    StuckChain
        If the post-tune acceptance rate is below STUCK_ACCEPTANCE.
    """
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    if proposals is not None:
        out, post_tune_accepts = _independence_sweep(*proposals, draws, tune, rng)
        scales = step_scales
    else:
        out, post_tune_accepts, scales = _random_walk(
            _make_target(data, priors, grid), initial, step_scales, draws, tune, rng,
            proposal_cholesky,
        )
    acceptance = post_tune_accepts / draws
    if acceptance < STUCK_ACCEPTANCE:
        raise StuckChain(
            f"post-tune acceptance {acceptance:.4f} below {STUCK_ACCEPTANCE}"
        )
    return ChainResult(
        draws=out, acceptance_rate=acceptance, step_scales=tuple(float(s) for s in scales)
    )


def _random_walk(target, initial, step_scales, draws, tune, rng, proposal_cholesky):
    """The random-walk chain: (recorded states, post-tune accepts, final scales)."""
    state = initial.as_array()
    log_p = target(state[None])[0]
    if not math.isfinite(log_p):
        raise ValueError("initial point has non-finite log posterior")
    scales = np.asarray(step_scales, dtype=float).copy()

    out = np.empty((draws, 4))
    window_accepts = 0
    post_tune_accepts = 0
    for step in range(tune + draws):
        jump = rng.standard_normal(4)
        if proposal_cholesky is not None:
            jump = proposal_cholesky @ jump
        proposal = state + jump * scales
        log_p_proposal = target(proposal[None])[0]
        if math.log(rng.random()) < log_p_proposal - log_p:
            state = proposal
            log_p = log_p_proposal
            window_accepts += 1
            if step >= tune:
                post_tune_accepts += 1
        if step < tune:
            if (step + 1) % ADAPT_WINDOW == 0:
                rate = window_accepts / ADAPT_WINDOW
                if rate > ACCEPT_HIGH:
                    scales *= ADAPT_GROW
                elif rate < ACCEPT_LOW:
                    scales *= ADAPT_SHRINK
                window_accepts = 0
        else:
            out[step - tune] = state
    return out, post_tune_accepts, scales


def _independence_sweep(points, log_weights, draws, tune, rng):
    """The independence chain over precomputed weights: (recorded states,
    post-tune accepts)."""
    if not (len(points) == len(log_weights) == 1 + tune + draws):
        raise ValueError("proposals need 1 + tune + draws points and log weights")
    if not math.isfinite(log_weights[0]):
        raise ValueError("initial point has non-finite log posterior")
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


def _lane_main(writer, fn, jobs) -> None:
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
    """
    count = len(jobs)
    lanes = _lane_count(count)
    if lanes <= 1:
        return [fn(jobs)]
    import multiprocessing

    bounds = [count * lane // lanes for lane in range(lanes + 1)]
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for lane in range(1, lanes):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_lane_main,
                args=(writer, fn, jobs[bounds[lane]:bounds[lane + 1]]),
                daemon=True,
            )
            # NumPy's OpenBLAS pool is the only other thread here, and
            # OpenBLAS stops it before a fork (pthread_atfork), so the child
            # inherits no lock a missing thread holds.
            process.start()
            writer.close()  # else the reader never sees EOF from a dead lane
            children.append((process, reader))
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
        for process, reader in children:
            process.join()
            reader.close()
    return results


def run_chains(
    data, priors: PriorSpec, config: ChainConfig, grid: EvalGrid | None = None
) -> PosteriorDraws:
    """Run config.chains independent chains and assemble the posterior draws.

    Chain i is keyed by seed + i (the seed split rule). Unless the config
    carries explicit initial points, chains start at the posterior mode
    jittered by up to 10 percent of each prior sd. Unless it carries
    explicit step scales, the Laplace approximation at the mode sets the
    proposal; explicit scales imply a random walk with independent
    proposal coordinates.

    The kernel is the independence sampler when there is data, the config
    carries no step scales and the Laplace Hessian is negative definite.
    Its proposals are a multivariate t with PROPOSAL_DOF degrees of
    freedom, centred at the mode, with scale matrix 1.2^2 times the Laplace
    covariance; the tune steps are burn-in. Otherwise (no data, explicit
    scales, or a Laplace fit that fell back to per-coordinate curvature, as
    at a boundary mode or a saddle) it is the random walk of ``run_chain``.
    ``PosteriorDraws.kernel`` records which ran.

    The data is checked for NaN and infinity before the mode search, not
    on every step. Every start, proposal and Generator is made here, in
    chain order, and the work is then dealt over ``_lane_count`` lanes in
    equal contiguous slices: lane 0 in this process, each other lane in a
    forked process. For the independence kernel the slices cut the chains
    x (1 + tune + draws) target evaluations (each chain's start, then its
    proposals); each lane evaluates its slice in one ``_log_targets`` call,
    and each chain's accept/reject sweep then runs here, through
    ``run_chain``, in chain order. For the random walk they cut the list of
    chains, and each chain runs whole in its lane. Each target value
    depends only on its point, so the result is bit-identical at any lane
    count. With one lane no process is started.

    Raises
    ------
    ValueError
        If the data holds a NaN or an infinity.
    GridTooLarge
        From the startup check of the local log Z grid (no explicit grid).
    StuckChain
        Re-raised with the chain index attached.
    QrseError
        If a lane's process exits without returning its work.

    When several chains fail, the one with the lowest index is raised.
    """
    values = np.asarray(data, dtype=float)
    target = _make_target(values, priors, grid)
    if grid is None and values.size:
        _check_local_grids(values, priors)

    mode = None
    if config.initial is None or config.step_scales is None:
        mode = _posterior_mode(target, priors)
    if config.step_scales is None:
        scales, proposal_cholesky = _laplace_proposal(target, mode, priors)
    else:
        scales = np.asarray(config.step_scales, dtype=float)
        proposal_cholesky = None
    independent = values.size > 0 and proposal_cholesky is not None
    if independent:
        factor = scales[:, None] * proposal_cholesky  # 1.2^2 x covariance
        steps = config.tune + config.draws
        points = np.empty((config.chains, 1 + steps, 4))

    inset = 1e-6 * (priors.bound_high - priors.bound_low)
    starts, rngs = [], []
    for index in range(config.chains):
        rng = rng_from_seed(config.seed + index)
        if config.initial is not None:
            start = config.initial[index]
        else:
            jitter = rng.uniform(-0.1, 0.1, 4) * priors.sds()
            point = mode + jitter
            point[:2] = np.clip(
                point[:2], priors.bound_low + inset, priors.bound_high - inset
            )
            start = QrseParams.from_array(point)
        if independent:
            points[index, 0] = start.as_array()
            points[index, 1:] = _t_proposals(rng, mode, factor, steps)
        starts.append(start)
        rngs.append(rng)

    def chain(index: int, **kwargs) -> ChainResult:
        try:
            return run_chain(
                values, priors, starts[index], scales, config.draws, config.tune,
                rngs[index], grid, proposal_cholesky, **kwargs,
            )
        except StuckChain as err:
            raise StuckChain(f"chain {index}: {err}") from None

    if independent:
        flat = points.reshape(-1, 4)
        targets = np.concatenate(_deal(target, flat, "target evaluations"))
        log_weights = (targets - _t_log_density(flat, mode, factor)).reshape(config.chains, -1)
        results = [chain(i, proposals=(points[i], log_weights[i])) for i in range(config.chains)]
    else:
        lanes = _deal(lambda indices: [chain(i) for i in indices], range(config.chains), "chains")
        results = [result for lane in lanes for result in lane]
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
    save_trace writes. A trace without a kernel name was written before
    there was a choice, so it ran the random walk.
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
