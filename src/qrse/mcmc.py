"""Random-walk Metropolis-Hastings sampling of the parameter posterior.

The target combines the pointwise log-likelihood of the cleaned returns data
with truncated-normal priors on the two scales (T, S) and normal priors on
the two locations (mu, alpha). Proposals are Gaussian random-walk steps with
a per-coordinate scale vector and, by default, a fixed correlation taken
from the Laplace approximation at the posterior mode; scales adapt in
windows of 100 steps during a tune phase and are frozen afterwards, so the
recorded draws come from a fixed kernel.

Everything is deterministic given (data, priors, config): chains use a
counter-based generator keyed by seed + chain_index, and initial points are
jittered around the posterior mode. Each target evaluation takes log Z from
``local_log_z``, on a grid built around that proposal's mu, unless the
caller passes one fixed grid. The data is checked for NaN and infinity once,
when the target is built, not on every step.

``run_chains`` runs the chains in parallel lanes, one per CPU the process
may use (``os.sched_getaffinity``), at most one per chain: chain i runs in
lane i % lanes, lane 0 in the calling process and each other lane in a
forked process. Every start and Generator is made in the calling process
before any lane runs, and a chain's draws are a pure function of them, so
the output is bit-identical at any lane count, including one.

The sampled posterior is truncated to mu and alpha within CORNER_SDS prior
sds of their centers, and the sampler rejects proposals outside that box.
Before any chain runs, ``run_chains`` builds the local grid at the box's
corners with the two extreme ratios of T to S, so a prior whose local grid
would be too large or clip the density fails at startup, not mid-chain.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfSupport, ParseError, QrseError, StuckChain
from .model import DEFAULT_GRID_POINTS, EvalGrid, QrseParams, build_density, log_likelihood
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

# How many prior standard deviations out the location corners sit when the
# partition-function grid is checked at startup.
CORNER_SDS = 4.0

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

TRACE_FORMAT = "qrse-trace-v1"
TRACE_HEADER = "chain,draw,T,S,mu,alpha"


def _normal_logpdf(x: float, center: float, sd: float) -> float:
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
        from scipy.special import ndtr

        mass = float(
            ndtr((self.bound_high - center) / sd) - ndtr((self.bound_low - center) / sd)
        )
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
        return (
            _normal_logpdf(params.T, self.t_center, self.t_sd)
            - self._t_log_mass
            + _normal_logpdf(params.S, self.s_center, self.s_sd)
            - self._s_log_mass
            + _normal_logpdf(params.mu, self.mu_center, self.mu_sd)
            + _normal_logpdf(params.alpha, self.alpha_center, self.alpha_sd)
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
    ``step_scales`` holds each chain's frozen post-tune proposal scales.
    """

    draws: np.ndarray
    acceptance_rates: tuple[float, ...]
    step_scales: tuple[tuple[float, float, float, float], ...]
    config: ChainConfig
    priors: PriorSpec
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 3 or draws.shape[2] != 4:
            raise ValueError("draws must have shape (chains, draws, 4)")
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


def _check_local_grids(priors: PriorSpec) -> None:
    """Build the local log Z grid where the support makes it largest.

    Its point count grows with max(T, S) / min(T, S), which peaks at the
    truncation corners (low, high) and (high, low); the density's edge
    mass there is checked at the corners of the location box.

    Raises
    ------
    GridTooLarge
        If the grid at those corners would exceed MAX_LOCAL_POINTS.
    GridTooNarrow
        If its outermost cell holds more than EDGE_MASS_LIMIT.
    """
    low, high = priors.bound_low, priors.bound_high
    mu_corners, alpha_corners = _location_box(priors)
    for T, S in ((low, high), (high, low)):
        for mu in mu_corners:
            for alpha in alpha_corners:
                corner = QrseParams(T=T, S=S, mu=mu, alpha=alpha)
                build_density(corner, EvalGrid.local(corner))


def log_posterior(
    params: QrseParams,
    data,
    priors: PriorSpec,
    grid: EvalGrid | None = None,
    *,
    _finite: bool = False,
) -> float:
    """Log prior plus log-likelihood; prior only when data is empty.

    With ``grid=None`` (what the sampler uses), log Z comes from
    ``local_log_z`` at ``params``; an explicit grid is used as given.
    ``_finite`` is passed on to ``log_likelihood``.

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
    return prior + log_likelihood(values, params, grid, _finite=_finite)


def _make_target(data, priors: PriorSpec, grid: EvalGrid | None):
    """The sampler's log target, on data checked here once, not per step.

    Raises
    ------
    ValueError
        If the data holds a NaN or an infinity.
    """
    values = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("the sampler requires finite observations")
    (mu_low, mu_high), (alpha_low, alpha_high) = _location_box(priors)

    def target(theta: np.ndarray) -> float:
        if not priors.in_support(theta[0], theta[1]):
            return -math.inf
        if not (mu_low <= theta[2] <= mu_high and alpha_low <= theta[3] <= alpha_high):
            return -math.inf
        params = QrseParams(T=theta[0], S=theta[1], mu=theta[2], alpha=theta[3])
        return log_posterior(params, values, priors, grid, _finite=True)

    return target


def _posterior_mode(target, priors: PriorSpec) -> np.ndarray:
    """Interior maximum of the target, found by simplex descent from the
    prior centers (clipped into the truncation interval)."""
    from scipy.optimize import minimize

    inset = 1e-3 * (priors.bound_high - priors.bound_low)
    start = priors.centers()
    start[:2] = np.clip(start[:2], priors.bound_low + inset, priors.bound_high - inset)
    result = minimize(
        lambda theta: -target(theta),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    return np.asarray(result.x, dtype=float)


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
    """
    d = mode.size
    factor = 2.4 / math.sqrt(d)
    steps = np.maximum(1e-4 * np.abs(mode), 1e-5)
    center_value = target(mode)
    hessian = np.empty((d, d))
    for j in range(d):
        unit = np.zeros(d)
        unit[j] = steps[j]
        plus = target(mode + unit)
        minus = target(mode - unit)
        hessian[j, j] = (plus - 2.0 * center_value + minus) / steps[j] ** 2
    for j in range(d):
        for k in range(j + 1, d):
            shift_j = np.zeros(d)
            shift_j[j] = steps[j]
            shift_k = np.zeros(d)
            shift_k[k] = steps[k]
            mixed = (
                target(mode + shift_j + shift_k)
                - target(mode + shift_j - shift_k)
                - target(mode - shift_j + shift_k)
                + target(mode - shift_j - shift_k)
            ) / (4.0 * steps[j] * steps[k])
            hessian[j, k] = mixed
            hessian[k, j] = mixed
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
) -> ChainResult:
    """One Metropolis-Hastings chain.

    Proposals are Gaussian random-walk steps whose per-coordinate sds are
    ``step_scales``. ``proposal_cholesky``, when given, is the lower
    Cholesky factor of a fixed proposal correlation matrix, letting the
    walk jump obliquely through correlated regions; None means independent
    coordinates. During the first ``tune`` steps every scale is multiplied
    by 1.1 when the rolling 100-step acceptance exceeds 0.5 and by 0.9
    when it falls below 0.2 (the correlation never adapts). After tuning
    the scales never change, and exactly ``draws`` states are recorded.
    ``seed`` may be an integer or an already-constructed numpy Generator.

    Raises
    ------
    GridTooLarge
        If a proposal's local log Z grid would be too large (no explicit
        grid; ``run_chains`` rules this out before any chain runs).
    StuckChain
        If the post-tune acceptance rate is below STUCK_ACCEPTANCE.
    """
    values = np.asarray(data, dtype=float)
    target = _make_target(values, priors, grid)
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)

    state = initial.as_array()
    log_p = target(state)
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
        log_p_proposal = target(proposal)
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
    acceptance = post_tune_accepts / draws
    if acceptance < STUCK_ACCEPTANCE:
        raise StuckChain(
            f"post-tune acceptance {acceptance:.4f} below {STUCK_ACCEPTANCE}"
        )
    return ChainResult(
        draws=out, acceptance_rate=acceptance, step_scales=tuple(float(s) for s in scales)
    )


def _lane_count(chains: int) -> int:
    """How many processes share the chains: one per CPU this process may
    run on, at most one per chain. Lanes need ``os.sched_getaffinity`` and
    the fork start method (Linux), so elsewhere every chain runs here."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(chains, len(os.sched_getaffinity(0)))


def _run_lane(chain_args: list[tuple], indices) -> list[tuple[int, object]]:
    """(index, ChainResult or the exception raised) for each chain in turn.

    The lane stops at its first failure: its later chains have higher
    indices, so they cannot change which failure ``run_chains`` raises.
    """
    outcomes = []
    for index in indices:
        try:
            outcomes.append((index, run_chain(*chain_args[index])))
        except Exception as err:  # sent to the parent, which raises it
            outcomes.append((index, err))
            break
    return outcomes


def _lane_main(writer, chain_args: list[tuple], indices) -> None:
    writer.send(_run_lane(chain_args, indices))


def _run_lanes(chain_args: list[tuple], lanes: int) -> dict[int, object]:
    """Every chain's outcome, with chain i run in lane i % lanes.

    Lane 0 is this process. Each other lane is a forked process that
    inherits the chain arguments and sends its outcomes back over a
    one-way pipe. A lane that exits without sending gets a QrseError for
    each of its chains. Every lane is joined before this returns or raises.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for lane in range(1, lanes):
            indices = range(lane, len(chain_args), lanes)
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_lane_main, args=(writer, chain_args, indices), daemon=True
            )
            # NumPy's OpenBLAS pool is the only other thread here, and
            # OpenBLAS stops it before a fork (pthread_atfork), so the child
            # inherits no lock a missing thread holds.
            process.start()
            writer.close()  # else the reader never sees EOF from a dead lane
            children.append((process, reader, indices))
        outcomes = dict(_run_lane(chain_args, range(0, len(chain_args), lanes)))
        for lane, (process, reader, indices) in enumerate(children, start=1):
            try:
                outcomes.update(reader.recv())
            except (EOFError, OSError):
                process.join()
                lost = QrseError(
                    f"sampler lane {lane} (chains {', '.join(map(str, indices))}) "
                    f"exited with status {process.exitcode} before returning its draws"
                )
                outcomes.update((index, lost) for index in indices)
    except BaseException:
        for process, _, _ in children:
            process.terminate()
        raise
    finally:
        for process, reader, _ in children:
            process.join()
            reader.close()
    return outcomes


def run_chains(
    data, priors: PriorSpec, config: ChainConfig, grid: EvalGrid | None = None
) -> PosteriorDraws:
    """Run config.chains independent chains and assemble the posterior draws.

    Chain i is keyed by seed + i (the seed split rule). Unless the config
    carries explicit initial points, chains start at the posterior mode
    jittered by up to 10 percent of each prior sd; unless it carries
    explicit step scales, the Laplace approximation at the mode sets both
    the scales and the proposal correlation (explicit scales imply
    independent proposal coordinates).

    The data is checked for NaN and infinity before the mode search, not
    on every step. Every start and Generator is made here, in chain order. The chains then run in
    ``_lane_count`` lanes, chain i in lane i % lanes: lane 0 in this
    process, each other lane in a forked process. A chain's draws depend
    only on its data, priors, start, scales and Generator, so the result is
    bit-identical at any lane count. With one lane no process is started.

    Raises
    ------
    ValueError
        If the data holds a NaN or an infinity.
    GridTooLarge, GridTooNarrow
        From the startup check of the local log Z grid (no explicit grid).
    StuckChain
        Re-raised with the chain index attached.
    QrseError
        If a lane's process exits without returning its chains' draws.

    When several chains fail, the one with the lowest index is raised.
    """
    values = np.asarray(data, dtype=float)
    target = _make_target(values, priors, grid)
    if grid is None and values.size:
        _check_local_grids(priors)

    mode = None
    if config.initial is None or config.step_scales is None:
        mode = _posterior_mode(target, priors)
    if config.step_scales is None:
        scales, proposal_cholesky = _laplace_proposal(target, mode, priors)
    else:
        scales = np.asarray(config.step_scales, dtype=float)
        proposal_cholesky = None

    inset = 1e-6 * (priors.bound_high - priors.bound_low)
    chain_args = []
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
        chain_args.append(
            (values, priors, start, scales, config.draws, config.tune, rng,
             grid, proposal_cholesky)
        )

    lanes = _lane_count(config.chains)
    if lanes == 1:
        outcomes = dict(_run_lane(chain_args, range(config.chains)))
    else:
        outcomes = _run_lanes(chain_args, lanes)
    results = []
    for index in range(config.chains):
        outcome = outcomes[index]
        if isinstance(outcome, StuckChain):
            raise StuckChain(f"chain {index}: {outcome}") from None
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return PosteriorDraws(
        draws=np.stack([result.draws for result in results]),
        acceptance_rates=tuple(result.acceptance_rate for result in results),
        step_scales=tuple(result.step_scales for result in results),
        config=config,
        priors=priors,
    )


def save_trace(posterior: PosteriorDraws, path) -> None:
    """Write a trace file: one JSON metadata comment line, then CSV draws."""
    config = posterior.config
    metadata = {
        "format": TRACE_FORMAT,
        "rng": posterior.rng_algorithm,
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
    header, row count and (chain, draw) row order are as save_trace writes.
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
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: not a valid trace file: {err}") from None
