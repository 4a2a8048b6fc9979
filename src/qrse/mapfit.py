"""MAP point estimation by KL-divergence minimization against a histogram.

The objective compares model bin probabilities with observed relative
frequencies. The divergence is directed with the model in the first slot,

    KL = sum_i p_hat_i * ln(p_hat_i / max(fbar_i, floor)),

matching the fitting objective as stated for this model family; a reverse
flag exposes the opposite direction, which is the one that coincides with
likelihood maximization.

The fit works in theta = (log T, log S, mu, alpha), so the scales stay
positive by construction, on one fixed grid for the whole box. There the
binned KL is a smooth function of the grid's cell masses, a softmax of the
log kernel, so ``_BinnedKL`` gives its exact gradient and Hessian next to
its value, and its value is the same bits as ``bin_probabilities`` followed
by ``kl_divergence``. Each start runs ``_newton``, a projected,
Levenberg-damped Newton search on the box (Bertsekas 1982, SIAM J. Control
Optim. 20(2)). Without an explicit start, extra starts come from a Latin
hypercube over the box. Nothing here imports SciPy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch, NegativeDivergence, NoDescent
from .ingest import HistogramSpec
from .model import (
    EvalGrid,
    QrseParams,
    _fold_bins,
    _kernel_derivatives,
    _kernel_rows,
    _log_partition,
    bin_probabilities,
)
from .synthetic import check_integer, rng_from_seed

FREQUENCY_FLOOR = 1e-10
# The scale box in data units (``data_unit``). QRSE data inside it have an
# sd of at most 11.24 (at T = 0.1, S = 8, mu = alpha), so their unit is 1.
DEFAULT_SCALE_BOUNDS = (0.1, 8.0)
UNIT_SD = 16.0
DEFAULT_RESTARTS = 8


@dataclass(frozen=True)
class MapResult:
    """Best-found parameters with fit scores and search bookkeeping.

    ``iterations`` totals the Newton steps over all starts; ``converged``
    says that the winning start stopped because the KL no longer fell at
    float64 precision, not at its step cap; ``restarts_used`` counts starts
    beyond the first.
    """

    params: QrseParams
    kl: float
    soofi_id: float
    iterations: int
    converged: bool
    restarts_used: int

    def __post_init__(self) -> None:
        if self.kl < 0.0:
            raise ValueError(f"kl must be nonnegative, got {self.kl!r}")
        if abs(self.soofi_id - (-math.expm1(-self.kl))) > 1e-12:
            raise ValueError("soofi_id is inconsistent with kl")
        check_integer("iterations", self.iterations)
        check_integer("restarts_used", self.restarts_used)
        if not isinstance(self.converged, bool):
            raise ValueError(f"converged must be a boolean, got {self.converged!r}")

    def to_json(self) -> dict:
        return {
            **asdict(self.params),
            "kl": self.kl,
            "soofi_id": self.soofi_id,
            "iterations": self.iterations,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MapResult":
        return cls(
            params=QrseParams(**{name: float(payload[name]) for name in ("T", "S", "mu", "alpha")}),
            kl=float(payload["kl"]),
            soofi_id=float(payload["soofi_id"]),
            iterations=payload["iterations"],
            converged=payload["converged"],
            restarts_used=payload["restarts_used"],
        )


def kl_divergence(model_bins, observed_bins, reverse: bool = False) -> float:
    """Directed divergence between two binned distributions.

    Terms with a zero first-slot probability contribute nothing (the
    0 * log 0 convention); zero second-slot probabilities are floored at
    FREQUENCY_FLOOR so empty observed bins cannot blow up the sum. With
    ``reverse=True`` the slots swap, giving the likelihood-consistent
    direction.

    Raises
    ------
    LengthMismatch
        If the arrays differ in length.
    """
    p = np.asarray(model_bins, dtype=float)
    q = np.asarray(observed_bins, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"model has {p.size} bins, observed has {q.size}")
    if reverse:
        p, q = q, p
    mask = p > 0.0
    value = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], FREQUENCY_FLOOR))))
    # The frequency floor can push the sum a hair below zero when the two
    # distributions are essentially identical; clamp to the defined range.
    return max(value, 0.0)


def soofi_id(kl: float) -> float:
    """Information distinguishability 1 - exp(-kl), in [0, 1).

    Raises
    ------
    NegativeDivergence
        If kl is negative.
    """
    if kl < 0.0:
        raise NegativeDivergence(f"kl must be nonnegative, got {kl!r}")
    return -math.expm1(-kl)


def _histogram_moments(hist: HistogramSpec) -> tuple[float, float, float]:
    """(mean, sd, median) of the binned sample, evaluated at bin centers."""
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    mean = float(np.sum(hist.frequencies * centers))
    var = float(np.sum(hist.frequencies * (centers - mean) ** 2))
    cumulative = np.cumsum(hist.frequencies)
    median = float(centers[int(np.searchsorted(cumulative, 0.5))])
    return mean, math.sqrt(max(var, 0.0)), median


def data_unit(hist: HistogramSpec) -> float:
    """The least power of ten u >= 1 with the histogram's sd at most UNIT_SD u.

    The density is equivariant under x -> c x, (T, S, mu, alpha) -> c (T, S,
    mu, alpha), so the fit's scale box and the sampler's default truncation
    and prior sds are set in units of u, whatever the currency unit of x."""
    sd, unit = _histogram_moments(hist)[1], 1.0
    while sd > UNIT_SD * unit:
        unit *= 10.0
    return unit


def _default_bounds(hist: HistogramSpec):
    scales = tuple(data_unit(hist) * bound for bound in DEFAULT_SCALE_BOUNDS)
    low, high = float(hist.edges[0]), float(hist.edges[-1])
    return (scales, scales, (low, high), (low, high))


def _check_bounds(bounds) -> None:
    """Each of the four (low, high) pairs must be finite with low < high, and
    the two scale pairs positive; a ValueError names the first that is not."""
    if len(bounds) != 4:
        raise ValueError(f"bounds needs four (low, high) pairs, got {len(bounds)}")
    for name, pair in zip(("T", "S", "mu", "alpha"), bounds):
        low, high = (float(value) for value in pair)
        if not (math.isfinite(low) and math.isfinite(high) and low < high):
            raise ValueError(f"{name} bounds {tuple(pair)!r} must be finite with low < high")
        if name in ("T", "S") and not low > 0.0:
            raise ValueError(f"{name} bounds {tuple(pair)!r} must be positive")


def _params(theta) -> QrseParams:
    return QrseParams(T=math.exp(theta[0]), S=math.exp(theta[1]), mu=float(theta[2]), alpha=float(theta[3]))


class _BinnedKL:
    """The binned KL at theta = (log T, log S, mu, alpha) on one fixed grid.

    ``value`` takes the steps of ``bin_probabilities`` and ``kl_divergence``
    in their order, so it returns the same bits, and keeps what
    ``derivatives`` needs. It reads the cell masses straight from
    ``model._log_partition``'s pdf, which is normalized on the grid by
    construction. The bins are checked against the grid by the caller,
    once.

    The log kernel k has the derivatives dk and d^2k of
    ``model._kernel_derivatives``. The cell masses m are a softmax of k,
    and the bin probabilities P = B m, where B (cell CDF, interpolation at
    the edges, differences, tail folds) is linear. With phi the KL as a
    function of P, v = B^T phi'(P) and E the mean under m, the gradient is
    E[(v - E v) dk], and the Hessian is J^T diag(phi'') J with J = B (m (dk
    - E dk)), plus E[(v - E v) (dk_a - E dk_a) (dk_b - E dk_b)] and E[(v -
    E v) d^2k / dtheta_a dtheta_b].
    """

    def __init__(self, edges: np.ndarray, observed: np.ndarray, grid: EvalGrid, reverse: bool):
        self.grid, self.observed, self.reverse = grid, observed, reverse
        self.cell_edges = grid.cell_edges()
        self.clipped = np.clip(edges, self.cell_edges[0], self.cell_edges[-1])
        # Inner edge e cuts cell cut[e], share[e] of it below the edge:
        # np.interp reads 1 - share[e] of the cell CDF at index cut[e] and
        # share[e] at cut[e] + 1. The outer edges cancel in the tail folds.
        cells = grid.points.size
        inner = self.clipped[1:-1]
        cut = np.minimum(np.searchsorted(self.cell_edges, inner, side="right") - 1, cells - 1)
        share = (inner - self.cell_edges[cut]) / (self.cell_edges[cut + 1] - self.cell_edges[cut])
        self.cut, self.share = cut, share
        # B: each bin is a run of whole cells from the cell its lower edge
        # cuts (none if its edges cut one cell), moved by the cut shares.
        self.firsts = np.concatenate([[0], cut])
        self.occupied = np.diff(self.firsts, append=cells) > 0
        # B^T: a step function over the cells, which jumps at every CDF
        # entry those reads touch and at the last (the total mass).
        self.read_weights = np.concatenate([1.0 - share, share, [1.0]])
        read, self.read_slots = np.unique(np.concatenate([cut, cut + 1, [cells]]), return_inverse=True)
        self.runs = np.diff(read, prepend=0)

    def value(self, theta: np.ndarray):
        """The KL at theta, and the state ``derivatives`` takes.

        Raises GridTooNarrow as ``build_density`` does.
        """
        row = np.array([math.exp(theta[0]), math.exp(theta[1]), theta[2], theta[3]])
        # The fit grid's 4001 points are one block of _kernel_rows, so its
        # scratch ends holding t and t r over the whole grid.
        kernel, tr, t = np.empty((3, 1, self.grid.points.size))
        _kernel_rows(self.grid.points, row[None], kernel, tr, t)
        masses = _log_partition(kernel[0], self.grid.spacing)[1] * self.grid.spacing
        cumulative = np.concatenate([[0.0], np.cumsum(masses)])
        probabilities = _fold_bins(cumulative, self.cell_edges, self.clipped)
        kl = kl_divergence(probabilities, self.observed, reverse=self.reverse)
        return kl, (row, t[0], tr[0], masses, probabilities)

    def derivatives(self, state) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the KL in theta at a state from ``value``."""
        row, t, tr, m, p = state
        if self.reverse:
            live = p > FREQUENCY_FLOOR
            slope = -np.divide(self.observed, p, out=np.zeros_like(p), where=live)
        else:
            live = p > 0.0
            slope = np.log(p / np.maximum(self.observed, FREQUENCY_FLOOR), out=np.zeros_like(p), where=live)
            slope += 1.0
        # w = m (v - E v), whose sum is 0.
        w = self._pull_back(slope)
        w -= w @ m
        w *= m
        dk, second = _kernel_derivatives(self.grid.points, row, t, tr, w)
        gradient = dk @ w
        mean = dk @ m

        jac = self._push(dk * m)
        jac -= np.multiply.outer(mean, p)
        scaled = np.divide(jac, p, out=np.zeros_like(jac), where=live)
        # phi'' is 1/P, or o/P^2 in reverse: J^T diag(phi'') J without 1/P.
        hessian = (scaled * self.observed if self.reverse else jac) @ scaled.T
        # The third co-moment: sum w dk_a dk_b - E dk_a g_b - g_a E dk_b.
        hessian += (dk * w) @ dk.T
        cross = np.multiply.outer(mean, gradient)
        hessian -= cross
        hessian -= cross.T
        # E[(v - E v) d^2k].
        hessian += second
        return gradient, hessian

    def _pull_back(self, slope: np.ndarray) -> np.ndarray:
        """B^T slope: each cell's share of the slopes of the bins its mass
        goes to, a step function with a jump at every touched CDF entry."""
        jumps = slope[:-1] - slope[1:]
        steps = np.bincount(self.read_slots, np.concatenate([jumps, jumps, slope[-1:]]) * self.read_weights)
        return np.repeat(np.cumsum(steps[::-1])[::-1], self.runs)

    def _push(self, masses: np.ndarray) -> np.ndarray:
        """B applied to each row of ``masses``: the sums over each bin's
        cells, moved by the shares of the cells its inner edges cut."""
        bins = np.add.reduceat(masses, self.firsts, axis=1)
        bins *= self.occupied
        moved = masses[:, self.cut] * self.share
        bins[:, :-1] += moved
        bins[:, 1:] -= moved
        return bins


class _Search(NamedTuple):
    theta: np.ndarray
    value: float
    initial: float
    iterations: int
    converged: bool
    hessian: np.ndarray


def _newton(objective, start: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> _Search:
    """Projected Newton search with Levenberg damping on the box [lows, highs].

    ``objective.value(theta)`` gives the value to minimize and a state, and
    ``objective.derivatives(state)`` the gradient and the Hessian there,
    which the search returns at its end point.

    Coordinates are measured in units of the box's widths. A coordinate on a
    bound whose gradient points out of the box is held there (Bertsekas
    1982). The others step along the eigenvectors of their Hessian block,
    each curvature replaced by its absolute value plus a damping, so that
    every step descends; the damping is the least that keeps the step within
    a trust radius (Moré & Sorensen 1983, SIAM J. Sci. Stat. Comput. 4(3)).
    The step is projected onto the box and taken if it lowers the value.
    The radius starts at 0.3, falls to a quarter of the step when the value
    falls by less than a quarter of the fall the quadratic model predicts,
    and doubles when a step on the radius gets more than three quarters of
    it. The search stops, converged, once the predicted fall is below the
    value's float64 resolution, eps times its size or 1, whichever is
    larger (about 1 for the KL of a normalised histogram); or else after
    200 steps.
    """
    eps, tiny = float(np.finfo(float).eps), float(np.finfo(float).tiny)
    widths = highs - lows
    theta = start
    value, state = objective.value(theta)
    initial = value
    gradient, hessian = objective.derivatives(state)
    radius = 0.3
    for iteration in range(1, 201):
        free = ~(((theta <= lows) & (gradient > 0.0)) | ((theta >= highs) & (gradient < 0.0)))
        width = widths[free]
        curvatures, vectors = np.linalg.eigh(hessian[np.ix_(free, free)] * np.multiply.outer(width, width))
        curvatures = np.abs(curvatures)
        curvatures = np.maximum(curvatures, max(1e-12 * curvatures.max(initial=0.0), tiny))
        along = vectors.T @ (gradient[free] * width)
        # The step is at least |along| / (largest curvature + damping) long,
        # so a step of the radius needs at least this much damping.
        damping = max(0.0, math.sqrt(along @ along) / radius - curvatures.max(initial=0.0))
        length = math.sqrt(np.sum((along / (curvatures + damping)) ** 2))
        while length > 1.1 * radius:
            # Newton's method on 1/length(damping) = 1/radius, from below.
            shifted = curvatures + damping
            damping += (length / radius - 1.0) * length**2 / np.sum(along**2 / shifted**3)
            length = math.sqrt(np.sum((along / (curvatures + damping)) ** 2))
        step = np.zeros_like(theta)
        step[free] = -width * (vectors @ (along / (curvatures + damping)))
        fall = -(gradient @ step + 0.5 * step @ hessian @ step)
        if not fall > eps * max(abs(value), 1.0):
            return _Search(theta, value, initial, iteration, True, hessian)
        trial = np.clip(theta + step, lows, highs)
        trial_value, trial_state = objective.value(trial)
        ratio = (value - trial_value) / fall
        if ratio < 0.25:
            radius = length / 4.0
        elif ratio > 0.75 and length > 0.99 * radius:
            radius *= 2.0
        if trial_value < value:
            theta, value = trial, trial_value
            gradient, hessian = objective.derivatives(trial_state)
    return _Search(theta, value, initial, iteration, False, hessian)


def fit_map(
    hist: HistogramSpec,
    init: QrseParams | None = None,
    bounds=None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    reverse: bool = False,
) -> MapResult:
    """Minimize the binned KL divergence over (T, S, mu, alpha).

    Each start runs ``_newton`` on ``_BinnedKL``'s exact gradient and
    Hessian in (log T, log S, mu, alpha). The winner's KL is computed once
    more through ``bin_probabilities`` and must be the same bits as the
    search's.

    Parameters
    ----------
    hist : HistogramSpec
        Observed relative frequencies.
    init : QrseParams, optional
        Explicit start. When omitted, a moment-based start (mu0 = sample
        median, alpha0 = sample mean, T0 = S0 = sd/2) is used together with
        ``restarts`` Latin-hypercube starts spread over the bounds box;
        ``restarts=0`` fits from the moment start alone.
    bounds : sequence of four (low, high) pairs, optional
        Box on (T, S, mu, alpha). Defaults to (0.1, 8) times
        ``data_unit(hist)`` for the scales and the histogram span for the
        locations. Every bound must be finite, each low below its high, and
        the scale bounds positive.
    seed : int
        Seeds the Latin-hypercube start layout (Philox); the search itself
        is deterministic.
    reverse : bool
        Optimize the reverse KL direction instead.

    Raises
    ------
    ValueError
        For negative ``restarts`` or a bounds pair as above, naming it.
    NoDescent
        If every start ends worse than it began (or never evaluates finite).
    """
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts!r}")
    if bounds is None:
        bounds = _default_bounds(hist)
    _check_bounds(bounds)
    (t_lo, t_hi), (s_lo, s_hi) = bounds[0], bounds[1]
    # One fixed grid wide enough for every parameter box corner, so the
    # objective stays comparable across the whole search region and the
    # edge-mass check cannot fire inside the box.
    grid = EvalGrid.spanning(
        (float(hist.edges[0]), float(hist.edges[-1]), *bounds[2], *bounds[3]),
        max(t_hi, s_hi),
    )

    lows = np.array([math.log(t_lo), math.log(s_lo), bounds[2][0], bounds[3][0]])
    highs = np.array([math.log(t_hi), math.log(s_hi), bounds[2][1], bounds[3][1]])

    if init is not None:
        starts = [np.array([math.log(init.T), math.log(init.S), init.mu, init.alpha])]
    else:
        mean, sd, median = _histogram_moments(hist)
        scale0 = max(sd / 2.0, t_lo)
        moment_start = np.array(
            [math.log(scale0), math.log(max(sd / 2.0, s_lo)), median, mean]
        )
        starts = [moment_start]
        if restarts:
            # Latin hypercube: one start per stratum of the box in each dimension.
            rng = rng_from_seed(seed)
            strata = np.column_stack([rng.permutation(restarts) for _ in lows])
            unit = (strata + rng.random(strata.shape)) / restarts
            starts += list(lows + unit * (highs - lows))
    starts = [np.clip(s, lows, highs) for s in starts]

    # The public objective at the first start checks the bin edges against
    # the grid (EmptyBinGrid) once; the search repeats only the density's
    # own checks.
    bin_probabilities(hist.edges, _params(starts[0]), grid)
    objective = _BinnedKL(hist.edges, hist.frequencies, grid, reverse)
    best = None
    iterations = 0
    for start in starts:
        result = _newton(objective, start, lows, highs)
        iterations += result.iterations
        if not math.isfinite(result.value) or result.value > result.initial:
            continue
        if best is None or result.value < best.value:
            best = result
    if best is None:
        raise NoDescent(f"none of {len(starts)} starts improved on its initial objective")

    params = _params(best.theta)
    kl = kl_divergence(bin_probabilities(hist.edges, params, grid), hist.frequencies, reverse=reverse)
    if kl != best.value:
        raise RuntimeError(f"the search's KL {best.value!r} is not bin_probabilities' {kl!r}")
    return MapResult(
        params=params,
        kl=kl,
        soofi_id=soofi_id(kl),
        iterations=iterations,
        converged=best.converged,
        restarts_used=len(starts) - 1,
    )
