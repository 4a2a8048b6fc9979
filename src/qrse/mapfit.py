"""MAP point estimation by KL-divergence minimization against a histogram.

The objective compares model bin probabilities with observed relative
frequencies. The divergence is directed with the model in the first slot,

    KL = sum_i p_hat_i * ln(p_hat_i / max(fbar_i, floor)),

matching the fitting objective as stated for this model family; a reverse
flag exposes the opposite direction, which is the one that coincides with
likelihood maximization. Each start runs a bounded L-BFGS-B search under a
log-transform of T and S (positivity by construction) with identity
transforms for mu and alpha; without an explicit start, extra starts come
from a Latin hypercube over the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NegativeDivergence, NoDescent
from .ingest import HistogramSpec
from .model import EvalGrid, QrseParams, bin_probabilities
from .synthetic import rng_from_seed

FREQUENCY_FLOOR = 1e-10
DEFAULT_SCALE_BOUNDS = (0.1, 8.0)
DEFAULT_RESTARTS = 8


@dataclass(frozen=True)
class MapResult:
    """Best-found parameters with fit scores and optimizer bookkeeping.

    ``iterations`` totals optimizer iterations over all starts, ``converged``
    is the winning start's; ``restarts_used`` counts starts beyond the first.
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

    def to_json(self) -> dict:
        return {
            "T": self.params.T,
            "S": self.params.S,
            "mu": self.params.mu,
            "alpha": self.params.alpha,
            "kl": self.kl,
            "soofi_id": self.soofi_id,
            "iterations": self.iterations,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MapResult":
        return cls(
            params=QrseParams(
                T=float(payload["T"]),
                S=float(payload["S"]),
                mu=float(payload["mu"]),
                alpha=float(payload["alpha"]),
            ),
            kl=float(payload["kl"]),
            soofi_id=float(payload["soofi_id"]),
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
            restarts_used=int(payload["restarts_used"]),
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


def _default_bounds(hist: HistogramSpec):
    low, high = float(hist.edges[0]), float(hist.edges[-1])
    return (DEFAULT_SCALE_BOUNDS, DEFAULT_SCALE_BOUNDS, (low, high), (low, high))


def fit_map(
    hist: HistogramSpec,
    init: QrseParams | None = None,
    bounds=None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    reverse: bool = False,
) -> MapResult:
    """Minimize the binned KL divergence over (T, S, mu, alpha).

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
        Box on (T, S, mu, alpha). Defaults to (0.1, 8) for the scales and
        the histogram span for the locations.
    seed : int
        Seeds the Latin-hypercube start layout (Philox); the search itself
        is deterministic.
    reverse : bool
        Optimize the reverse KL direction instead.

    Raises
    ------
    NoDescent
        If every start ends worse than it began (or never evaluates finite).
    """
    from scipy.optimize import minimize

    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts!r}")
    if bounds is None:
        bounds = _default_bounds(hist)
    (t_lo, t_hi), (s_lo, s_hi) = bounds[0], bounds[1]
    if not (0.0 < t_lo < t_hi and 0.0 < s_lo < s_hi):
        raise ValueError("scale bounds must satisfy 0 < low < high")
    # One fixed grid wide enough for every parameter box corner, so the
    # objective stays comparable across the whole search region and the
    # edge-mass check cannot fire inside the box.
    grid = EvalGrid.spanning(
        (float(hist.edges[0]), float(hist.edges[-1]), *bounds[2], *bounds[3]),
        max(t_hi, s_hi),
    )
    observed = hist.frequencies

    lows = np.array([math.log(t_lo), math.log(s_lo), bounds[2][0], bounds[3][0]])
    highs = np.array([math.log(t_hi), math.log(s_hi), bounds[2][1], bounds[3][1]])

    def objective(theta: np.ndarray) -> float:
        params = QrseParams(
            T=math.exp(theta[0]), S=math.exp(theta[1]), mu=theta[2], alpha=theta[3]
        )
        return kl_divergence(bin_probabilities(hist.edges, params, grid), observed, reverse=reverse)

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

    box = list(zip(lows, highs))
    best = None
    iterations = 0
    for start in starts:
        initial_value = objective(start)
        # jac="2-point" steps by sqrt(eps) * max(1, |x|), not L-BFGS-B's 1e-8:
        # against ~1e-15 of objective rounding noise, 1e-8 gives 1e-7 gradient
        # noise, which stopped fits up to 4e-10 above the minimum (N <= 20k).
        result = minimize(objective, start, method="L-BFGS-B", jac="2-point", bounds=box)
        iterations += int(result.nit)
        if not math.isfinite(result.fun) or result.fun > initial_value:
            continue
        if best is None or result.fun < best.fun:
            best = result
    if best is None:
        raise NoDescent(f"none of {len(starts)} starts improved on its initial objective")

    kl = max(float(best.fun), 0.0)
    return MapResult(
        params=QrseParams(
            T=math.exp(best.x[0]), S=math.exp(best.x[1]), mu=float(best.x[2]), alpha=float(best.x[3])
        ),
        kl=kl,
        soofi_id=soofi_id(kl),
        iterations=iterations,
        converged=bool(best.success),
        restarts_used=len(starts) - 1,
    )
