"""Convergence diagnostics and posterior summarization.

Provides the split rank-normalized convergence statistic, shortest
highest-density intervals, histogram-based marginal modes, and the assembled
per-parameter report (mean, sd, mode, HDI, R-hat) with KL and Soofi ID fit
scores evaluated at the posterior-mean parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDraws, TooFewSamples
from .ingest import HistogramSpec
from .mapfit import kl_divergence, soofi_id
from .mcmc import PosteriorDraws
from .model import EvalGrid, QrseParams, bin_probabilities

DEFAULT_HDI_PROB = 0.94
MIN_SUMMARY_SAMPLES = 20

# Total-variance threshold under which chains count as a single point mass.
_ZERO_VARIANCE = 1e-12
# Reported R-hat values are floored here: tiny downward excursions below 1
# are estimator noise, not evidence of anything.
_RHAT_REPORT_FLOOR = 1.0 - 1e-3

# Report rows follow the conventional presentation order, locations first.
_REPORT_ORDER = (("mu", 2), ("alpha", 3), ("T", 0), ("S", 1))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties sharing their average rank.

    Matches SciPy's ``rankdata`` (method "average"): a tie group that
    fills sorted positions s+1..e gets rank (s + 1 + e) / 2, an exact
    half-integer. Any NaN makes every rank NaN, as scipy's default does.
    """
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (starts + 1 + ends))[np.cumsum(new_group) - 1]
    return ranks


def split_rhat(chains) -> float:
    """Split rank-normalized convergence statistic for one parameter.

    Each chain is split in half (odd lengths drop the middle draw), the
    pooled draws are converted to fractional ranks, the ranks are mapped
    through the inverse normal CDF, and the classic between/within variance
    ratio is evaluated on the transformed split chains. Values near 1
    indicate convergence.

    Raises
    ------
    InsufficientDraws
        With fewer than 2 chains or fewer than 4 draws per chain.
    """
    from scipy.special import ndtri

    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise ValueError("chains must be a 2-d array (chains x draws)")
    n_chains, n_draws = arr.shape
    if n_chains < 2 or n_draws < 4:
        raise InsufficientDraws(
            f"need >= 2 chains of >= 4 draws, got {n_chains} x {n_draws}"
        )
    if float(np.var(arr)) < _ZERO_VARIANCE:
        return 1.0  # all chains sit on one constant: converged by convention
    half = n_draws // 2
    splits = np.concatenate([arr[:, :half], arr[:, n_draws - half:]], axis=0)
    flat = splits.reshape(-1)
    ranks = _average_ranks(flat).reshape(splits.shape)
    z = ndtri((ranks - 0.375) / (flat.size + 0.25))
    within = float(np.mean(np.var(z, axis=1, ddof=1)))
    between = half * float(np.var(np.mean(z, axis=1), ddof=1))
    # Rank-normalized draws have O(1) spread, so any genuine within-chain
    # variance is far above roundoff; below that the chains are internally
    # constant but mutually disjoint.
    if within <= _ZERO_VARIANCE:
        return math.inf
    var_plus = (half - 1) / half * within + between / half
    return math.sqrt(var_plus / within)


def hdi(samples, prob: float = DEFAULT_HDI_PROB) -> tuple[float, float]:
    """Shortest contiguous interval holding ceil(prob * n) sorted samples.

    Raises
    ------
    TooFewSamples
        With fewer than MIN_SUMMARY_SAMPLES samples.
    """
    if not (0.0 < prob < 1.0):
        raise ValueError(f"prob must be in (0, 1), got {prob!r}")
    values = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    if values.size < MIN_SUMMARY_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_SUMMARY_SAMPLES} samples, got {values.size}")
    k = int(math.ceil(prob * values.size))
    widths = values[k - 1:] - values[: values.size - k + 1]
    start = int(np.argmin(widths))
    return float(values[start]), float(values[start + k - 1])


def posterior_mode(samples) -> float:
    """Center of the fullest Freedman-Diaconis histogram bin.

    Ties between equally full bins break toward the bin nearest the sample
    median.

    Raises
    ------
    TooFewSamples
        With fewer than MIN_SUMMARY_SAMPLES samples.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    if values.size < MIN_SUMMARY_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_SUMMARY_SAMPLES} samples, got {values.size}")
    if float(np.min(values)) == float(np.max(values)):
        return float(values[0])
    counts, edges = np.histogram(values, bins="fd")
    centers = 0.5 * (edges[:-1] + edges[1:])
    fullest = counts == counts.max()
    candidates = centers[fullest]
    median = float(np.median(values))
    return float(candidates[int(np.argmin(np.abs(candidates - median)))])


@dataclass(frozen=True)
class ParamSummary:
    """Marginal posterior summary for one parameter."""

    mean: float
    sd: float
    mode: float
    hdi_low: float
    hdi_high: float
    rhat: float

    def __post_init__(self) -> None:
        # Weak inequality: a point-mass posterior legitimately collapses the
        # interval to a single value.
        if self.hdi_low > self.hdi_high:
            raise ValueError("hdi_low must not exceed hdi_high")

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "sd": self.sd,
            "mode": self.mode,
            "hdi_low": self.hdi_low,
            "hdi_high": self.hdi_high,
            "rhat": self.rhat,
        }


@dataclass(frozen=True)
class FitReport:
    """Posterior estimates table plus fit scores at the posterior mean."""

    rows: tuple[tuple[str, ParamSummary], ...]
    kl: float
    soofi_id: float
    n: int
    hdi_prob: float
    chains: int
    draws: int
    tune: int
    seed: int

    def to_json(self) -> dict:
        return {
            "parameters": {name: summary.to_json() for name, summary in self.rows},
            "kl": self.kl,
            "soofi_id": self.soofi_id,
            "n": self.n,
            "hdi_prob": self.hdi_prob,
            "chains": self.chains,
            "draws": self.draws,
            "tune": self.tune,
            "seed": self.seed,
        }

    def to_text(self) -> str:
        """Aligned plain-text table in the conventional presentation order."""
        hdi_label = f"{round(100 * self.hdi_prob)}% HDI"
        header = f"{'parameter':<10} {'mean (sd)':>16} {'mode':>8} {hdi_label:>18} {'rhat':>6}"
        lines = [header, "-" * len(header)]
        for name, s in self.rows:
            mean_sd = f"{s.mean:.2f} ({s.sd:.2f})"
            interval = f"[{s.hdi_low:.2f}, {s.hdi_high:.2f}]"
            lines.append(
                f"{name:<10} {mean_sd:>16} {s.mode:>8.2f} {interval:>18} {s.rhat:>6.2f}"
            )
        lines.append("")
        lines.append(f"N:             {self.n}")
        lines.append(f"KL divergence: {self.kl:.6f}")
        lines.append(f"Soofi ID:      {self.soofi_id:.6f}")
        lines.append(
            f"chains={self.chains} draws={self.draws} tune={self.tune} seed={self.seed}"
        )
        return "\n".join(lines)


def report_grid(params: QrseParams, hist: HistogramSpec) -> EvalGrid:
    # Wide enough for both the fitted density and every histogram edge, so
    # bin probabilities never meet an empty bin at the data boundary.
    return EvalGrid.spanning(
        (params.mu, params.alpha),
        max(params.T, params.S),
        cover=(float(hist.edges[0]), float(hist.edges[-1])),
    )


def summarize(
    posterior: PosteriorDraws,
    hist: HistogramSpec,
    grid: EvalGrid | None = None,
    hdi_prob: float = DEFAULT_HDI_PROB,
) -> FitReport:
    """Build the posterior estimates report.

    Per parameter: mean and sd over the pooled post-tune draws, marginal
    histogram mode, shortest HDI, and split rank-normalized R-hat. The KL
    divergence and Soofi ID score the model at the posterior-mean parameters
    against the observed histogram.
    """
    rows = []
    for name, index in _REPORT_ORDER:
        pooled = posterior.pooled(index)
        rhat = split_rhat(posterior.draws[:, :, index])
        low, high = hdi(pooled, hdi_prob)
        rows.append(
            (
                name,
                ParamSummary(
                    mean=float(np.mean(pooled)),
                    sd=float(np.std(pooled, ddof=1)),
                    mode=posterior_mode(pooled),
                    hdi_low=low,
                    hdi_high=high,
                    rhat=max(rhat, _RHAT_REPORT_FLOOR),
                ),
            )
        )
    mean_params = QrseParams(**{name: summary.mean for name, summary in rows})
    if grid is None:
        grid = report_grid(mean_params, hist)
    kl = kl_divergence(
        bin_probabilities(hist.edges, mean_params, grid), hist.frequencies
    )
    config = posterior.config
    return FitReport(
        rows=tuple(rows),
        kl=kl,
        soofi_id=soofi_id(kl),
        n=hist.n,
        hdi_prob=hdi_prob,
        chains=config.chains,
        draws=config.draws,
        tune=config.tune,
        seed=config.seed,
    )
