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
from .ingest import HistogramSpec, fd_bin_count
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
    indicate convergence (Vehtari et al. 2021, Bayesian Analysis 16(2)).

    The inverse CDF is ``_normal_quantile``, which agrees with the standard
    library's ``NormalDist.inv_cdf`` and SciPy's ``ndtri`` to within a few
    ulp.

    Raises
    ------
    InsufficientDraws
        With fewer than 2 chains or fewer than 4 draws per chain.
    """
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
    z = _normal_quantile((_average_ranks(flat) - 0.375) / (flat.size + 0.25))
    z = z.reshape(splits.shape)
    within = float(np.mean(np.var(z, axis=1, ddof=1)))
    between = half * float(np.var(np.mean(z, axis=1), ddof=1))
    # Rank-normalized draws have O(1) spread, so any genuine within-chain
    # variance is far above roundoff; below that the chains are internally
    # constant but mutually disjoint.
    if within <= _ZERO_VARIANCE:
        return math.inf
    var_plus = (half - 1) / half * within + between / half
    return math.sqrt(var_plus / within)


# Wichura's AS241 (PPND16) rational approximations to the normal quantile
# (Applied Statistics 37(3), 1988), highest power first: numerator and
# denominator for |p - 1/2| <= 0.425, then for the tails with r =
# sqrt(-log(min(p, 1 - p))) at most 5 and beyond 5.
_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_NEAR_TAIL = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_FAR_TAIL = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coefficients, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator at r, each by Horner's rule."""
    num, den = (np.full_like(r, c[0]) for c in coefficients)
    for a, b in zip(*(c[1:] for c in coefficients)):
        num = num * r + a
        den = den * r + b
    return num, den


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF at each p in (0, 1), by AS241.

    The same rational approximations, in the same order of operations, as
    the standard library's ``NormalDist.inv_cdf``; only numpy's log and
    sqrt can differ from the C library's, by an ulp or so.
    """
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    num, den = _horner(_CENTRAL, 0.180625 - q[central] * q[central])
    x[central] = num * q[central] / den
    tail = ~central
    r = np.sqrt(-np.log(np.where(q[tail] <= 0.0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    magnitude = np.empty_like(r)
    num, den = _horner(_NEAR_TAIL, r[near] - 1.6)
    magnitude[near] = num / den
    num, den = _horner(_FAR_TAIL, r[~near] - 5.0)
    magnitude[~near] = num / den
    x[tail] = np.where(q[tail] < 0.0, -magnitude, magnitude)
    return x


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
    ordered = np.sort(values)
    if float(ordered[0]) == float(ordered[-1]):
        return float(values[0])
    counts, edges = np.histogram(values, bins=fd_bin_count(ordered))
    centers = 0.5 * (edges[:-1] + edges[1:])
    fullest = counts == counts.max()
    candidates = centers[fullest]
    half = ordered.size // 2
    if ordered.size % 2:
        median = float(ordered[half])
    else:
        median = (float(ordered[half - 1]) + float(ordered[half])) / 2
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
    posterior: PosteriorDraws, hist: HistogramSpec, hdi_prob: float = DEFAULT_HDI_PROB
) -> FitReport:
    """Build the posterior estimates report.

    Per parameter: mean and sd over the pooled post-tune draws, marginal
    histogram mode, shortest HDI, and split rank-normalized R-hat. The KL
    divergence and Soofi ID score the model at the posterior-mean parameters
    against the observed histogram, on ``report_grid``.
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
    grid = report_grid(mean_params, hist)
    kl = kl_divergence(bin_probabilities(hist.edges, mean_params, grid), hist.frequencies)
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
