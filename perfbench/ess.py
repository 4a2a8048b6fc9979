"""Rank-normalized split-chain diagnostics for the benchmark's output checks.

Implements bulk effective sample size and split R-hat as defined by Vehtari,
Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-normalization, folding,
and localization", Bayesian Analysis 16(2). The rank transform is the one
``qrse.diagnostics.split_rhat`` uses: split each chain in half (odd lengths
drop the middle draw), rank the pooled draws, and map the ranks through the
inverse normal CDF with the (r - 3/8) / (S + 1/4) offset.

The benchmark computes these itself rather than calling the package, so a
defect in the package's diagnostics cannot make its own output pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_chains(chains) -> np.ndarray:
    """(chains, draws) -> (2 * chains, draws // 2), halves in chain order."""
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 4:
        raise ValueError("need a (chains, draws) array with at least 4 draws per chain")
    half = arr.shape[1] // 2
    return np.concatenate([arr[:, :half], arr[:, arr.shape[1] - half:]], axis=0)


def rank_normalize(chains) -> np.ndarray:
    """Split chains, then replace each draw by the normal score of its pooled rank."""
    splits = split_chains(chains)
    ranks = rankdata(splits.reshape(-1)).reshape(splits.shape)
    return ndtri((ranks - 0.375) / (splits.size + 0.25))


def split_rhat(chains) -> float:
    """Rank-normalized split R-hat of one parameter."""
    z = rank_normalize(chains)
    n = z.shape[1]
    within = float(np.mean(np.var(z, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(z, axis=1), ddof=1))
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def _autocovariance(z: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at lags 0 .. n-1, by FFT."""
    n = z.shape[1]
    centered = z - z.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def ess(z) -> float:
    """Multi-chain effective sample size of already-split chains.

    Autocorrelations combine the within-chain autocovariances with the
    between-chain variance, and the sum is truncated by Geyer's initial
    monotone sequence: lag pairs are added while their sum stays positive,
    and each pair sum is capped by the one before it.
    """
    z = np.asarray(z, dtype=float)
    m, n = z.shape
    acov = _autocovariance(z).mean(axis=0)
    within = acov[0] * n / (n - 1)
    var_plus = within * (n - 1) / n + float(np.var(z.mean(axis=1), ddof=1))
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0
    pair_sums = []
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair_sums.append(min(pair, pair_sums[-1]) if pair_sums else pair)
    tau = -1.0 + 2.0 * sum(pair_sums)
    total = m * n
    # The floor keeps antithetic chains from reporting an unbounded ESS.
    return total / max(tau, 1.0 / math.log10(total))


def bulk_ess(chains) -> float:
    """Bulk ESS of one parameter: ESS of the rank-normalized split chains."""
    return ess(rank_normalize(chains))
