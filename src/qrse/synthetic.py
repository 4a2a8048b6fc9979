"""Deterministic synthetic draws from a QRSE density.

Sampling is inverse-CDF on the tabulated density: cumulative cell masses
define a piecewise-linear CDF, uniform variates are mapped through its
inverse by binary search with linear interpolation inside each cell. The
generator is counter-based (Philox), so identical configurations reproduce
bit-identical output on any platform.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .model import DensityTable, QrseParams, build_density

# Pinned RNG algorithm, recorded in run metadata. Philox is counter-based:
# the stream depends only on the key, never on machine state.
RNG_ALGORITHM = "numpy.random.Philox4x32-10"


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator keyed directly by the seed (no entropy-pool scrambling)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def check_integer(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an int or a numpy integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SampleConfig:
    """How many draws, from which seed, for ``sample``'s auto grid; use
    ``sample_from_table(build_density(params, grid), n, seed)`` on another."""

    n: int
    seed: int

    def __post_init__(self) -> None:
        check_integer("n", self.n)
        check_integer("seed", self.seed)
        if self.n < 1:
            raise ValueError(f"draw count must be >= 1, got {self.n!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def sample_from_table(table: DensityTable, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws from an already-built density table."""
    edges, cumulative = table.cell_cdf()
    rng = rng_from_seed(seed)
    # Scale by the realized total mass so roundoff in the cumsum cannot push
    # a variate past the last CDF knot.
    u = rng.random(n) * cumulative[-1]
    return np.interp(u, cumulative, edges)


def sample(params: QrseParams, config: SampleConfig) -> np.ndarray:
    """Draw config.n outcomes from the density of params.

    Deterministic: identical (params, config) give bit-identical arrays.

    Raises
    ------
    GridTooNarrow
        Propagated from density construction if the grid clips the support.
    """
    table = build_density(params)
    return sample_from_table(table, config.n, config.seed)
