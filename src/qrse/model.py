"""Core QRSE density machinery.

The model describes the distribution of a continuous outcome x (educational
returns, in thousands of dollars) shaped by a binary enter/leave decision.
Households enter or exit a district with logit probabilities centered at a
tipping point mu and sharpness set by a behavior temperature T; a market-level
feedback term pulls the outcome toward a barycenter alpha with strength 1/S.
The resulting maximum-entropy density has log-kernel

    H(x) - tanh((x - mu)/T) * (x - alpha)/S

where H is the binary entropy of the entry probability. The partition
function is computed by quadrature on a uniform grid. Tabulated densities
(pdf values, bin probabilities, inverse-CDF draws) are exact relative to
their grid's discretization. A log-likelihood without an explicit grid
takes log Z from ``local_log_z``, which adds both exponential tails in
closed form and is accurate to about 1e-11 relative, and sums the kernel
over the data from sorted data (``_data_log_kernel``): one exp and one
division per point, and one log per 32 points for the sum of log1p terms,
taken as logs of products of 1 + e below 2^33. With an explicit grid,
``log_likelihood`` takes the public formula: ``log_kernel`` summed over the
data, the reference the tests hold that sum to, less N times
``build_density``'s log Z on the grid. ``_sort_data`` checks and sorts the
data in either mode, so neither value depends on the data's order. The kernel
at a set of points has one chunk loop, ``_kernel_rows``, for one row or many.

All four parameters are in thousands of dollars. Operations broadcast over
numpy arrays and accept scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyBinGrid, GridTooLarge, GridTooNarrow

LN2 = math.log(2.0)

# Auto grids span this many units of max(T, S) beyond the location parameters.
# The build-time check bounds only the outermost cell's mass (EDGE_MASS_LIMIT),
# not the tail beyond it, about S / dx times that: at (2.1, 4.9, 8.66, 17.8) the
# cell holds 2.4e-7 but an auto grid loses 6.1e-5 of log Z. See ROADMAP
# direction 5.
AUTO_SPAN_SCALES = 8.0
DEFAULT_GRID_POINTS = 4001
EDGE_MASS_LIMIT = 1e-4

# In float64 np.tanh(u) is exactly +-1 once |u| >= 18.9904, so past mu +-
# SATURATION_SCALES * T the log kernel is exactly -+(x - alpha)/S. local_log_z
# sums it out to there, at most min(T, S) / LOCAL_CELLS_PER_SCALE apart (157
# points when T <= S), and adds the rest in closed form. No grid may exceed
# MAX_LOCAL_POINTS.
SATURATION_SCALES = 19.5
LOCAL_CELLS_PER_SCALE = 4.0
MAX_LOCAL_POINTS = 2**20

# Tolerance of the uniform-spacing check on grids: this much of the spacing,
# plus _SPACING_ULPS units in the last place of the largest point, since
# points such as mu + k * dx are rounded where they lie.
_SPACING_RTOL = 1e-9
_SPACING_ULPS = 4.0

# Kernel evaluation proceeds in chunks of this many points, so that its
# temporaries stay in cache and are reused from the allocator's free lists
# instead of being faulted in afresh for every call on a long data vector.
_BLOCK = 16384

# Sums of log1p(e) over the data are logs of products of at most _FACTORS + 1
# factors 1 + e in [1, 2] (``_log1p_sums``); a row whose sum falls below
# _LOG1P_FLOOR per point takes np.log1p instead.
_FACTORS = 32
_LOG1P_FLOOR = 2.0**-9

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class QrseParams:
    """Parameter vector of the QRSE density.

    Attributes
    ----------
    T : float
        Behavior temperature, thousands of dollars. Scale of the household
        logit choice; T -> 0 approaches a deterministic step rule. Must be
        strictly positive (the zero-entropy limit is excluded).
    S : float
        Market scale, thousands of dollars. Inverse of the feedback strength
        gamma = 1/S. Strictly positive.
    mu : float
        Household tipping point: the outcome level at which entering and
        exiting are equally likely.
    alpha : float
        Market barycenter of the feedback term. alpha != mu skews the
        density; alpha > mu skews it to the right.
    """

    T: float
    S: float
    mu: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("T", "S", "mu", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {float(value)!r}")
        if self.T <= 0.0:
            raise ValueError(f"T must be strictly positive, got {float(self.T)!r}")
        if self.S <= 0.0:
            raise ValueError(f"S must be strictly positive, got {float(self.S)!r}")

    def as_array(self) -> np.ndarray:
        """Return [T, S, mu, alpha] as a float array (trace column order)."""
        return np.array([self.T, self.S, self.mu, self.alpha], dtype=float)

    @classmethod
    def from_array(cls, values) -> "QrseParams":
        T, S, mu, alpha = (float(v) for v in values)
        return cls(T=T, S=S, mu=mu, alpha=alpha)


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Uniform evaluation grid for quadrature over the outcome axis.

    ``points`` must be strictly increasing and uniformly spaced (within
    1e-9 of the spacing plus the rounding of the points themselves, four
    units in the last place of the largest); ``spacing`` is the common step.
    """

    points: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least 2 points in one dimension")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        steps = np.diff(points)
        if np.any(steps <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if self.spacing <= 0.0:
            raise ValueError("grid spacing must be positive")
        tolerance = _SPACING_RTOL * self.spacing + _SPACING_ULPS * float(
            np.spacing(np.max(np.abs(points)))
        )
        if np.any(np.abs(steps - self.spacing) > tolerance):
            raise ValueError("grid points must be uniformly spaced")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @classmethod
    def from_bounds(cls, low: float, high: float, n_points: int = DEFAULT_GRID_POINTS) -> "EvalGrid":
        if not (high > low):
            raise ValueError("grid upper bound must exceed lower bound")
        points = np.linspace(low, high, n_points)
        return cls(points=points, spacing=(high - low) / (n_points - 1))

    @classmethod
    def spanning(cls, points, scale: float, cover=()) -> "EvalGrid":
        """Grid reaching AUTO_SPAN_SCALES units of ``scale`` beyond every one
        of ``points``, and at least to every one of ``cover`` (unpadded).

        This is the one rule for how wide a quadrature grid must be.
        """
        pad = AUTO_SPAN_SCALES * scale
        low = min((min(points) - pad, *cover))
        high = max((max(points) + pad, *cover))
        return cls.from_bounds(low, high)

    @classmethod
    def auto(cls, params: QrseParams) -> "EvalGrid":
        """Grid spanning both locations plus AUTO_SPAN_SCALES units of max(T, S)."""
        return cls.spanning((params.mu, params.alpha), max(params.T, params.S))

    @classmethod
    def local(cls, params: QrseParams) -> "EvalGrid":
        """The grid ``local_log_z`` sums over at these parameters: uniform
        over mu +- 19.5 T. GridTooLarge, as ``_local_grids``, if it would be
        too large or too fine."""
        T, S, mu = (np.array([value], dtype=float) for value in (params.T, params.S, params.mu))
        halves, spacing = _local_grids(T, S)
        points = _local_points(int(halves[0]), spacing, mu)[0]
        return cls(points=points, spacing=float(spacing[0]))

    def cell_edges(self) -> np.ndarray:
        """Edges of the quadrature cells: each grid point owns [x - dx/2, x + dx/2)."""
        half = 0.5 * self.spacing
        return np.concatenate([self.points - half, [self.points[-1] + half]])


@dataclass(frozen=True, eq=False)
class DensityTable:
    """Tabulated density: log-kernel values, log partition function, and pdf.

    ``pdf`` is normalized so that sum(pdf) * spacing = 1 up to roundoff.
    On very wide custom grids the far tails may underflow to zero; auto
    grids keep every cell strictly positive.
    """

    grid: EvalGrid
    log_kernel_values: np.ndarray
    log_z: float
    pdf: np.ndarray

    def __post_init__(self) -> None:
        for name in ("log_kernel_values", "pdf"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.points.shape:
                raise ValueError(f"{name} must match the grid shape")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        total = float(np.sum(self.pdf)) * self.grid.spacing
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"pdf fails to integrate to 1 on its grid: {total!r}")

    def cell_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear CDF over quadrature cells.

        Returns (cell_edges, cumulative mass at those edges). The CDF is
        linear within each cell, which is the shared convention for both
        inverse-CDF sampling and bin-probability evaluation, so the two stay
        exactly consistent with each other.
        """
        masses = self.pdf * self.grid.spacing
        cumulative = np.concatenate([[0.0], np.cumsum(masses)])
        return self.grid.cell_edges(), cumulative


def payoff_difference(x, mu):
    """Difference between entry and exit payoffs at outcome x: 2 * (x - mu)."""
    return 2.0 * (np.asarray(x, dtype=float) - mu)


def _scaled_distance(x, params: QrseParams):
    # z = 2 (x - mu) / T, the logit argument shared by every choice quantity.
    return payoff_difference(x, params.mu) / params.T


def entry_probability(x, params: QrseParams):
    """Logit probability of entering at outcome x.

    The logistic sigmoid 1/(1 + exp(-z)) of z = 2 (x - mu) / T. Where
    exp(-z) overflows, the sum is inf and the quotient an exact 0, so the
    overflow is silenced rather than avoided.
    """
    return _sigmoid(_scaled_distance(x, params))


def exit_probability(x, params: QrseParams):
    """Probability of exiting: the mirrored sigmoid, not 1 - entry.

    The mirrored form keeps full precision in the saturated tail where a
    literal subtraction would round to 0 or 1.
    """
    return _sigmoid(-_scaled_distance(x, params))


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def choice_difference(x, params: QrseParams):
    """Entry minus exit probability, tanh((x - mu)/T), in (-1, 1)."""
    return np.tanh((np.asarray(x, dtype=float) - params.mu) / params.T)


def _entropy_block(x: np.ndarray, params: QrseParams, out: np.ndarray,
                   u: np.ndarray, t: np.ndarray) -> None:
    """Write the binary entropy H(x) into ``out`` and tanh((x - mu)/T) into
    ``t``; ``u`` is scratch. All three have the shape of the result.

    With u = (x - mu)/T and t = tanh(u), H = ln 2 + (|u| (1 - |t|) -
    log1p(|t|)): two transcendentals, no cancellation in the tails. It is
    exactly ln 2 at x = mu and exactly 0 once |t| rounds to 1, since
    log1p(1) == ln 2; the bracket lies in [-ln 2, 0], so H stays in
    [0, ln 2] without clipping. Where u overflows (``_kernel_rows`` silences
    that), |u| is capped at the largest float, so the saturated point's
    |u| (1 - |t|) is 0, not inf * 0; the cap changes no finite |u|.
    """
    np.subtract(x, params.mu, out=u)
    u /= params.T
    np.tanh(u, out=t)
    np.abs(u, out=u)
    np.minimum(u, _FLOAT_MAX, out=u)
    np.abs(t, out=out)
    np.subtract(1.0, out, out=out)
    out *= u
    out -= np.log1p(np.abs(t, out=u), out=u)
    out += LN2


def _log_kernel_block(x: np.ndarray, params: QrseParams, out: np.ndarray,
                      u: np.ndarray, t: np.ndarray) -> None:
    """Write the log kernel into ``out``; leave tanh((x - mu)/T) in ``t``
    and that times (x - alpha)/S in ``u``."""
    _entropy_block(x, params, out, u, t)
    np.subtract(x, params.alpha, out=u)
    u /= params.S
    u *= t
    out -= u


class _Columns(NamedTuple):
    """T, S, mu and alpha of a block of rows, each shaped (rows, 1), so that
    the block functions evaluate row r's parameters on row r of ``out``."""

    T: np.ndarray
    S: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray


def _kernel_rows(x: np.ndarray, rows: np.ndarray, out: np.ndarray, u: np.ndarray,
                 t: np.ndarray, block=_log_kernel_block) -> None:
    """Write ``block`` (the log kernel unless told otherwise) at each row of
    ``rows`` (T, S, mu, alpha) into the same row of ``out``, in chunks of
    _BLOCK columns; the parameters are (rows, 1) columns. ``x`` is one 1-d
    set of points for every row, or one row of points per row. ``block``
    leaves t and t r in ``t`` and ``u`` for the last chunk only.

    ``u`` and ``t`` are scratch with ``out``'s rows and min(columns, _BLOCK)
    columns. Callers allocate them and ``out`` once for all their blocks:
    buffers freed and allocated per block can be faulted in afresh each time,
    up to 150,000 page faults in an N=2000 ``sample`` against 13,500 with
    them kept (2-core Xeon VM, glibc).

    Overflow is silenced: a (x - mu)/T past the largest float saturates the
    entropy to 0, and a (x - alpha)/S past it is the kernel's own -inf.
    """
    columns = _Columns._make(rows.T[:, :, None])
    with np.errstate(over="ignore"):
        for start in range(0, out.shape[-1], _BLOCK):
            chunk = slice(start, start + _BLOCK)
            width = out[..., chunk].shape[-1]
            block(x[..., chunk], columns, out[..., chunk], u[..., :width], t[..., :width])


def _blockwise(block, x, params: QrseParams):
    """``block`` at every point of x: the one-row case of ``_kernel_rows``.

    Returns an array of x's shape, or a numpy scalar for scalar input.
    """
    values = np.asarray(x, dtype=float)
    out = np.empty((1, values.size))
    u, t = np.empty((2, 1, min(values.size, _BLOCK)))
    _kernel_rows(values.reshape(-1), params.as_array()[None], out, u, t, block)
    return out.reshape(values.shape)[()]


def conditional_entropy(x, params: QrseParams):
    """Binary entropy of the entry/exit choice at x, in [0, ln 2].

    Exactly 0 in both saturated tails (the 0 * log 0 = 0 convention) and
    exactly ln 2 at x = mu.
    """
    return _blockwise(_entropy_block, x, params)


def log_kernel(x, params: QrseParams):
    """Unnormalized log-density: conditional entropy minus the feedback term."""
    return _blockwise(_log_kernel_block, x, params)


def _local_grids(T: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's local grid over mu +- 19.5 T: its half point count, less
    one, as floats, and its spacing.

    Raises GridTooLarge for the first row whose grid would exceed
    MAX_LOCAL_POINTS, and then for the first row whose spacing divided by S
    underflows to 0.
    """
    half = SATURATION_SCALES * LOCAL_CELLS_PER_SCALE * T / np.minimum(T, S)
    if not half.max(initial=0.0) <= (MAX_LOCAL_POINTS - 1) // 2:  # also catches NaN and inf
        row = int(np.argmin(half <= (MAX_LOCAL_POINTS - 1) // 2))
        raise GridTooLarge(
            f"log Z at T={float(T[row])!r}, S={float(S[row])!r} needs a "
            f"{2 * half[row] + 1:.0f}-point grid (limit {MAX_LOCAL_POINTS}); "
            f"narrow the range of T and S"
        )
    halves = np.ceil(half)
    spacing = SATURATION_SCALES * T / halves
    if not (spacing / S).min(initial=math.inf) > 0.0:
        row = int(np.argmin(spacing / S > 0.0))
        raise GridTooLarge(
            f"log Z at T={float(T[row])!r}, S={float(S[row])!r} needs a grid "
            f"spacing that underflows to 0"
        )
    return halves, spacing


def _local_points(half: int, spacing: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """One row of 2 half + 1 grid points per (spacing, mu), centred on mu."""
    points = np.multiply.outer(spacing, np.arange(-half, half + 1))
    points += mu[:, None]
    return points


def _log_partition(kernel: np.ndarray, spacing: float) -> tuple[float, np.ndarray]:
    """log Z and the pdf from log-kernel values on a uniform grid.

    The partition function is a Riemann sum of the kernel times the grid
    spacing, accumulated after shifting the kernel by its maximum so that no
    raw exponential of an unbounded argument is ever formed. The shifted
    weights, rescaled, are the pdf.

    Raises
    ------
    GridTooNarrow
        If either outermost cell carries more than EDGE_MASS_LIMIT of
        probability, meaning the grid truncates the support.
    """
    peak = float(np.max(kernel))
    pdf = np.exp(kernel - peak)
    mass = float(np.sum(pdf)) * spacing
    log_z = peak + math.log(mass)
    pdf /= mass
    edge_mass = max(pdf[0], pdf[-1]) * spacing
    if edge_mass > EDGE_MASS_LIMIT:
        raise GridTooNarrow(
            f"outermost grid cell holds {edge_mass:.3e} probability mass "
            f"(limit {EDGE_MASS_LIMIT:g}); widen the grid"
        )
    return log_z, pdf


def local_log_z(params: QrseParams) -> float:
    """Log partition function as an infinite uniform sum: nothing is cut off.

    The max-shifted kernel is summed on ``EvalGrid.local``'s grid. Past its
    ends the kernel is exactly linear, so the rest of the sum at spacing dx
    is geometric with ratio r = exp(-dx/S): each end weight times dx r /
    (1 - r) = dx / expm1(dx/S), which tends to S, not infinity. Such sums
    converge geometrically in 1/dx (Trefethen & Weideman 2014, SIAM Review
    56(3)). This is the one-row case of ``_local_log_z_rows``, which does
    not go through ``log_kernel``.

    Raises
    ------
    GridTooLarge
        As ``_local_grids``.
    """
    return float(_local_log_z_rows(params.as_array()[None, :])[0])


def _local_log_z_rows(rows: np.ndarray) -> np.ndarray:
    """``local_log_z`` at each row (T, S, mu, alpha) of ``rows``.

    Rows are grouped by grid size, and each group is evaluated in blocks of
    at most _BLOCK points (one row at a time when a grid is larger). Every
    step is elementwise or a row's own maximum or sum, and the last two, a
    log and an expm1, are the ``math`` functions, so each value is the same
    bits as a one-row call.

    Raises
    ------
    GridTooLarge
        As ``_local_grids``, for the first such row.
    """
    log_z = np.empty(len(rows))
    halves, spacings = _local_grids(rows[:, 0], rows[:, 1])
    for half in sorted(set(halves.tolist())):
        members = (halves == half).nonzero()[0]
        group, spacing, half = rows[members], spacings[members], int(half)
        step = max(1, _BLOCK // (2 * half + 1))
        kernels = np.empty((min(step, len(group)), 2 * half + 1))
        scratch = np.empty((2, len(kernels), min(2 * half + 1, _BLOCK)))
        peaks, sums, ends = [], [], []
        for start in range(0, len(group), step):
            block = slice(start, start + step)
            points = _local_points(half, spacing[block], group[block, 2])
            kernel = kernels[:len(points)]
            _kernel_rows(points, group[block], kernel, *scratch[:, :len(points)])
            peak = kernel.max(axis=1)
            weights = np.exp(np.subtract(kernel, peak[:, None], out=kernel), out=kernel)
            peaks += peak.tolist()
            sums += weights.sum(axis=1).tolist()
            ends += (weights[:, 0] + weights[:, -1]).tolist()
        log_z[members] = [
            peak + math.log(total * dx + end * (dx / math.expm1(dx / S)))
            for peak, total, end, dx, S in zip(
                peaks, sums, ends, spacing.tolist(), group[:, 1].tolist()
            )
        ]
    return log_z


def build_density(params: QrseParams, grid: EvalGrid | None = None) -> DensityTable:
    """Evaluate the normalized density on a grid (``EvalGrid.auto`` if None).

    log Z and the pdf come from ``_log_partition``.

    Raises
    ------
    GridTooNarrow
        If either outermost cell carries more than EDGE_MASS_LIMIT of
        probability, meaning the grid truncates the support.
    """
    if grid is None:
        grid = EvalGrid.auto(params)
    kernel = log_kernel(grid.points, params)
    log_z, pdf = _log_partition(kernel, grid.spacing)
    return DensityTable(grid=grid, log_kernel_values=kernel, log_z=log_z, pdf=pdf)


class _SortedData(NamedTuple):
    """Observations as ``_data_log_kernel`` reads them, built once by
    ``_sort_data``: ``x`` ascending, with -0.0 read as 0.0, so that the sign
    of x - mu always says which side of ``searchsorted(x, mu)`` a point lies
    on; ``prefix[i]`` is the sum of x[:i] - ``center``, and ``center`` is
    the median, so that the sums carry no large common offset."""

    x: np.ndarray
    center: float
    prefix: np.ndarray


def _sort_data(data) -> _SortedData | None:
    """The one rule for observations, in the model and the sampler: ValueError
    unless ``data`` is a 1-d array of finite numbers; None if it is empty."""
    values = np.asarray(data, dtype=float)
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ValueError("observations must be a 1-d array of finite numbers")
    if not values.size:
        return None
    x = np.sort(values)
    x += 0.0  # -0.0 + 0.0 is 0.0
    center = float(x[x.size // 2])
    prefix = np.zeros(x.size + 1)
    np.cumsum(x - center, out=prefix[1:])
    return _SortedData(x, center, prefix)


def _data_log_kernel(data: _SortedData, rows: np.ndarray) -> np.ndarray:
    """The log kernel summed over the data, at each row (T, S, mu, alpha)
    of ``rows``.

    Only mu and T act on each point alone. With d = x - mu, e = exp(-2|d|/T)
    and q = e / (1 + e), the smaller choice probability at x, the entropy
    is 2|d|/T q + log1p(e) and tanh(d/T) = sign(d) (1 - 2q). Summed:

        sum H = (2/T) sum |d| q + sum log1p(e)
        sum tanh(d/T) (x - alpha) = sum |d| - 2 sum |d| q
                                    + (mu - alpha) (n+ - n- - 2 sum sign(d) q)

    where the n- points below mu are the first ``searchsorted(x, mu)``, and
    sum |d| comes from the prefix sums either side of that split. So each
    point costs one exp, one division and seven other passes, one of them
    over the points below mu only (eight in row blocks; ``_choice_sums``),
    and sum log1p(e) costs one log per 32 points (``_log1p_sums``). The
    entropy part is summed as |d| q, never as a difference of large sums.
    A saturated point (e = 0) adds exactly 0 entropy, and its feedback term
    only through sum |d| and n+ - n-.

    Every step is elementwise, a row's own sum, or a row's own split, so a
    row's value depends only on that row and the data, not on the rows
    around it.
    """
    x, center, prefix = data
    n = x.size
    T, S, mu, alpha = rows.T
    below = np.searchsorted(x, mu)
    scale = 2.0 / T
    weighted, log_terms, signed = _choice_sums(x, scale, mu, below)
    distance = (prefix[-1] - prefix[below]) - prefix[below] + (2 * below - n) * (mu - center)
    feedback = distance - 2.0 * weighted + (mu - alpha) * ((n - 2 * below) - 2.0 * signed)
    return (scale * weighted + log_terms) - feedback / S


def _choice_sums(x: np.ndarray, scale: np.ndarray, mu: np.ndarray,
                 below: np.ndarray) -> np.ndarray:
    """Per row r: the sums over x of |d| q, log1p(e) and sign(d) q, with
    d = x - mu[r], e = exp(-scale[r] |d|) and q = e / (1 + e), where the
    first below[r] points have d < 0.

    Both layouts take one sign rule: 1 + e is formed once, and its slice
    below mu negated after ``_log1p_sums`` has read it, so that q comes out
    negative there. While a block of _BLOCK elements holds two rows or more
    (N <= 8,192), each block is one (rows, N) array, e is formed from |d|,
    and each row's slice is negated in turn. Otherwise each row runs alone
    and its two sides are separate slices, which saves the abs pass. That
    cut-off is the measured crossover: per row, blocks of two rows ran
    10-14% faster at N = 5,600-8,192 (29.0-37.2 against 33.7-41.4 us) and
    three rows 19-24% faster at N = 5,000-5,461 (2-core Xeon VM, 64 rows).
    Both layouts give the same bits, and einsum, not a BLAS dot, forms
    sum |d| q: in a fresh process a BLAS call can take milliseconds to start
    its thread pool. -scale |d| may overflow to -inf, where e is 0.
    """
    n = x.size
    sums = np.empty((3, len(mu)))
    step = _BLOCK // n
    columns = -(-n // _FACTORS)
    with np.errstate(over="ignore"):
        if step > 1:
            buffers = np.empty((3, min(step, len(mu)), n))
            products = np.empty((len(buffers[0]), columns))
            for start in range(0, len(mu), step):
                block = slice(start, start + step)
                d, w, b = buffers[:, :len(mu[block])]
                np.subtract(x, mu[block, None], out=d)
                np.abs(d, out=w)
                w *= -scale[block, None]
                np.exp(w, out=w)
                np.add(w, 1.0, out=b)
                sums[1, block] = _log1p_sums(w, b, products[:len(d)])
                for row, k in zip(b, below[block].tolist()):
                    np.negative(row[:k], out=row[:k])  # -(1 + e): q < 0 below mu
                w /= b
                sums[0, block] = np.einsum("ij,ij->i", d, w)
                sums[2, block] = w.sum(axis=1)
        else:
            d, w, b = np.empty((3, n))
            products = np.empty((1, columns))
            for row, (c, m, k) in enumerate(zip(scale.tolist(), mu.tolist(), below.tolist())):
                np.subtract(x, m, out=d)
                np.multiply(d[:k], c, out=w[:k])
                np.multiply(d[k:], -c, out=w[k:])
                np.exp(w, out=w)
                np.add(w, 1.0, out=b)
                log_sum = _log1p_sums(w[None], b[None], products)[0]
                np.negative(b[:k], out=b[:k])  # -(1 + e): q < 0 below mu
                w /= b
                sums[:, row] = np.einsum("i,i->", d, w), log_sum, w.sum()
    return sums


def _log1p_sums(e: np.ndarray, b: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Per row of ``e`` (rows, N), e in [0, 1]: the sum of log1p(e), from
    b = 1 + e. ``products`` is (rows, ceil(N / _FACTORS)) scratch.

    Each row of b is viewed as (N // c, c) with c = ceil(N / _FACTORS)
    columns and multiplied down its columns, which numpy does a whole row
    of columns at a time; the fewer than c points left over multiply into
    the first columns. So each product has at most _FACTORS + 1 factors in
    [1, 2] and stays below 2^33, and the sum is the sum of the products'
    logs: one log per 32 points in place of a log1p per point.

    Rounding 1 + e and rounding the product it joins cost at most 2^-53
    each per point, absolutely, and the logs and their sum are good to a
    few units in the last place of the result. Where e is tiny that absolute error
    is not small against log1p(e), about e: a row whose product sum is
    below N _LOG1P_FLOOR is summed with np.log1p instead, so the relative
    error stays below 2^-43 plus a few units in the last place. Both
    branches read only the row, and a row's value does not depend on the
    rows around it. An all-saturated row (e = 0) sums to exactly 0.
    """
    n = e.shape[1]
    columns = products.shape[1]
    full = n - n % columns
    np.multiply.reduce(b[:, :full].reshape(len(b), -1, columns), axis=1, out=products)
    np.multiply(products[:, :n - full], b[:, full:], out=products[:, :n - full])
    sums = np.log(products, out=products).sum(axis=1)
    small = sums < n * _LOG1P_FLOOR
    if small.any():
        sums[small] = np.log1p(e[small]).sum(axis=1)
    return sums


def log_likelihood(data, params: QrseParams, grid: EvalGrid | None = None) -> float:
    """Log-likelihood of observed outcomes under the model.

    Per-observation terms are exact at each data point; only the partition
    function uses a grid. ``_sort_data`` checks and sorts the data on every
    call, so the value does not depend on the data's order. With ``grid=None``
    it is the one-row case of ``_log_likelihood_rows``, the sampler's bits. An
    explicit grid is used as given, in the pointwise reference: the sum of
    ``log_kernel`` over the data less N times ``build_density``'s log Z.
    """
    data = _sort_data(data)
    if data is None:
        raise ValueError("log_likelihood requires at least one observation")
    if grid is None:
        return float(_log_likelihood_rows(data, params.as_array()[None])[0])
    kernel_sum = float(np.sum(log_kernel(data.x, params)))
    return kernel_sum - data.x.size * build_density(params, grid).log_z


def _log_likelihood_rows(data: _SortedData, rows: np.ndarray) -> np.ndarray:
    """``log_likelihood(values, QrseParams.from_array(row))`` at each row of
    ``rows``, where ``data`` is ``_sort_data(values)`` of nonempty
    ``values`` (the sampler sorts once per run): ``_data_log_kernel``'s sums
    less N times ``_local_log_z_rows``' log Z, on local grids built per row."""
    log_z = _local_log_z_rows(rows)  # first: it raises for an oversized grid
    return _data_log_kernel(data, rows) - data.x.size * log_z


def _kernel_derivatives(x: np.ndarray, row: np.ndarray, t: np.ndarray, tr: np.ndarray,
                        weights: np.ndarray, dot=np.dot):
    """The log kernel's derivatives in (log T, log S, mu, alpha) at the
    points ``x`` for one ``row``, given t and t r as ``_log_kernel_block``
    leaves them: dk, shaped (4, x.size), and the sum over the points of
    ``weights`` times d^2k, shaped (4, 4), taken with ``dot``.

    With u = (x - mu)/T, r = (x - alpha)/S, s = 1 - t^2 and q = s (u + r),
    dk = (u q, t r, q/T, t/S). With q_u = dq/du = s (1 - 2 t (u + r)) and
    a = q + u q_u, d^2k is

        -u a     -u s r   -a/T       -u s/S
                 -t r     -s r/T     -t/S
                          -q_u/T^2   -s/(T S)
                                      0

    Where tanh saturates (s = 0) only the t r and t/S terms are left.
    """
    T, S, mu, alpha = row.tolist()
    u, r = (x - mu) / T, (x - alpha) / S
    s = 1.0 - t * t
    ur = u + r
    q = s * ur
    dk = np.array([u * q, tr, q / T, t / S])
    qu = s * (1.0 - 2.0 * (t * ur))
    a = u * qu + q
    ws = weights * s
    wsu = ws * u
    tt, ts, tm, ta = dot(weights, u * a), dot(wsu, r), dot(weights, a) / T, wsu.sum() / S
    ss, sm, sa = dot(weights, tr), dot(ws, r) / T, dot(weights, t) / S
    mm, ma = dot(weights, qu) / (T * T), ws.sum() / (T * S)
    second = -np.array([[tt, ts, tm, ta], [ts, ss, sm, sa], [tm, sm, mm, ma], [ta, sa, ma, 0.0]])
    return dk, second


# Not a BLAS dot: in a fresh process one can take milliseconds to start its
# thread pool.
_einsum_dot = functools.partial(np.einsum, "i,i->")


def _log_likelihood_derivatives(data: _SortedData, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``_log_likelihood_rows`` at one row, without
    a grid, in (log T, log S, mu, alpha).

    The data part sums ``_kernel_derivatives`` over the sorted points, in
    _BLOCK chunks. Each of the N log Z terms adds -E[dk] and -(E[d^2k] +
    Cov(dk)) under the weights its value sums: ``EvalGrid.local``'s grid
    and its two saturated tails. Past an end point e of that grid the m-th
    point weighs w_e rho^m, rho = exp(-dx/S), and has dk_e and d^2k_e, less
    m dx/S at (log S, log S) and plus m dx/S in dk's log S slot. So the
    tails' moments are geometric sums in closed form: A = sum rho^m =
    1/expm1(dx/S), sum m rho^m = A (1 + A) and sum m^2 rho^m = A (1 + A)
    (1 + 2 A).
    """
    grid = EvalGrid.local(QrseParams.from_array(row))
    step = grid.spacing / row[1]
    tail = 1.0 / math.expm1(step)
    x, points = data.x, grid.points

    def terms(points):  # the log kernel, t and t r
        kernel, tr, t = np.empty((3, points.size))
        with np.errstate(over="ignore"):
            _log_kernel_block(points, _Columns._make(row.tolist()), kernel, tr, t)
        return kernel, t, tr

    gradient, hessian = np.zeros(4), np.zeros((4, 4))
    for start in range(0, x.size, _BLOCK):
        chunk = x[start:start + _BLOCK]
        dk, second = _kernel_derivatives(chunk, row, *terms(chunk)[1:], np.ones(chunk.size), _einsum_dot)
        gradient += dk.sum(axis=1)
        hessian += second

    kernel, t, tr = terms(points)
    weights = np.exp(kernel - kernel.max())
    ends = weights[[0, -1]]
    weights[[0, -1]] *= 1.0 + tail
    dk, second = _kernel_derivatives(points, row, t, tr, weights, _einsum_dot)
    linear = tail * (1.0 + tail) * step  # sum m rho^m dx/S
    first = np.einsum("ai,i->a", dk, weights)
    first[1] += linear * ends.sum()
    second[1, 1] -= linear * ends.sum()
    mean = first / weights.sum()
    centred = dk - mean[:, None]
    spread = np.einsum("ai,bi,i->ab", centred, centred, weights)
    cross = linear * (centred[:, [0, -1]] @ ends)
    spread[1] += cross
    spread[:, 1] += cross
    spread[1, 1] += linear * (1.0 + 2.0 * tail) * step * ends.sum()
    return gradient - x.size * mean, hessian - x.size * (second + spread) / weights.sum()


def bin_probabilities(edges, params: QrseParams, grid: EvalGrid | None = None) -> np.ndarray:
    """Model probability mass per histogram bin.

    Masses come from differencing the piecewise-linear cell CDF at the bin
    edges, so a bin edge that cuts through a quadrature cell receives the
    proportional share of that cell's mass. Mass outside [edges[0],
    edges[-1]] is folded into the first and last bins so the result sums to
    the full grid mass (1 within 1e-9).

    Raises
    ------
    EmptyBinGrid
        If any bin contains no grid point at all, which means the grid is too
        coarse to resolve the requested binning.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("bin edges must be strictly increasing")
    table = build_density(params, grid)
    points = table.grid.points
    per_bin = np.diff(np.searchsorted(points, edges))
    if np.any(per_bin == 0):
        empty = int(np.nonzero(per_bin == 0)[0][0])
        raise EmptyBinGrid(
            f"bin {empty} [{edges[empty]:g}, {edges[empty + 1]:g}) contains no "
            f"grid point; refine the grid or coarsen the bins"
        )
    cell_edges, cumulative = table.cell_cdf()
    return _fold_bins(cumulative, cell_edges, np.clip(edges, cell_edges[0], cell_edges[-1]))


def _fold_bins(cumulative: np.ndarray, cell_edges: np.ndarray, clipped: np.ndarray) -> np.ndarray:
    """Bin probabilities from the cell CDF ``cumulative`` at ``cell_edges``:
    its differences between the bin edges ``clipped`` to the cells, with the
    mass beyond the first and last edge folded into the end bins."""
    cdf_at_edges = np.interp(clipped, cell_edges, cumulative)
    probabilities = np.diff(cdf_at_edges)
    # Tail folding: observed histograms truncate support, the model does not.
    probabilities[0] += cdf_at_edges[0]
    probabilities[-1] += cumulative[-1] - cdf_at_edges[-1]
    return probabilities
