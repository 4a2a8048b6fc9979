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
closed form and is accurate to about 1e-11 relative.

All four parameters are in thousands of dollars. Operations broadcast over
numpy arrays and accept scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyBinGrid, GridTooLarge, GridTooNarrow

LN2 = math.log(2.0)

# Auto grids span this many units of max(T, S) beyond the location parameters.
# The build-time check bounds only the outermost cell's mass (EDGE_MASS_LIMIT),
# not the tail beyond it, about S / dx times that: at (2.1, 4.9, 8.66, 17.8) the
# cell holds 2.4e-7 but an auto grid loses 6.1e-5 of log Z. See ROADMAP 1(a).
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
    def spanning(
        cls, points, scale: float, cover=(), n_points: int = DEFAULT_GRID_POINTS
    ) -> "EvalGrid":
        """Grid reaching AUTO_SPAN_SCALES units of ``scale`` beyond every one
        of ``points``, and at least to every one of ``cover`` (unpadded).

        This is the one rule for how wide a quadrature grid must be.
        """
        pad = AUTO_SPAN_SCALES * scale
        low = min((min(points) - pad, *cover))
        high = max((max(points) + pad, *cover))
        return cls.from_bounds(low, high, n_points)

    @classmethod
    def auto(cls, params: QrseParams, n_points: int = DEFAULT_GRID_POINTS) -> "EvalGrid":
        """Grid spanning both locations plus AUTO_SPAN_SCALES units of max(T, S)."""
        return cls.spanning((params.mu, params.alpha), max(params.T, params.S), n_points=n_points)

    @classmethod
    def local(cls, params: QrseParams) -> "EvalGrid":
        """The grid ``local_log_z`` sums over at these parameters."""
        points, spacing = _local_axis(params)
        return cls(points=points, spacing=spacing)

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
    [0, ln 2] without clipping.
    """
    np.subtract(x, params.mu, out=u)
    u /= params.T
    np.tanh(u, out=t)
    np.abs(u, out=u)
    np.abs(t, out=out)
    np.subtract(1.0, out, out=out)
    out *= u
    out -= np.log1p(np.abs(t, out=u), out=u)
    out += LN2


def _log_kernel_block(x: np.ndarray, params: QrseParams, out: np.ndarray,
                      u: np.ndarray, t: np.ndarray) -> None:
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
                 t: np.ndarray) -> None:
    """Write the log kernel at each row of ``rows`` (T, S, mu, alpha) into the
    same row of ``out``, in chunks of _BLOCK columns. ``x`` is one 1-d set of
    points for every row, or one row of points per row.

    ``u`` and ``t`` are scratch with ``out``'s rows and min(columns, _BLOCK)
    columns. Callers allocate them and ``out`` once for all their blocks:
    buffers freed and allocated per block can be faulted in afresh each time,
    up to 150,000 page faults in an N=2000 ``sample`` against 13,500 with
    them kept (2-core Xeon VM, glibc).
    """
    if len(rows) == 1:
        # numpy runs scalar operands 5-10% faster than (1, 1) columns.
        x, out, u, t = x.reshape(-1), out[0], u[0], t[0]
        columns = _Columns._make(rows[0].tolist())
    else:
        columns = _Columns._make(rows.T[:, :, None])
    for start in range(0, out.shape[-1], _BLOCK):
        chunk = slice(start, start + _BLOCK)
        width = out[..., chunk].shape[-1]
        _log_kernel_block(x[..., chunk], columns, out[..., chunk], u[..., :width], t[..., :width])


def _blockwise(fill, x, params: QrseParams):
    """Apply ``fill(x_block, params, out_block)`` over x in _BLOCK chunks.

    Returns an array of x's shape, or a numpy scalar for scalar input.
    """
    values = np.asarray(x, dtype=float)
    flat = values.reshape(-1)
    out = np.empty_like(flat)
    u, t = np.empty((2, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        block = out[start:start + _BLOCK]
        fill(flat[start:start + _BLOCK], params, block, u[:block.size], t[:block.size])
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


def _local_halves(T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Half the point count, less one, of each row's local grid, as floats.

    Raises GridTooLarge for the first row whose grid would exceed
    MAX_LOCAL_POINTS.
    """
    half = SATURATION_SCALES * LOCAL_CELLS_PER_SCALE * T / np.minimum(T, S)
    if not half.max(initial=0.0) <= (MAX_LOCAL_POINTS - 1) // 2:  # also catches NaN and inf
        row = int(np.argmin(half <= (MAX_LOCAL_POINTS - 1) // 2))
        raise GridTooLarge(
            f"log Z at T={float(T[row])!r}, S={float(S[row])!r} needs a "
            f"{2 * half[row] + 1:.0f}-point grid (limit {MAX_LOCAL_POINTS}); "
            f"narrow the range of T and S"
        )
    return np.ceil(half)


def _local_spacing(halves: np.ndarray, T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Spacing of each row's 2 half + 1 point grid over mu +- 19.5 T.

    Raises GridTooLarge for the first row whose spacing divided by S
    underflows to 0.
    """
    spacing = SATURATION_SCALES * T / halves
    if not (spacing / S).min(initial=math.inf) > 0.0:
        row = int(np.argmin(spacing / S > 0.0))
        raise GridTooLarge(
            f"log Z at T={float(T[row])!r}, S={float(S[row])!r} needs a grid "
            f"spacing that underflows to 0"
        )
    return spacing


def _local_points(half: int, spacing: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """One row of 2 half + 1 grid points per (spacing, mu), centred on mu."""
    points = np.multiply.outer(spacing, np.arange(-half, half + 1))
    points += mu[:, None]
    return points


def _local_axis(params: QrseParams) -> tuple[np.ndarray, float]:
    """Uniform grid over mu +- 19.5 T. GridTooLarge if too large or too fine."""
    T, S, mu = (np.array([value], dtype=float) for value in (params.T, params.S, params.mu))
    halves = _local_halves(T, S)
    spacing = _local_spacing(halves, T, S)
    return _local_points(int(halves[0]), spacing, mu)[0], float(spacing[0])


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
    not go through ``log_kernel``, so a profile of ``log_kernel`` under
    ``log_likelihood`` shows the data side alone.

    Raises
    ------
    GridTooLarge
        As ``_local_axis``.
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
        As ``_local_axis``, for the first such row.
    """
    log_z = np.empty(len(rows))
    halves = _local_halves(rows[:, 0], rows[:, 1])
    spacings = _local_spacing(halves, rows[:, 0], rows[:, 1])
    sizes = sorted(set(halves.tolist()))
    for half in sizes:
        members = slice(None) if len(sizes) == 1 else (halves == half).nonzero()[0]
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


def log_likelihood(data, params: QrseParams, grid: EvalGrid | None = None) -> float:
    """Log-likelihood of observed outcomes under the model.

    Per-observation terms are evaluated exactly at each data point; only the
    partition function uses a grid. With ``grid=None`` that is
    ``local_log_z``'s grid, built for ``params``. An explicit grid is used as
    given, through ``build_density``. The data is checked on every call;
    the sampler's row evaluator, ``_log_likelihood_rows``, gives the same
    bits on data checked once.
    """
    values = np.asarray(data, dtype=float)
    if values.size == 0:
        raise ValueError("log_likelihood requires at least one observation")
    if not np.all(np.isfinite(values)):
        raise ValueError("log_likelihood requires finite observations")
    log_z = local_log_z(params) if grid is None else build_density(params, grid).log_z
    return float(np.sum(log_kernel(values, params))) - values.size * log_z


def _log_likelihood_rows(
    values: np.ndarray, rows: np.ndarray, grid: EvalGrid | None = None
) -> np.ndarray:
    """``log_likelihood(values, QrseParams.from_array(row), grid)`` at each
    row of ``rows``, bit for bit, for finite, nonempty ``values``.

    The data kernel runs on (rows, N) blocks of at most _BLOCK elements
    (one row in _BLOCK chunks when N is larger) and is summed per row; a
    row sum of a C-contiguous block is the same pairwise sum as a 1-d one.
    log Z comes from ``_local_log_z_rows``, or with an explicit grid from
    one ``build_density`` per row.
    """
    n = values.size
    step = max(1, _BLOCK // n)
    sums = np.empty(len(rows))
    kernel = np.empty((min(step, len(rows)), n))
    scratch = np.empty((2, len(kernel), min(n, _BLOCK)))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        out = kernel[:len(block)]
        _kernel_rows(values, block, out, *scratch[:, :len(block)])
        sums[start:start + step] = np.sum(out, axis=1)
    if grid is None:
        log_z = _local_log_z_rows(rows)
    else:
        log_z = np.array([build_density(QrseParams.from_array(row), grid).log_z for row in rows])
    return sums - n * log_z


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
    clipped = np.clip(edges, cell_edges[0], cell_edges[-1])
    cdf_at_edges = np.interp(clipped, cell_edges, cumulative)
    probabilities = np.diff(cdf_at_edges)
    # Tail folding: observed histograms truncate support, the model does not.
    probabilities[0] += cdf_at_edges[0]
    probabilities[-1] += cumulative[-1] - cdf_at_edges[-1]
    return probabilities
