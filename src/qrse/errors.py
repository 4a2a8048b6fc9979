"""Exception types raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto exit codes without string matching. All of
them derive from ``QrseError``.
"""


class QrseError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QrseError):
    """An input file could not be parsed; the message carries the line number."""


class GridTooNarrow(QrseError):
    """Density mass at an outermost grid cell exceeds the truncation limit.

    Raised by density construction when the evaluation grid visibly clips the
    support of the distribution, which would silently bias the partition
    function and every quantity downstream of it.
    """


class GridTooLarge(QrseError):
    """A quadrature grid would need more points than the package allows.

    Raised before the grid is allocated, so an extreme ratio of T to S
    surfaces as an error rather than as a MemoryError.
    """


class EmptyBinGrid(QrseError):
    """A histogram bin contains no grid point, so bin probabilities would be
    computed from interpolation alone. Signals that the grid spacing is too
    coarse for the requested bin edges."""


class LengthMismatch(QrseError):
    """Two distributions that must be compared bin-by-bin differ in length."""


class NegativeDivergence(QrseError):
    """A divergence value that must be nonnegative was negative."""


class NoDescent(QrseError):
    """Every optimization start failed to improve on its initial objective."""


class OutOfSupport(QrseError):
    """Parameter values fall outside the prior truncation bounds."""


class StuckChain(QrseError):
    """Post-tune acceptance rate fell below the minimum useful level."""


class BadStart(QrseError, ValueError):
    """A chain's initial point has a non-finite log posterior. The message
    names the chain and each parameter outside the prior support or the
    location box."""


class InsufficientDraws(QrseError):
    """Too few chains or draws to compute a convergence statistic."""


class TooFewSamples(QrseError):
    """Too few samples to summarize a posterior quantity."""


class DegenerateRange(QrseError):
    """All values are identical, so no histogram binning exists."""


class AllExcluded(QrseError):
    """Every input record was excluded by the cleaning rules."""


class ZeroDenominator(QrseError):
    """A per-pupil or per-capita ratio has a zero denominator."""
