"""Maximum-entropy models of local school-finance returns.

The package builds a four-parameter equilibrium density over educational
returns, fits it to district data by minimum KL divergence, samples the
Bayesian posterior with Metropolis-Hastings (an independence sampler from
the Laplace fit, or a random walk where that fit is unusable), and reports
convergence and fit diagnostics. See the ``qrse`` console script for the
file-based pipeline.

SciPy is imported only inside the MAP fit, never at module level: every CLI
stage is a fresh process, and SciPy's statistics subpackage alone would cost
each of them about a second. ``tests/test_imports.py`` holds every stage but
``fit`` to no SciPy at all.
"""

from .diagnostics import (
    FitReport,
    ParamSummary,
    hdi,
    posterior_mode,
    split_rhat,
    summarize,
)
from .errors import (
    AllExcluded,
    DegenerateRange,
    EmptyBinGrid,
    GridTooLarge,
    GridTooNarrow,
    InsufficientDraws,
    LengthMismatch,
    NegativeDivergence,
    NoDescent,
    OutOfSupport,
    ParseError,
    QrseError,
    StuckChain,
    TooFewSamples,
    ZeroDenominator,
)
from .ingest import (
    CleanedSample,
    DistrictRecord,
    HistogramSpec,
    build_histogram,
    clean,
    compute_returns,
    fiscal_summary,
    read_records,
)
from .mapfit import MapResult, fit_map, kl_divergence, soofi_id
from .mcmc import (
    ChainConfig,
    PosteriorDraws,
    PriorSpec,
    build_sampling_grid,
    load_trace,
    log_posterior,
    run_chain,
    run_chains,
    save_trace,
)
from .model import (
    DensityTable,
    EvalGrid,
    QrseParams,
    bin_probabilities,
    build_density,
    choice_difference,
    conditional_entropy,
    entry_probability,
    exit_probability,
    log_kernel,
    log_likelihood,
    payoff_difference,
)
from .synthetic import SampleConfig, rng_from_seed, sample, sample_from_table

__version__ = "0.1.0"

__all__ = [
    "AllExcluded",
    "ChainConfig",
    "CleanedSample",
    "DegenerateRange",
    "DensityTable",
    "DistrictRecord",
    "EmptyBinGrid",
    "EvalGrid",
    "FitReport",
    "GridTooLarge",
    "GridTooNarrow",
    "HistogramSpec",
    "InsufficientDraws",
    "LengthMismatch",
    "MapResult",
    "NegativeDivergence",
    "NoDescent",
    "OutOfSupport",
    "ParamSummary",
    "ParseError",
    "PosteriorDraws",
    "PriorSpec",
    "QrseError",
    "QrseParams",
    "SampleConfig",
    "StuckChain",
    "TooFewSamples",
    "ZeroDenominator",
    "bin_probabilities",
    "build_density",
    "build_histogram",
    "build_sampling_grid",
    "choice_difference",
    "clean",
    "compute_returns",
    "conditional_entropy",
    "entry_probability",
    "exit_probability",
    "fiscal_summary",
    "fit_map",
    "hdi",
    "kl_divergence",
    "load_trace",
    "log_kernel",
    "log_likelihood",
    "log_posterior",
    "payoff_difference",
    "posterior_mode",
    "read_records",
    "rng_from_seed",
    "run_chain",
    "run_chains",
    "sample",
    "sample_from_table",
    "save_trace",
    "soofi_id",
    "split_rhat",
    "summarize",
]
