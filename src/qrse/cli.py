"""Command-line pipeline for fitting return distributions.

Subcommands hand artifacts to each other through files in the output
directory, so the expensive stages cache across reruns:

    qrse simulate --outdir run             (optional: make synthetic data)
    qrse ingest   --input data.csv --outdir run
    qrse fit      --outdir run
    qrse sample   --outdir run --chains 3 --draws 30000 --tune 4000
    qrse report   --outdir run

Settings resolve as flags > config file (--config, flat "key = value"
lines) > built-in defaults. Exit codes: 0 success, 2 input or config
problems, 3 optimization failure, 4 sampler failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, ingest, mapfit, mcmc, model, synthetic
from .errors import BadStart, NoDescent, ParseError, QrseError, StuckChain

CLEANED_FILE = "cleaned.json"
HISTOGRAM_FILE = "histogram.json"
MAP_FILE = "map.json"
TRACE_FILE = "trace.csv"
REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
FIT_CURVE_FILE = "fit_curve.csv"
QUANTAL_FILE = "quantal_response.csv"
VARIATION_FILE = "parameter_variation.csv"

# The parameter-variation export's symmetric baseline and the values each
# parameter takes, like its x grid of +-90, in data units (mapfit.data_unit).
VARIATION_BASELINE = model.QrseParams(T=5.0, S=5.0, mu=0.0, alpha=0.0)
VARIATION_VALUES = {
    "T": (2.5, 5.0, 10.0),
    "S": (2.5, 5.0, 10.0),
    "mu": (-5.0, 0.0, 5.0),
    "alpha": (-5.0, 0.0, 5.0),
}

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Help for the prior sds' and bounds' defaults, in data units (mapfit.data_unit).
_SCALE_SD, _LOCATION_SD, _LOW, _HIGH = (f"{value:g} × data unit" for value in (
    mcmc.DEFAULT_SCALE_SD, mcmc.DEFAULT_LOCATION_SD, *mapfit.DEFAULT_SCALE_BOUNDS))

# Every setting a flag or config file can supply: key -> (parser for config
# file and flag text, built-in default, the subcommands that take it as the
# flag --key-with-dashes (None: every one), flag help). A setting parsed by
# _parse_bool is a valueless switch. Flags are listed in this order.
SETTINGS = {
    "outdir": (str, ".", None, "directory for pipeline artifacts"),
    "seed": (int, 0, None, "seed for all randomized steps"),
    "input": (str, None, ("ingest",), "district CSV file"),
    "bins": (str, "fd", ("ingest",), "bin count or 'fd'"),
    "extreme_lo": (float, ingest.DEFAULT_EXTREME_LOW, ("ingest",),
                   "lower extreme-value bound, data units"),
    "extreme_hi": (float, ingest.DEFAULT_EXTREME_HIGH, ("ingest",),
                   "upper extreme-value bound, data units"),
    "years": (str, "-".join(map(str, ingest.DEFAULT_YEARS)), ("ingest",),
              "year filter, YYYY or YYYY-YYYY"),
    "restarts": (int, mapfit.DEFAULT_RESTARTS, ("fit",), "extra Latin-hypercube starts"),
    "reverse_kl": (_parse_bool, False, ("fit",), "fit the likelihood-consistent direction"),
    "chains": (int, mcmc.ChainConfig.chains, ("sample",), "number of chains (>= 2)"),
    "draws": (int, mcmc.ChainConfig.draws, ("sample",), "post-tune draws per chain"),
    "tune": (int, mcmc.ChainConfig.tune, ("sample",),
             "burn-in steps per chain (random walk: adaptation)"),
    # Prior settings left at None are filled by _priors_from_settings.
    "prior_t_center": (float, None, ("sample",), "prior center for t (default: MAP)"),
    "prior_t_sd": (float, None, ("sample",), f"prior sd for t (default: {_SCALE_SD})"),
    "prior_s_center": (float, None, ("sample",), "prior center for s (default: MAP)"),
    "prior_s_sd": (float, None, ("sample",), f"prior sd for s (default: {_SCALE_SD})"),
    "prior_mu_center": (float, None, ("sample",), "prior center for mu (default: MAP)"),
    "prior_mu_sd": (float, None, ("sample",), f"prior sd for mu (default: {_LOCATION_SD})"),
    "prior_alpha_center": (float, None, ("sample",), "prior center for alpha (default: MAP)"),
    "prior_alpha_sd": (float, None, ("sample",), f"prior sd for alpha (default: {_LOCATION_SD})"),
    "prior_bound_low": (float, None, ("sample",),
                        f"lower truncation bound for T and S (default: {_LOW})"),
    "prior_bound_high": (float, None, ("sample",),
                         f"upper truncation bound for T and S (default: {_HIGH})"),
    "t": (float, 5.0, ("simulate",), "behavior temperature"),
    "s": (float, 5.0, ("simulate",), "market scale"),
    "mu": (float, 0.0, ("simulate",), "tipping point"),
    "alpha": (float, 0.0, ("simulate",), "barycenter"),
    "n": (int, 10000, ("simulate",), "number of draws"),
}


# A config comment starts at a '#' that begins the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path) -> dict:
    """Flat key = value settings; keys use underscores.

    A '#' at the start of a line or after whitespace starts a comment; any
    other '#' is part of the value, as in ``input = runs/#3/data.csv``.
    """
    settings = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = _COMMENT.split(raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in SETTINGS:
                raise ParseError(f"{path}: line {line_no}: unknown setting {key!r}")
            try:
                settings[key] = SETTINGS[key][0](value)
            except ValueError as err:
                raise ParseError(f"{path}: line {line_no}: {err}") from None
    return settings


def _resolve(args: argparse.Namespace) -> dict:
    file_settings = read_config_file(args.config) if getattr(args, "config", None) else {}
    settings = {key: default for key, (_, default, _, _) in SETTINGS.items()}
    settings.update(file_settings)
    for key in SETTINGS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def _parse_years(text: str) -> tuple[int, int]:
    parts = text.split("-")
    try:
        if len(parts) == 1:
            year = int(parts[0])
            return year, year
        if len(parts) == 2:
            low, high = int(parts[0]), int(parts[1])
            if low > high:
                raise ValueError
            return low, high
    except ValueError:
        pass
    raise ParseError(f"--years must be YYYY or YYYY-YYYY, got {text!r}")


def _parse_bins(text: str):
    if text == "fd":
        return "fd"
    try:
        count = int(text)
    except ValueError:
        raise ParseError(f"--bins must be an integer or 'fd', got {text!r}") from None
    if count < 1:
        raise ParseError(f"--bins must be positive, got {count}")
    return count


def _load_json(path: Path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return payload


def _json_member(value) -> str:
    """``value`` as ``json.dumps(payload, indent=2)`` writes it one level in.

    ``indent`` runs the pure-Python encoder, so a flat list (no ``[`` past
    the first character and no ``{``) or a scalar goes through the C
    encoder, with the indented item separator; anything else is indented
    whole. A string that holds ``[`` or ``{`` only takes the slower branch.
    """
    text = json.dumps(value, separators=(",\n    ", ": "))
    if "[" in text[1:] or "{" in text:
        return json.dumps(value, indent=2).replace("\n", "\n  ")
    if text.startswith("[") and text != "[]":
        return "[\n    " + text[1:-1] + "\n  ]"
    return text


def _write_json(path: Path, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2) + "\n"``, byte for byte, for a
    dict with str keys."""
    members = ",\n".join(
        f"  {json.dumps(key)}: {_json_member(value)}" for key, value in payload.items()
    )
    text = "{\n" + members + "\n}\n" if payload else "{}\n"
    path.write_text(text, encoding="utf-8")


def _load_artifact(path: Path, what: str, from_json):
    payload = _load_json(path, what)
    try:
        return from_json(payload)
    except KeyError as err:
        raise ParseError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError, OverflowError) as err:  # a JSON integer past float's range
        raise ParseError(f"{path}: {err}") from None


def _load_histogram(outdir: Path) -> ingest.HistogramSpec:
    return _load_artifact(outdir / HISTOGRAM_FILE, "histogram", ingest.HistogramSpec.from_json)


def cmd_ingest(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    if not settings["input"]:
        raise ParseError("ingest requires --input (or 'input' in the config file)")
    years = _parse_years(settings["years"])
    outdir = Path(settings["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    records, skipped_years = ingest.read_records(settings["input"], years)
    cleaned = ingest.clean(records, settings["extreme_lo"], settings["extreme_hi"])
    hist = ingest.build_histogram(cleaned.values, _parse_bins(str(settings["bins"])))

    _write_json(outdir / CLEANED_FILE, cleaned.to_json())
    _write_json(outdir / HISTOGRAM_FILE, hist.to_json())

    print(
        f"kept {cleaned.values.size} of {len(records)} records "
        f"({cleaned.excluded_missing} missing, {cleaned.excluded_extreme} extreme, "
        f"{skipped_years} outside {years[0]}-{years[1]})"
    )
    print(f"{'variable':<10} {'mean':>10} {'sd':>10} {'min':>10} {'max':>10}")
    for name, (mean, sd, low, high) in cleaned.fiscal.items():
        print(f"{name:<10} {mean:>10.2f} {sd:>10.2f} {low:>10.2f} {high:>10.2f}")
    print(f"wrote {outdir / CLEANED_FILE} and {outdir / HISTOGRAM_FILE}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    outdir = Path(settings["outdir"])
    hist = _load_histogram(outdir)
    result = mapfit.fit_map(
        hist,
        restarts=settings["restarts"],
        seed=settings["seed"],
        reverse=settings["reverse_kl"],
    )
    _write_json(outdir / MAP_FILE, result.to_json())
    p = result.params
    print(f"T={p.T:.4f} S={p.S:.4f} mu={p.mu:.4f} alpha={p.alpha:.4f}")
    print(f"KL divergence: {result.kl:.6f}")
    print(f"Soofi ID:      {result.soofi_id:.6f}")
    print(
        f"converged={result.converged} iterations={result.iterations} "
        f"restarts={result.restarts_used}"
    )
    return 0


def _priors_from_settings(settings: dict, map_params: model.QrseParams,
                          unit: float) -> mcmc.PriorSpec:
    # A prior field the settings leave unset takes the MAP's value for a centre
    # and PriorSpec's default times the data unit for an sd or a bound.
    fallbacks = {f"{f.name.lower()}_center": getattr(map_params, f.name)
                 for f in dataclasses.fields(map_params)}
    fallbacks |= {f.name: unit * f.default for f in dataclasses.fields(mcmc.PriorSpec)
                  if f.init and f.default is not dataclasses.MISSING}
    return mcmc.PriorSpec(**{
        name: fallback if settings[f"prior_{name}"] is None else settings[f"prior_{name}"]
        for name, fallback in fallbacks.items()
    })


def cmd_sample(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    outdir = Path(settings["outdir"])
    map_result = _load_artifact(outdir / MAP_FILE, "MAP", mapfit.MapResult.from_json)
    cleaned = _load_artifact(
        outdir / CLEANED_FILE, "cleaned sample", ingest.CleanedSample.from_json
    )
    unit = mapfit.data_unit(_load_histogram(outdir))

    priors = _priors_from_settings(settings, map_result.params, unit)
    config = mcmc.ChainConfig(**{key: settings[key] for key in ("chains", "draws", "tune", "seed")})
    posterior = mcmc.run_chains(cleaned.values, priors, config)
    mcmc.save_trace(posterior, outdir / TRACE_FILE)
    rates = " ".join(f"{r:.3f}" for r in posterior.acceptance_rates)
    print(f"acceptance rates: {rates} (kernel: {posterior.kernel})")
    print(f"wrote {outdir / TRACE_FILE}")
    return 0


def _write_csv(path: Path, header: str, columns) -> None:
    """One row per element of the equal-length float ``columns``, each value
    written as its repr, which round-trips float64 exactly."""
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n" + text)


def _export_fit_curve(path: Path, hist: ingest.HistogramSpec, table: model.DensityTable,
                      params: model.QrseParams) -> None:
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    widths = np.diff(hist.edges)
    observed_density = hist.frequencies / widths
    fitted = np.exp(model.log_kernel(centers, params) - table.log_z)
    _write_csv(
        path,
        "x,observed_density,fitted_pdf",
        (centers, observed_density, fitted),
    )


def _export_quantal_response(path: Path, table: model.DensityTable,
                             params: model.QrseParams) -> None:
    x = table.grid.points
    entry = model.entry_probability(x, params)
    exit_ = model.exit_probability(x, params)
    _write_csv(
        path,
        "x,entry_probability,exit_probability,pdf,entry_joint_density,exit_joint_density",
        (x, entry, exit_, table.pdf, table.pdf * entry, table.pdf * exit_),
    )


def _export_parameter_variation(path: Path, unit: float) -> None:
    base = model.QrseParams(*(unit * VARIATION_BASELINE.as_array()).tolist())
    grid = model.EvalGrid.from_bounds(-90.0 * unit, 90.0 * unit, 1201)
    # The x cells are the same in every block, so they are formatted once.
    x_cells = [f"{x!r}," for x in grid.points.tolist()]
    parts = ["parameter,value,x,pdf\n"]
    for name, values in VARIATION_VALUES.items():
        for value in (unit * v for v in values):
            table = model.build_density(dataclasses.replace(base, **{name: value}), grid)
            prefix = f"{name},{value!r},"
            parts += [f"{prefix}{x}{p!r}\n" for x, p in zip(x_cells, table.pdf.tolist())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


def cmd_report(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    outdir = Path(settings["outdir"])
    trace_path = outdir / TRACE_FILE
    if not trace_path.exists():
        raise ParseError(f"trace file not found: {trace_path}")
    posterior = mcmc.load_trace(trace_path)
    hist = _load_histogram(outdir)

    report = diagnostics.summarize(posterior, hist)
    _write_json(outdir / REPORT_JSON, report.to_json())
    text = report.to_text()
    (outdir / REPORT_TEXT).write_text(text + "\n", encoding="utf-8")

    mean_params = model.QrseParams(**{name: summary.mean for name, summary in report.rows})
    # One density at the posterior mean, on a grid that covers every
    # histogram edge, feeds both the fit curve and the quantal export.
    table = model.build_density(mean_params, diagnostics.report_grid(mean_params, hist))
    _export_fit_curve(outdir / FIT_CURVE_FILE, hist, table, mean_params)
    _export_quantal_response(outdir / QUANTAL_FILE, table, mean_params)
    _export_parameter_variation(outdir / VARIATION_FILE, mapfit.data_unit(hist))

    print(text)
    print(
        f"wrote {outdir / REPORT_JSON}, {outdir / REPORT_TEXT}, "
        f"{outdir / FIT_CURVE_FILE}, {outdir / QUANTAL_FILE}, {outdir / VARIATION_FILE}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    outdir = Path(settings["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    params = model.QrseParams(
        T=settings["t"], S=settings["s"], mu=settings["mu"], alpha=settings["alpha"]
    )
    config = synthetic.SampleConfig(n=settings["n"], seed=settings["seed"])
    draws = synthetic.sample(params, config)

    # District rows that ingest maps back onto exactly these x values:
    # positive returns become per-pupil expenditures, negative ones
    # per-capita taxes, with unit enrollment and population.
    path = outdir / "synthetic.csv"
    year = 2008
    # max keeps the bytes of a -0.0 draw: spend "-0.0", tax "0.0".
    text = "".join(
        f"synth-{index:06d},{year},{max(x, 0.0)!r},{max(-x, 0.0)!r},1,1\n"
        for index, x in enumerate(draws.tolist())
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(ingest.CSV_HEADER) + "\n" + text)
    mean, sd = ingest.mean_and_sd(draws)
    print(f"wrote {draws.size} rows to {path} (mean {mean:.3f}, sd {sd:.3f})")
    return 0


# Subcommand -> (handler, help), in the order --help lists them.
COMMANDS = {
    "ingest": (cmd_ingest, "read, clean, and bin a district CSV"),
    "fit": (cmd_fit, "MAP point estimate from the histogram"),
    "sample": (cmd_sample, "posterior MCMC from the MAP point"),
    "report": (cmd_report, "diagnostics table and plot data"),
    "simulate": (cmd_simulate, "generate synthetic district data"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrse",
        description="Fit maximum-entropy return distributions to district data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="flat key = value settings file")
        for key, (parse, _, commands, flag_help) in SETTINGS.items():
            if commands is not None and command not in commands:
                continue
            flags = ["--" + key.replace("_", "-")]
            if key == "n":
                flags.insert(0, "-n")
            if parse is _parse_bool:
                p.add_argument(*flags, action="store_const", const=True, help=flag_help)
            else:
                p.add_argument(*flags, type=parse, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = COMMANDS[args.command][0]
    try:
        return handler(args)
    except (StuckChain, BadStart) as err:
        print(f"error: sampler failed: {err}", file=sys.stderr)
        return 4
    except NoDescent as err:
        print(f"error: optimization failed: {err}", file=sys.stderr)
        return 3
    except (QrseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
