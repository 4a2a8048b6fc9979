"""Run the qrse pipeline in one process with a span around each layer call.

    python3 perfbench/traced.py SPANS_CSV RUN_ID STAGES_JSON

STAGES_JSON is a JSON list of CLI argument lists, one per stage, run in
order through ``qrse.cli.main``. Every stage is a root span named
``cli.<stage>``; calls into the package's public functions (and the CLI's
JSON helpers) nest under it. Spans are kept in memory and written to
SPANS_CSV when the pipeline ends, one row per span:
``index,name,start,end,parent,run_id`` with perf_counter seconds and
parent -1 for roots. The process exits 1 if any stage returned non-zero.

Wrappers live in this file only; the package is unchanged. A name imported
into another module is patched where it is looked up, so e.g. the MAP
objective's ``bin_probabilities`` is wrapped in ``qrse.mapfit``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name). Several modules can share one span name
# because they hold the same function under an imported name.
PATCHES = (
    ("cli", "_write_json", "cli.write_json"),
    ("cli", "_load_json", "cli.load_json"),
    ("ingest", "read_records", "ingest.read_records"),
    ("ingest", "clean", "ingest.clean"),
    ("ingest", "fiscal_summary", "ingest.fiscal_summary"),
    ("ingest", "build_histogram", "ingest.build_histogram"),
    ("mapfit", "fit_map", "mapfit.fit_map"),
    ("mapfit", "bin_probabilities", "model.bin_probabilities"),
    ("mcmc", "run_chains", "mcmc.run_chains"),
    ("mcmc", "run_chain", "mcmc.run_chain"),
    ("mcmc", "log_posterior", "mcmc.log_posterior"),
    ("mcmc", "log_likelihood", "model.log_likelihood"),
    ("mcmc", "build_density", "model.build_density"),
    ("mcmc", "save_trace", "mcmc.save_trace"),
    ("mcmc", "load_trace", "mcmc.load_trace"),
    ("model", "build_density", "model.build_density"),
    ("model", "log_kernel", "model.log_kernel"),
    ("model", "bin_probabilities", "model.bin_probabilities"),
    ("diagnostics", "summarize", "diagnostics.summarize"),
    ("diagnostics", "bin_probabilities", "model.bin_probabilities"),
    ("synthetic", "sample", "synthetic.sample"),
    ("synthetic", "build_density", "model.build_density"),
)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread.

    Spans go into flat arrays rather than one Python object each, so a
    pipeline's hundreds of thousands of spans add no garbage-collector work.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def span(self, name_id: int, fn, *args, **kwargs):
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.starts[index] = start
            self.ends[index] = end

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name_id, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,run_id\n")
            for index, (name_id, start, end, parent) in enumerate(
                zip(self.name_ids, self.starts, self.ends, self.parents)
            ):
                handle.write(f"{index},{self.names[name_id]},{start!r},{end!r},{parent},{self.run_id}\n")


def _run_stage(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exit_:  # argparse rejects bad arguments this way
            return exit_.code if isinstance(exit_.code, int) else 2


def main() -> int:
    spans_path, run_id, stages_json = sys.argv[1:4]
    sys.path.insert(0, str(SRC))
    import qrse.cli

    tracer = Tracer(run_id)
    for module_name, attribute, span_name in PATCHES:
        module = getattr(qrse, module_name)
        setattr(module, attribute, tracer.wrap(span_name, getattr(module, attribute)))

    codes = [
        tracer.span(tracer.name_id(f"cli.{argv[0]}"), _run_stage, qrse.cli.main, argv)
        for argv in json.loads(stages_json)
    ]
    tracer.write(Path(spans_path))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
