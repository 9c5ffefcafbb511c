"""One measured process of the benchmark.

``python perfbench/child.py SPEC.json`` imports the program from the
checkout's ``src``, optionally installs the tracing wrappers, and runs
one of two bodies:

``cli``
    calls the CLI's own ``main`` with ``spec["argv"]`` -- the same code
    path as ``python -m repro ...`` -- after applying the workload's
    input from outside: ``seed_offset`` becomes the default of the
    CLI's ``BenchmarkData``.
``cells``
    computes protocol cell payloads in-process through the public cell
    API (``cell_from_payload`` + ``run_cells``) and reports each cell's
    simulated seconds: the reference the served replies must equal.

The result (timings, peak RSS, deduplicated simulation records and,
when traced, the span rollup) is written to ``spec["result"]``.  The
program's own stdout passes through untouched.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _load_spec() -> dict:
    with open(sys.argv[1], encoding="utf-8") as fh:
        return json.load(fh)


SPEC = _load_spec()
sys.path.insert(0, SPEC["src"])
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import resource  # noqa: E402

# the program's modules load before T_READY, so imports count as
# set-up, not as part of the measured pass
import repro.__main__ as cli  # noqa: E402
from repro.harness import parallel, runner  # noqa: E402,F401
from repro.service import protocol  # noqa: E402,F401

import counters  # noqa: E402
import tracing  # noqa: E402

T_READY = time.perf_counter()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_keys() -> set[str]:
    directory = os.environ["REPRO_CACHE_DIR"]
    try:
        return {n[:-5] for n in os.listdir(directory)
                if n.endswith(".json")}
    except FileNotFoundError:
        return set()


#: the CLI's data sets, kept alive past ``main`` for their records
CLI_DATA: list = []


def _apply_seed(spec: dict) -> None:
    seed_offset = spec.get("seed_offset")
    if seed_offset is not None:
        base = runner.BenchmarkData

        class SeededData(base):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("seed_offset", seed_offset)
                super().__init__(*args, **kwargs)
                CLI_DATA.append(self)

        cli.BenchmarkData = SeededData


def _run_cli(spec: dict) -> dict:
    _apply_seed(spec)
    before = _cache_keys()
    t0 = time.perf_counter()
    status = cli.main(list(spec["argv"]))
    wall = time.perf_counter() - t0
    return {"status": status, "wall": wall, "t0": t0,
            "peak_rss_mb": _peak_rss_mb(),
            "records": counters.summarize(counters.collect_records(
                # positional, as the cell API calls it (the lru key)
                CLI_DATA + [runner.default_data(0.02, 0.05)]), before)}


def _run_cells(spec: dict) -> dict:
    from repro.harness.parallel import run_cells
    from repro.service.protocol import cell_from_payload

    scales = {"threat_scale": spec["threat_scale"],
              "terrain_scale": spec["terrain_scale"]}
    t0 = time.perf_counter()
    seconds = []
    for payload in spec["cells"]:
        cell = cell_from_payload(payload, **scales)
        record = run_cells([cell], **scales)[cell["key"]]
        seconds.append(record["seconds"].hex())
    return {"status": 0, "wall": time.perf_counter() - t0, "t0": t0,
            "peak_rss_mb": _peak_rss_mb(), "seconds_hex": seconds}


def main() -> int:
    tracer = installed = None
    if SPEC.get("trace"):
        tracer = tracing.Tracer(SPEC["run_id"])
        installed = tracing.install(tracer)
    try:
        body = _run_cli if SPEC["mode"] == "cli" else _run_cells
        result = body(SPEC)
    finally:
        if installed is not None:
            installed.restore()
    result["t_ready"] = T_READY
    if tracer is not None:
        result["trace"] = counters.trace_rollup(tracer, result["t0"],
                                                result["wall"])
        tracer.dump(SPEC["spans"])
    with open(SPEC["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # the result is on disk: skip tearing down a large heap
    os._exit(status)
