"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload registry --seed 0 --seconds 60 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program, its times scaled to a reference CPU speed (``speed.py``);
``--trace 1`` makes a separate traced run and prints the per-layer
metrics instead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
give the box fingerprint, sample counts, the CPU speed the run saw,
counter changes and any failed check.  A copy of the result, with
every raw sample, goes to ``.perfbench_out/``.

The exit status is 0 when the run completed (``correct`` says whether
its outputs were right) and non-zero, with no result line, when the
run could not complete -- for example in a directory without the
program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sandbox  # noqa: E402
import speed  # noqa: E402


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each ``kind`` metric ``BENCHMARK.json`` declares."""
    with open(os.path.join(sandbox.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def per_layer(found: dict, attempted: int, failed: int) -> dict:
    """The traced run's values; a layer the workload does not reach
    reads 0."""
    found = dict(found)
    gets = found.get("store.cache_gets", 0)
    found["store.cache_hit_ratio"] = (
        found.get("store.cache_hits", 0) / gets if gets else 0.0)
    found["error_rate"] = failed / attempted
    return {name: {"value": found.get(name, 0), "unit": unit}
            for name, unit in declared("per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops every process it started (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not sandbox.program_present():
        print(f"perfbench: no program sources under {sandbox.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, sandbox.SRC)
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"--workload: choose from {', '.join(WORKLOADS)}")
    box = sandbox.box_fingerprint()
    box["pinned_cpu"] = sandbox.pin_to_one_cpu()
    out = Outcome()
    sb = sandbox.Sandbox()
    try:
        if args.trace:
            WORKLOADS[args.workload](sb, args.seed, args.seconds, True, out)
        else:
            # end-to-end times are scaled to the reference speed
            with speed.SpeedProbe() as sb.speed:
                WORKLOADS[args.workload](sb, args.seed, args.seconds,
                                         False, out)
    except (sandbox.ChildError, OSError, RuntimeError) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}",
              file=sys.stderr)
        return 1
    finally:
        sb.close()

    if sb.speed is not None:
        took = statistics.median(d for _, d in sb.speed.ticks)
        out.notes.append(f"speed: snippet median {took * 1e3:.4f} ms over "
                         f"{len(sb.speed.ticks)} ticks, reference "
                         f"{speed.REFERENCE_S * 1e3:.4f} ms")
    if args.trace:
        metrics = per_layer(out.layers, out.attempted, out.failed)
    else:
        metrics = {name: {"value": out.metrics[name], "unit": unit}
                   for name, unit in declared("end_to_end")}
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    os.makedirs(sandbox.OUT_ROOT, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, box=box,
                  samples=out.samples, problems=out.problems,
                  notes=out.notes)
    with open(os.path.join(sandbox.OUT_ROOT, f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"box: {json.dumps(box, sort_keys=True)}")
    counts = {name: len(values) for name, values in out.samples.items()}
    counts["hot_ms"] = sum(len(chunk)
                           for chunk in out.samples.get("hot_ms", []))
    print("samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for line in out.notes + [f"FAILED: {p}" for p in out.problems]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
