"""Deterministic counters and the traced run's per-layer rollup.

Engine counters are summed over *computed* cells only: every
``BenchmarkData`` (the CLI's, the cell API's shared one, and the
sibling seed universes of each) keeps a ``metrics_log`` with one
record per simulation request, memo and cache-hit repeats included.
Records are deduplicated by their content-addressed cache key, and a
key counts as computed when its cache entry did not exist before the
pass began.
"""

from __future__ import annotations

import hashlib

#: des.<name> <- RunResult.stats field
DES_COUNTERS = (
    ("engine_events", "cohort_engine_events"),
    ("stepped_grants", "cohort_stepped_grants"),
    ("drained_grants", "cohort_drained_grants"),
    ("cohort_regions", "cohort_regions"),
    ("closed_form_regions", "closed_form_regions"),
    ("queue_solver_regions", "queue_solver_regions"),
    ("des_regions", "des_regions"),
    ("cohort_serial_steps", "cohort_serial_steps"),
)


def collect_records(roots: list) -> dict[str, dict]:
    """Every simulation record of ``roots`` and their sibling seed
    universes, one per cache key."""
    from repro.harness.runner import BenchmarkData

    records: dict[str, dict] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        data = stack.pop()
        if id(data) in seen:
            continue
        seen.add(id(data))
        for rec in data.metrics_log:
            records.setdefault(rec["key"], rec)
        stack.extend(v for v in data._cache.values()
                     if isinstance(v, BenchmarkData))
    return records


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize(records: dict[str, dict], cached_before: set[str]) -> dict:
    computed = [r for k, r in records.items() if k not in cached_before]
    des = {name: 0 for name, _field in DES_COUNTERS}
    for rec in computed:
        stats = rec.get("stats") or {}
        for name, field in DES_COUNTERS:
            des[name] += int(stats.get(field, 0))
    return {"computed_cells": len(computed), "des": des}


def trace_rollup(tracer, t0: float, wall: float) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    from tracing import layer_self_seconds, totals

    spans = tracer.spans
    tot = totals(spans)

    def secs(name: str) -> float:
        return tot.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return tot.get(name, (0.0, 0))[1]

    out = {
        "c3i.kernel_s": secs("c3i.kernel"),
        "c3i.kernel_calls": calls("c3i.kernel"),
        "workload.job_build_s": secs("workload.job_build"),
        "workload.jobs_built": calls("workload.job_build"),
        "taskbench.job_s": secs("taskbench.job"),
        "taskbench.jobs": calls("taskbench.job"),
        "store.fingerprint_s": secs("store.fingerprint"),
        "store.fingerprints": calls("store.fingerprint"),
        "store.cache_get_s": secs("store.cache_get"),
        "store.cache_gets": calls("store.cache_get"),
        "store.cache_hits": tracer.cache_hits,
        "store.cache_put_s": secs("store.cache_put"),
        "store.cache_puts": calls("store.cache_put"),
        "rundir.record_s": secs("rundir.record"),
        "rundir.records": calls("rundir.record"),
        "rundir.finalize_s": secs("rundir.finalize"),
        "parallel.run_cells_s": secs("parallel.run_cells"),
        "protocol.cell_from_payload_s": secs("protocol.cell_from_payload"),
        "trace.spans": len(spans),
    }
    for family in ("machines", "mta", "cmt"):
        out[f"{family}.run_s"] = secs(f"{family}.run")
        out[f"{family}.runs"] = calls(f"{family}.run")
    for family in ("machines", "mta"):
        out[f"{family}.cohort_region_s"] = secs(f"{family}.cohort_region")
        out[f"{family}.cohort_serial_s"] = secs(f"{family}.cohort_serial")
    for name, (seconds, _n) in tot.items():
        if name.startswith("registry."):
            out[f"{name}_s"] = seconds
    own = layer_self_seconds(spans)
    out["parallel.sched_self_s"] = own.get("parallel", 0.0)
    for layer, seconds in own.items():
        out[f"self.{layer}_s"] = seconds
    # the pass's time outside every traced layer
    top = sum(t1 - t0_ for _sid, parent, _n, t0_, t1, _th in spans
              if parent is None and t0_ >= t0)
    out["self.untraced_s"] = max(0.0, wall - top)
    return out
