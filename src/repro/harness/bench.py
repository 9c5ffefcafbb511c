"""``repro bench``: measure the cohort fast path against pure DES.

Two modes:

* The default re-measures the kernel benchmark rows recorded in
  ``BENCH_harness.json``: each row is one (machine, job) pair run on
  both the cohort path and the pure-DES path, best-of-N wall clock,
  with the simulated seconds of the two paths required to agree to
  within 1e-9 relative.

* ``--verify`` runs every registry experiment twice -- cohort enabled
  and ``REPRO_NO_COHORT=1`` -- with the result cache disabled, and
  asserts every reported row agrees to within 1e-9 relative.  This is
  the end-to-end equivalence gate the cohort work is held to.

Exit status is non-zero if any equivalence check fails, so both modes
are CI-ready.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional

from repro.harness.runner import BenchmarkData
from repro.workload.cohort import NO_COHORT_ENV

#: relative tolerance on simulated seconds, cohort vs DES
REL_TOL = 1e-9

#: the canonical kernel rows; each builds (machine, job) from data.
#: Definitions are spelled out here so the numbers in
#: ``BENCH_harness.json`` stay re-measurable by name alone.
def _rows() -> dict[str, Callable]:
    from repro.machines import ConventionalMachine, exemplar
    from repro.mta import MtaMachine, mta

    return {
        "exemplar16-threat16": lambda data, uc: (
            ConventionalMachine(exemplar(16), use_cohort=uc),
            data.threat_chunked_job(16).build()),
        "exemplar16-terrain-bl8": lambda data, uc: (
            ConventionalMachine(exemplar(16), use_cohort=uc),
            data.terrain_blocked_job(8).build()),
        "mta1-threat256": lambda data, uc: (
            MtaMachine(mta(1), use_cohort=uc),
            data.threat_chunked_job(256, thread_kind="hw").build()),
        "mta2-threat256": lambda data, uc: (
            MtaMachine(mta(2), use_cohort=uc),
            data.threat_chunked_job(256, thread_kind="hw").build()),
        # lock-convoy-dominated: every fine-grained thread appends its
        # result under one lock, so the region is one long convoy
        "exemplar16-threatfg1000": lambda data, uc: (
            ConventionalMachine(exemplar(16), use_cohort=uc),
            data.threat_finegrained_job().build()),
        # barrier-dominated: 1024 chunks over 128 hw streams, lock-free
        # lockstep phases joined only at the region barrier
        "mta1-threat1024": lambda data, uc: (
            MtaMachine(mta(1), use_cohort=uc),
            data.threat_chunked_job(1024, thread_kind="hw").build()),
        # work-queue-dominated: 16 workers pull threat items off a
        # shared queue (the terrain merge locks ride along), exercising
        # the closed-form queue solver rather than class compression
        "exemplar16-terrain-bl16": lambda data, uc: (
            ConventionalMachine(exemplar(16), use_cohort=uc),
            data.terrain_blocked_job(16).build()),
    }


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _best_of(fn: Callable[[], object], repeat: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


def run_kernel_bench(data: BenchmarkData, repeat: int = 3,
                     json_path: Optional[str] = None,
                     run=None) -> int:
    """Measure each kernel row DES-vs-cohort; returns an exit status.

    ``run`` is an optional :class:`repro.harness.rundir.RunWriter`;
    each row becomes a queryable cell (``repro runs query --cell
    exemplar16-threatfg1000``) and the full payload is stored as the
    run's report, so the perf trajectory accumulates without anyone
    hand-editing ``BENCH_harness.json``.
    """
    print(f"kernel rows, best of {repeat} "
          f"(threat_scale={data.threat_scale}, "
          f"terrain_scale={data.terrain_scale})")
    print(f"{'row':24s} {'des_s':>9s} {'cohort_s':>9s} {'speedup':>8s} "
          f"{'rel_err':>9s}")
    status = 0
    payload = {}
    for name, build in _rows().items():
        machine_d, job = build(data, False)
        wall_d, res_d = _best_of(lambda: machine_d.run(job), repeat)
        machine_c, _ = build(data, True)
        wall_c, res_c = _best_of(lambda: machine_c.run(job), repeat)
        rel = _rel_err(res_c.seconds, res_d.seconds)
        ok = rel <= REL_TOL
        if not ok:
            status = 1
        print(f"{name:24s} {wall_d:9.4f} {wall_c:9.4f} "
              f"{wall_d / wall_c:7.2f}x {rel:9.2e}"
              f"{'' if ok else '  MISMATCH'}")
        payload[name] = {
            "wall_des_s": round(wall_d, 4),
            "wall_cohort_s": round(wall_c, 4),
            "speedup": round(wall_d / wall_c, 2),
            "simulated_seconds": res_c.seconds,
            "equivalent": ok,
        }
        if run is not None:
            run.record("bench", {
                "cell": name,
                "kind": machine_c.__class__.__name__,
                "machine": machine_c.spec.name,
                "job": job.name,
                "seconds": res_c.seconds,
                "stats": dict(payload[name]),
            })
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if run is not None:
        run.write_report(payload=payload)
    return status


def run_verify(data: BenchmarkData, run=None) -> int:
    """Cohort-vs-DES equivalence over every registry experiment."""
    from repro.harness.registry import EXPERIMENT_IDS, run_experiment

    def run_all_rows(no_cohort: bool) -> dict[tuple[str, str], float]:
        saved = {k: os.environ.get(k)
                 for k in (NO_COHORT_ENV, "REPRO_NO_CACHE")}
        os.environ["REPRO_NO_CACHE"] = "1"
        if no_cohort:
            os.environ[NO_COHORT_ENV] = "1"
        else:
            os.environ.pop(NO_COHORT_ENV, None)
        try:
            rows = {}
            for eid in EXPERIMENT_IDS:
                result = run_experiment(eid, data)
                for row in result.rows:
                    rows[(eid, row.label)] = row.simulated
            return rows
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    t0 = time.perf_counter()
    cohort_rows = run_all_rows(no_cohort=False)
    t1 = time.perf_counter()
    des_rows = run_all_rows(no_cohort=True)
    t2 = time.perf_counter()

    # an explicit check, not an assert: `python -O` strips asserts and
    # CI must fail loudly when the two walks disagree on row identity
    missing = cohort_rows.keys() ^ des_rows.keys()
    if missing:
        print(f"row sets differ between cohort and DES walks; "
              f"{len(missing)} one-sided rows:")
        for key in sorted(missing):
            side = "cohort-only" if key in cohort_rows else "des-only"
            print(f"  {side}: {key[0]} / {key[1]}")
        return 1
    bad = []
    for key, sim_c in cohort_rows.items():
        sim_d = des_rows[key]
        if sim_c is None or sim_d is None:
            if sim_c != sim_d:
                bad.append((key, sim_c, sim_d))
            continue
        if _rel_err(sim_c, sim_d) > REL_TOL:
            bad.append((key, sim_c, sim_d))
    print(f"verified {len(cohort_rows)} rows across "
          f"{len(EXPERIMENT_IDS)} experiments: "
          f"{len(bad)} mismatches")
    # the first walk pays all one-time real-kernel executions and job
    # construction, so these walls are not a cohort-vs-DES comparison;
    # use the default `repro bench` mode for timing
    print(f"cohort walk {t1 - t0:.1f}s, pure-DES walk {t2 - t1:.1f}s")
    for (eid, label), sim_c, sim_d in bad:
        print(f"  MISMATCH {eid} / {label}: "
              f"cohort={sim_c!r} des={sim_d!r}")
    if run is not None:
        run.write_report(payload={
            "mode": "verify",
            "rows_verified": len(cohort_rows),
            "experiments": len(EXPERIMENT_IDS),
            "mismatches": [
                {"experiment": eid, "label": label,
                 "cohort": sim_c, "des": sim_d}
                for (eid, label), sim_c, sim_d in bad
            ],
            "cohort_walk_s": round(t1 - t0, 3),
            "des_walk_s": round(t2 - t1, 3),
        })
    return 1 if bad else 0
