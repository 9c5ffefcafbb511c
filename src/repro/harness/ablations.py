"""Ablation studies and the paper's future-work projections.

The paper's analysis attributes each result to a specific mechanism.
These experiments remove or vary one mechanism at a time and check that
the result moves the way the paper's reasoning predicts:

* ``scaling``           -- the paper's future work: project both
  benchmarks onto MTA configurations with more processors (the authors
  had only two) and onto a *mature* (linearly scaling) network.
* ``ablation-finegrained-smp`` -- run the MTA-style fine-grained
  Terrain Masking on the Exemplar, paying OS/software thread costs:
  the paper's claim that inner-loop parallelism is practical only on
  the MTA.
* ``ablation-network``  -- vary the prototype network's scaling
  exponent: the sub-ideal 1.4x/1.8x two-processor speedups are the
  network's fault, exactly as the paper conjectures ("may be a result
  of the development status of the current Tera MTA network").
* ``ablation-issue``    -- vary the 21-cycle pipeline pass: the MTA's
  terrible sequential speed is the issue interval's fault; a
  hypothetical 1-cycle-issue MTA would run sequential code like a
  conventional processor.
* ``ablation-cache``    -- shrink/grow the conventional caches under
  Threat Analysis: the near-ideal SMP scaling depends on the threads
  running in cache.
"""

from __future__ import annotations

import dataclasses

from repro.harness.experiment import ExperimentResult, Row, ShapeCheck
from repro.harness.runner import BenchmarkData
from repro.machines import exemplar
from repro.machines.spec import CacheSpec
from repro.mta import mta


def _check(desc: str, passed: bool, detail: str = "") -> ShapeCheck:
    return ShapeCheck(description=desc, passed=bool(passed), detail=detail)


# ----------------------------------------------------------------------
# future work: multiprocessor scaling projection
# ----------------------------------------------------------------------

def scaling(data: BenchmarkData) -> ExperimentResult:
    """Project both benchmarks onto larger MTA configurations.

    The paper: "A potential strength of the Tera MTA that we were
    unable to investigate on a dual-processor configuration is
    scalability to large numbers of processors ... It is possible that
    the Tera model ... may be effective in overcoming this obstacle."
    """
    threat_job = data.threat_chunked_job(1024, thread_kind="hw")
    terrain_job = data.terrain_finegrained_job()
    rows = []
    proto = {"threat": {}, "terrain": {}}
    mature = {"threat": {}, "terrain": {}}
    for p in (1, 2, 4, 8, 16):
        m_spec = dataclasses.replace(mta(p), network_scaling_exponent=1.0)
        proto["threat"][p] = data.run_mta_spec(mta(p), threat_job)
        proto["terrain"][p] = data.run_mta_spec(mta(p), terrain_job)
        mature["threat"][p] = data.run_mta_spec(m_spec, threat_job)
        mature["terrain"][p] = data.run_mta_spec(m_spec, terrain_job)
        rows.append(Row(f"Threat, {p}p (prototype net)", None,
                        proto["threat"][p]))
        rows.append(Row(f"Threat, {p}p (mature net)", None,
                        mature["threat"][p]))
        rows.append(Row(f"Terrain, {p}p (prototype net)", None,
                        proto["terrain"][p]))
        rows.append(Row(f"Terrain, {p}p (mature net)", None,
                        mature["terrain"][p]))

    def s16(d):
        return d[1] / d[16]

    checks = (
        _check("extrapolating the prototype network to 16 processors "
               "traps BOTH benchmarks well below ideal (<= 8x)",
               s16(proto["threat"]) <= 8.0
               and s16(proto["terrain"]) <= 8.0,
               f"threat {s16(proto['threat']):.1f}x, "
               f"terrain {s16(proto['terrain']):.1f}x"),
        _check("a mature (linear) network restores compute-bound "
               "Threat Analysis to near-ideal scaling (>= 12x at 16p)",
               s16(mature["threat"]) >= 12.0,
               f"{s16(mature['threat']):.1f}x"),
        _check("a mature network roughly doubles Terrain Masking's "
               "16-processor speedup -- the paper's conjectured "
               "breakthrough, bounded by its serial output pass",
               s16(mature["terrain"]) >= 1.8 * s16(proto["terrain"]),
               f"{s16(mature['terrain']):.1f}x vs "
               f"{s16(proto['terrain']):.1f}x"),
    )
    return ExperimentResult(
        "scaling", "Future work: MTA multiprocessor scaling projection",
        tuple(rows), checks,
        notes="No paper values exist (the prototype had 2 processors); "
              "this projects the calibrated models forward.  The "
              "verdict: the network, not the processors, decides "
              "whether the MTA model scales.")


# ----------------------------------------------------------------------
# fine-grained parallelism on a conventional machine
# ----------------------------------------------------------------------

def finegrained_smp(data: BenchmarkData) -> ExperimentResult:
    """Fine-grained Terrain Masking on the Exemplar vs on the MTA.

    The paper: "algorithms based on fine-grained multithreading of
    inner loops are practical on the Tera MTA that are not practical on
    our conventional multiprocessor platforms" -- because creating a
    software thread costs tens of thousands of cycles there and the
    inner loops are short.
    """
    job = data.terrain_finegrained_job()
    mta_1p = data.run_mta(1, job)
    ex16 = data.run_conventional(exemplar(16), job)
    ex16_fg = data.run_conventional(exemplar(16), job,
                                    exploit_fine_grained=True)
    coarse_ex16 = data.exemplar(16, data.terrain_blocked_job(16))
    rows = (
        Row("MTA 1p, fine-grained", 48.0, mta_1p),
        Row("Exemplar 16p, fine-grained ignored (1 CPU used)", None,
            ex16),
        Row("Exemplar 16p, fine-grained with sw-thread costs", None,
            ex16_fg),
        Row("Exemplar 16p, coarse-grained (the practical choice)", 37.0,
            coarse_ex16),
    )
    checks = (
        _check("paying thread-creation per strand makes fine-grained "
               "on the SMP slower than its own coarse-grained version",
               ex16_fg > 1.5 * coarse_ex16,
               f"{ex16_fg:.0f}s vs {coarse_ex16:.0f}s"),
        _check("one MTA processor beats sixteen Exemplar CPUs *on the "
               "fine-grained program*", mta_1p < ex16_fg,
               f"{mta_1p:.0f}s vs {ex16_fg:.0f}s"),
    )
    return ExperimentResult(
        "ablation-finegrained-smp",
        "Fine-grained inner-loop parallelism on a conventional SMP",
        rows, checks)


# ----------------------------------------------------------------------
# network development status
# ----------------------------------------------------------------------

def network(data: BenchmarkData) -> ExperimentResult:
    """Two-processor speedups vs the network scaling exponent."""
    threat_job = data.threat_chunked_job(256, thread_kind="hw")
    terrain_job = data.terrain_finegrained_job()
    rows = []
    speedups = {}
    for expo in (0.40, 0.54, 0.80, 1.00):
        spec1 = dataclasses.replace(mta(1), network_scaling_exponent=expo)
        spec2 = dataclasses.replace(mta(2), network_scaling_exponent=expo)
        st = (data.run_mta_spec(spec1, threat_job)
              / data.run_mta_spec(spec2, threat_job))
        sm = (data.run_mta_spec(spec1, terrain_job)
              / data.run_mta_spec(spec2, terrain_job))
        speedups[expo] = (st, sm)
        rows.append(Row(f"Threat 2p speedup, exponent {expo:.2f}",
                        1.78 if expo == 0.54 else None, st, unit="x"))
        rows.append(Row(f"Terrain 2p speedup, exponent {expo:.2f}",
                        1.41 if expo == 0.54 else None, sm, unit="x"))
    checks = (
        _check("the memory-bound program tracks the network exponent "
               "(speedup ~ 2^exponent, minus its serial output pass)",
               abs(speedups[0.54][1] - 2 ** 0.54) < 0.15
               and speedups[0.40][1] < speedups[0.54][1]
               < speedups[0.80][1] < speedups[1.0][1],
               f"exp 0.54 -> {speedups[0.54][1]:.2f} "
               f"(2^0.54 = {2**0.54:.2f})"),
        _check("the compute-bound program is hurt less by a weak "
               "network", all(st >= sm for st, sm in speedups.values())),
        _check("a mature network would deliver near-2x on both "
               "programs", speedups[1.0][0] > 1.85
               and speedups[1.0][1] > 1.8,
               f"threat {speedups[1.0][0]:.2f}, "
               f"terrain {speedups[1.0][1]:.2f}"),
    )
    return ExperimentResult(
        "ablation-network",
        "Two-processor speedup vs network development status",
        tuple(rows), checks,
        notes="The paper attributes its sub-ideal 1.8x/1.4x speedups to "
              "'the development status of the current Tera MTA "
              "network'; the exponent is that status as a knob.")


# ----------------------------------------------------------------------
# the sync-variable alternative for Threat Analysis (Section 5)
# ----------------------------------------------------------------------

def threat_alternative(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis parallelized with fine-grained synchronization
    variables instead of chunking.

    Section 5: one thread per threat, all appending to a single shared
    intervals array through a full/empty-guarded counter.  "It is
    interesting that this alternative approach is viable for the Tera
    MTA, but not for our conventional coarse-grained multiprocessor
    platforms" -- on the MTA the 1-cycle sync makes the shared counter
    nearly free; on an SMP 1000 OS threads and a hot lock are a
    disaster.
    """
    # the real thing: one thread per threat, no coalescing
    fg_job = data.threat_finegrained_job(all_threads=True)
    ch_job = data.threat_chunked_job(256, thread_kind="hw")
    mta_fg1 = data.run_mta(1, fg_job)
    mta_fg2 = data.run_mta(2, fg_job)
    mta_ch1 = data.run_mta(1, ch_job)
    ex_fg = data.run_conventional(exemplar(16), fg_job)
    ex_ch = data.exemplar(16, data.threat_chunked_job(16))
    mta_overhead = mta_fg1 / mta_ch1 - 1.0
    ex_overhead = ex_fg / ex_ch - 1.0
    rows = (
        Row("MTA 1p, sync-variable version", None, mta_fg1),
        Row("MTA 2p, sync-variable version", None, mta_fg2),
        Row("MTA 1p, chunked version (Table 5)", 82.0, mta_ch1),
        Row("Exemplar 16p, sync-variable version", None, ex_fg),
        Row("Exemplar 16p, chunked version (Table 4)", 22.0, ex_ch),
        Row("MTA overhead vs its chunked version", None,
            mta_overhead * 100.0, unit="%"),
        Row("Exemplar overhead vs its chunked version", None,
            ex_overhead * 100.0, unit="%"),
    )
    checks = (
        _check("on the MTA, 5000 threads + a full/empty counter cost "
               "essentially nothing over chunking (< 3% overhead)",
               mta_overhead < 0.03, f"{mta_overhead:+.1%}"),
        _check("on the Exemplar, 5000 OS threads + lock-word "
               "synchronization carry real overhead (> 8%)",
               ex_overhead > 0.08, f"{ex_overhead:+.1%}"),
        _check("the overhead gap between the platforms is an order of "
               "magnitude or more",
               ex_overhead > 10 * max(mta_overhead, 1e-4),
               f"{ex_overhead:.3f} vs {mta_overhead:.3f}"),
    )
    return ExperimentResult(
        "threat-alternative",
        "Fine-grained sync-variable Threat Analysis (Section 5's "
        "alternative)", rows, checks,
        notes="The drawback the paper notes -- nondeterministic output "
              "ordering -- is exercised by the kernel itself: see "
              "repro.c3i.threat.finegrained and its tests.")


# ----------------------------------------------------------------------
# the 21-cycle issue interval
# ----------------------------------------------------------------------

def issue_interval(data: BenchmarkData) -> ExperimentResult:
    """What would fix the MTA's sequential performance?

    Two mechanisms make a lone stream slow: the 21-cycle pipeline pass
    between its instructions, and the unhidden memory latency (no
    caches; the lookahead window covers only part of each reference's
    round trip).  This ablation removes them one at a time.  The
    lookahead's *cycle coverage* is held constant when the issue
    interval shrinks (lookahead slots x interval = 105 cycles), so the
    knobs are independent.
    """
    job = data.threat_sequential_job()
    base = mta(1)
    coverage = base.lookahead * base.issue_interval_cycles

    def time_for(interval: float, latency: float) -> float:
        spec = dataclasses.replace(
            base, issue_interval_cycles=interval,
            lookahead=max(0, int(round(coverage / interval))),
            mem_latency_cycles=latency)
        return data.run_mta_spec(spec, job)

    t_real = time_for(21.0, base.mem_latency_cycles)
    t_fast_issue = time_for(1.0, base.mem_latency_cycles)
    t_hidden = time_for(21.0, coverage)   # latency fully covered
    t_both = time_for(1.0, coverage)
    alpha = data.alpha(job)
    rows = (
        Row("real MTA (21-cycle issue, unhidden latency)", 2584.0,
            t_real),
        Row("1-cycle issue, latency still unhidden", None, t_fast_issue),
        Row("21-cycle issue, latency hidden (cache-like)", None,
            t_hidden),
        Row("1-cycle issue + latency hidden", None, t_both),
        Row("sequential Threat on the Alpha (reference)", 187.0, alpha),
    )
    checks = (
        _check("shrinking the issue interval alone helps ~3x but the "
               "uncached memory latency still dominates",
               2.0 < t_real / t_fast_issue < 5.0
               and t_fast_issue > 2.0 * alpha,
               f"{t_real:.0f} -> {t_fast_issue:.0f}s vs "
               f"Alpha {alpha:.0f}s"),
        _check("hiding latency alone still leaves the 21-cycle pipe",
               t_hidden > 5.0 * alpha, f"{t_hidden:.0f}s"),
        _check("removing BOTH puts the MTA in the conventional "
               "league -- sequential slowness needs the pipe *and* the "
               "missing caches", t_both < 1.2 * alpha,
               f"{t_both:.0f}s vs Alpha {alpha:.0f}s"),
    )
    return ExperimentResult(
        "ablation-issue",
        "Sequential MTA performance: issue interval vs unhidden latency",
        rows, checks,
        notes="The paper: 'The Tera MTA would be a much more appealing "
              "platform if it could ... provide reasonable performance "
              "for single-threaded programs.'")


# ----------------------------------------------------------------------
# seed robustness: the shapes cannot depend on one lucky data draw
# ----------------------------------------------------------------------

def seed_robustness(data: BenchmarkData) -> ExperimentResult:
    """Re-run the headline shapes in alternative synthetic-input
    universes.

    The reproduction substitutes synthetic scenarios for the
    unavailable C3IPBS data, so every shape claim must be stable under
    the generator's randomness: this re-draws all ten scenarios with
    different seeds and re-measures the key speedups.
    """
    universes = [data.with_seed_offset(k) for k in (0, 1, 2)]
    rows = []
    threat_speedups = []
    terrain_speedups = []
    smp_speedups = []
    for u in universes:
        tj = u.threat_chunked_job(256, thread_kind="hw")
        t1, t2 = u.run_mta(1, tj), u.run_mta(2, tj)
        fj = u.terrain_finegrained_job()
        m1, m2 = u.run_mta(1, fj), u.run_mta(2, fj)
        e1 = u.exemplar(1, u.terrain_blocked_job(1))
        e16 = u.exemplar(16, u.terrain_blocked_job(16))
        threat_speedups.append(t1 / t2)
        terrain_speedups.append(m1 / m2)
        smp_speedups.append(e1 / e16)
        tag = f"universe {u.seed_offset}"
        rows.append(Row(f"{tag}: Threat MTA 2p speedup",
                        1.78 if u.seed_offset == 0 else None,
                        t1 / t2, unit="x"))
        rows.append(Row(f"{tag}: Terrain MTA 2p speedup",
                        1.41 if u.seed_offset == 0 else None,
                        m1 / m2, unit="x"))
        rows.append(Row(f"{tag}: Terrain Exemplar 16p speedup",
                        6.16 if u.seed_offset == 0 else None,
                        e1 / e16, unit="x"))

    def spread(vals):
        return (max(vals) - min(vals)) / min(vals)

    checks = (
        _check("Threat MTA 2p speedup stable across universes (< 8% "
               "spread)", spread(threat_speedups) < 0.08,
               f"{[f'{v:.2f}' for v in threat_speedups]}"),
        _check("Terrain MTA 2p speedup stable across universes (< 8% "
               "spread)", spread(terrain_speedups) < 0.08,
               f"{[f'{v:.2f}' for v in terrain_speedups]}"),
        _check("Terrain Exemplar saturation stable across universes "
               "(< 20% spread)", spread(smp_speedups) < 0.20,
               f"{[f'{v:.2f}' for v in smp_speedups]}"),
    )
    return ExperimentResult(
        "seed-robustness",
        "Shape stability across synthetic-input universes",
        tuple(rows), checks)


# ----------------------------------------------------------------------
# why Program 4 cannot feed the MTA: temp-array memory
# ----------------------------------------------------------------------

def temp_memory(data: BenchmarkData) -> ExperimentResult:
    """The storage wall that forces the fine-grained Terrain Masking
    variant on the MTA.

    Section 6: the coarse-grained program "requires too much memory on
    the Tera MTA.  Efficient utilization of the Tera MTA requires a
    large number of threads and each thread requires its own temp
    array."
    """
    from repro.c3i.terrain import blocked_memory_footprint
    from repro.machines import EXEMPLAR_16
    from repro.mta import MTA_2

    scenario = data.terrain_scenarios[0]
    GB = 1024.0 ** 3
    fp16 = blocked_memory_footprint(scenario, 16)
    fp500 = blocked_memory_footprint(scenario, 500)
    rows = (
        Row("Program 4 footprint, 16 threads (GB)", None, fp16 / GB,
            unit="x"),
        Row("Program 4 footprint, 500 threads (GB)", None, fp500 / GB,
            unit="x"),
        Row("Exemplar memory (GB)", 4.0, EXEMPLAR_16.memory_bytes / GB,
            unit="x"),
        Row("Tera MTA memory (GB)", 2.0, MTA_2.memory_bytes / GB,
            unit="x"),
    )
    checks = (
        _check("sixteen threads (the Exemplar's need) fit comfortably",
               fp16 < 0.5 * EXEMPLAR_16.memory_bytes,
               f"{fp16/GB:.2f} GB"),
        _check("hundreds of threads (the MTA's need) do NOT fit -- the "
               "reason the MTA runs the fine-grained variant",
               fp500 > MTA_2.memory_bytes,
               f"{fp500/GB:.2f} GB vs 2 GB"),
    )
    return ExperimentResult(
        "ablation-temp-memory",
        "Program 4's per-thread temp storage vs machine memory",
        rows, checks)


# ----------------------------------------------------------------------
# cache size under Threat Analysis
# ----------------------------------------------------------------------

def cache_size(data: BenchmarkData) -> ExperimentResult:
    """Exemplar Threat Analysis scaling vs cache size.

    The near-ideal SMP speedups exist because "the threads are
    completely independent and execute mostly within cache"; with a
    cache too small for the threat tables the program turns
    memory-bound and the scaling degrades.
    """
    job16 = data.threat_chunked_job(16)
    job1 = data.threat_chunked_job(1)
    rows = []
    speedups = {}
    for kb in (8, 64, 1024):
        cache = CacheSpec(capacity_bytes=kb * 1024.0, line_bytes=64,
                          assoc=4)
        s1 = dataclasses.replace(exemplar(1), cache=cache)
        s16 = dataclasses.replace(exemplar(16), cache=cache)
        t1 = data.run_conventional(s1, job1)
        t16 = data.run_conventional(s16, job16)
        speedups[kb] = t1 / t16
        rows.append(Row(f"Exemplar 16p speedup, {kb} KB cache", None,
                        t1 / t16, unit="x"))
    checks = (
        _check("with the real cache the scaling is near-ideal",
               speedups[1024] >= 14.0, f"{speedups[1024]:.1f}x"),
        _check("a cache too small for the threat tables degrades the "
               "scaling", speedups[8] < speedups[1024] - 1.5,
               f"8KB {speedups[8]:.1f}x vs 1MB {speedups[1024]:.1f}x"),
    )
    return ExperimentResult(
        "ablation-cache",
        "Threat Analysis SMP scaling vs cache size",
        tuple(rows), checks)
