"""The detector against the real benchmark workloads and registry.

These are the promises the race CI job enforces: every registered
experiment's simulated-thread jobs are race-free, the compiler's
dependence facts (not blanket silencing) clear the opaque Program-2
writes, and both engine extractions agree on every verdict.
"""

import pytest

from repro.analysis import analyze_job, analyze_job_both
from repro.analysis.facts import facts_for_job, loop_independent_arrays
from repro.analysis.report import report_to_dict
from repro.analysis.targets import EXPERIMENT_JOBS, experiment_jobs
from repro.harness.registry import EXPERIMENT_IDS
from repro.harness.runner import BenchmarkData
from repro.workload.instrument import OpCounter
from repro.workload.ops import AccessMode


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(threat_scale=0.01, terrain_scale=0.03)


def test_every_experiment_has_a_target_mapping():
    assert set(EXPERIMENT_JOBS) == set(EXPERIMENT_IDS)


def test_compiler_facts_for_program2():
    facts = facts_for_job("threat-chunked-16")
    assert facts == {"intervals", "num_intervals"}
    assert facts_for_job("threat-sequential") == frozenset()
    assert facts_for_job("terrain-finegrained") == frozenset()


def test_loop_independent_arrays_from_ir():
    from repro.compiler.programs import threat_chunked_ir
    loop = next(s for s in threat_chunked_ir(with_pragma=True).body
                if getattr(s, "pragma_parallel", False))
    assert loop_independent_arrays(loop) >= {"intervals",
                                             "num_intervals"}


def test_real_chunked_job_clean_only_because_of_facts(data):
    job = data.threat_chunked_job(8).build()
    report = analyze_job(job, "des")
    assert report.clean
    # C(8,2) chunk pairs x 2 opaque arrays x 5 scenarios
    assert report.suppressed == 28 * 2 * 5


def test_real_blocked_job_clean_via_block_locks(data):
    report = analyze_job(data.terrain_blocked_job(4).build(), "des")
    assert report.clean
    assert report.suppressed == 0  # locks, not facts, clear these


def test_all_registered_experiments_clean_under_both_engines(data):
    jobs = {}
    for eid in EXPERIMENT_IDS:
        jobs.update(experiment_jobs(eid, data))
    assert len(jobs) >= 30
    for name, job in jobs.items():
        des, cohort = analyze_job_both(job)
        assert des.clean, (name, [f.render() for f in des.findings])
        assert des.findings == cohort.findings, name
        assert des.suppressed == cohort.suppressed, name


def test_report_payload_engine_independent(data):
    reports = {}
    for eid in ("table5", "table9", "autopar"):
        reports[eid] = [analyze_job(j, "des")
                        for j in experiment_jobs(eid, data).values()]
    reports_c = {}
    for eid in ("table5", "table9", "autopar"):
        reports_c[eid] = [analyze_job(j, "cohort")
                          for j in experiment_jobs(eid, data).values()]
    a = report_to_dict(reports, "des")
    b = report_to_dict(reports_c, "cohort")
    assert a.pop("engine") == "des"
    assert b.pop("engine") == "cohort"
    assert a == b
    assert a["schema"] == "repro-race-report/v1"
    assert a["clean"] is True


def test_opcounter_touch_tracks_union_hull():
    c = OpCounter()
    c.touch("a", AccessMode.WRITE, 5, 9)
    c.touch("a", AccessMode.WRITE, 0, 2)
    c.touch("a", AccessMode.READ, 1)
    accs = c.accesses()
    spans = {(a.array, a.mode, a.lo, a.hi) for a in accs}
    assert spans == {("a", AccessMode.WRITE, 0, 9),
                     ("a", AccessMode.READ, 1, 1)}

    other = OpCounter()
    other.touch("a", AccessMode.WRITE, 20, 30)
    other.touch("b", AccessMode.READ, 0, 0)
    c.merge(other)
    spans = {(a.array, a.mode, a.lo, a.hi) for a in c.accesses()}
    assert ("a", AccessMode.WRITE, 0, 30) in spans
    assert ("b", AccessMode.READ, 0, 0) in spans
