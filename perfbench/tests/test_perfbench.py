"""The benchmark's own tests.

    python -m pytest perfbench/tests

The shortened workload runs take about a minute each: a registry run
always makes two cold and two warm ``repro all`` passes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, name, t0, t1, thread=1):
    return (sid, parent, name, t0, t1, thread)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "registry.table5", 0.0, 10.0),
        _span(1, 0, "c3i.kernel", 1.0, 3.0),
        _span(2, 0, "machines.run", 4.0, 9.0),
        _span(3, 2, "machines.cohort_region", 5.0, 8.0),
        _span(4, None, "store.cache_get", 0.0, 0.5, thread=2),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 0.5}
    by_layer = tracing.layer_self_seconds(spans)
    assert by_layer == {"registry": 3.0, "c3i": 2.0, "machines": 5.0,
                        "store": 0.5}
    # self times partition the root's interval plus the other thread
    assert sum(own.values()) == pytest.approx(10.0 + 0.5)


def test_totals_count_nested_same_name_spans_once():
    spans = [
        _span(0, None, "c3i.kernel", 0.0, 4.0),
        _span(1, 0, "c3i.kernel", 1.0, 2.0),
        _span(2, None, "c3i.kernel", 5.0, 6.0),
    ]
    assert tracing.totals(spans) == {"c3i.kernel": (5.0, 3)}


def _patch_points():
    import importlib

    points = []
    for module_name, attr, _label in tracing.FUNCTIONS:
        module = importlib.import_module(module_name)
        points.append((module, attr, getattr(module, attr)))
    for module_name, cls_name, attr, _label in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        points.append((cls, attr, cls.__dict__[attr]))
    return points


def test_install_wraps_every_reference_and_restore_undoes_it():
    import repro.c3i.threat as threat_pkg
    from repro.harness import parallel, registry, store

    points = _patch_points()
    re_exported = threat_pkg.run_sequential
    imported = parallel.run_experiment
    tracer = tracing.Tracer("test")
    installed = tracing.install(tracer)
    try:
        for owner, attr, original in points:
            now = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            assert now is not original, (owner, attr)
            assert now.__wrapped_original__ is original
        # a name imported into another module is wrapped there too
        assert threat_pkg.run_sequential is not re_exported
        assert parallel.run_experiment is not imported
        assert store.fingerprint({"a": 1}) == \
            store.fingerprint.__wrapped_original__({"a": 1})
        names = {s[2] for s in tracer.spans}
        assert names == {"store.fingerprint"}
    finally:
        installed.restore()
    for owner, attr, original in points:
        now = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        assert now is original, (owner, attr)
    assert threat_pkg.run_sequential is re_exported
    assert parallel.run_experiment is imported
    assert registry.run_experiment is imported


def test_span_names_follow_the_machine_family():
    from repro.cmt.spec import cmt
    from repro.machines import ConventionalMachine, exemplar

    assert tracing._conventional_span(
        (ConventionalMachine(cmt(16)),), {}) == "cmt.run"
    assert tracing._conventional_span(
        (ConventionalMachine(exemplar(4)),), {}) == "machines.run"
    assert tracing._experiment_span(("table5", None), {}) == \
        "registry.table5"


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _declared()["workloads"]] == \
        list(workloads.WORKLOADS)


def test_tail_mean_averages_the_slowest_share():
    samples = [float(ms) for ms in range(1, 101)]
    assert workloads.tail_mean(samples, 0.05) == (96 + 97 + 98 + 99
                                                   + 100) / 5
    assert workloads.tail_mean([2.0, 1.0], 0.05) == 2.0


def test_speed_scale_uses_the_window_median():
    probe = speed.SpeedProbe()
    probe.ticks = [(float(t), speed.REFERENCE_S * (2 if t >= 50 else 1))
                   for t in range(100)]
    assert probe.scale(10.0, 40.0) == 1.0
    assert probe.scale(60.0, 90.0) == 0.5
    # a window with too few ticks borrows the nearest ones
    assert probe.scale(70.0, 70.5) == 0.5
    assert probe.scale(48.0, 50.0) in (0.5, 1.0)


def test_speed_probe_ticks_and_stops():
    with speed.SpeedProbe() as probe:
        time.sleep(0.2)
    n = len(probe.ticks)
    assert n >= 3
    time.sleep(0.1)
    assert len(probe.ticks) == n
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(args, cwd=ROOT, timeout=175):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["registry", "service-mixed"])
def test_shortened_run_passes_its_checks(workload):
    proc = _run(["--workload", workload, "--seed", "4", "--seconds", "1",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    names = {m["name"] for m in _declared()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "registry", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=str(tmp_path),
                timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
