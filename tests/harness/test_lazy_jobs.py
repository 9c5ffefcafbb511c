"""Recipe jobs are lazy: a cached simulation runs no kernel and builds
no job, and the ``-j`` scheduler builds only the jobs of the cells it
submits, before its pool forks."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.harness import parallel, store
from repro.harness.registry import run_experiment
from repro.harness.runner import BenchmarkData

#: small, and distinct from every other test's scales, so the
#: process-wide ``default_data`` memos start empty here
THREAT_SCALE = 0.01
TERRAIN_SCALE = 0.0201

WARM_EXPERIMENTS = ("table10", "threat-alternative", "seed-robustness",
                    "sensitivity")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv(store.CACHE_DIR_ENV, str(d))
    monkeypatch.delenv(store.NO_CACHE_ENV, raising=False)
    return d


def _data() -> BenchmarkData:
    return BenchmarkData(threat_scale=THREAT_SCALE,
                         terrain_scale=TERRAIN_SCALE)


def _memo_keys(data: BenchmarkData) -> set[str]:
    """Kernel and job memo entries of ``data`` and its siblings."""
    keys = set()
    for key, value in data._cache.items():
        if key.startswith("sibling-"):
            keys |= _memo_keys(value)
        elif not key.startswith("sim-"):
            keys.add(key)
    return keys


def test_handles_are_lazy_and_memoized():
    data = _data()
    recipe = data.threat_chunked_job(16)
    assert recipe.key == "th-job-ch-16-os"
    assert recipe is data.recipe("th-job-ch-16-os")
    assert _memo_keys(data) == set()
    job = recipe.build()
    assert job is recipe.build() is data.job_from_recipe(recipe.key)
    assert {"th-sc", "th-seq", "th-job-ch-16-os"} <= _memo_keys(data)


def test_warm_pass_builds_nothing_and_matches_cold(cache_dir):
    cold = _data()
    cold_rows = {eid: run_experiment(eid, cold).rows
                 for eid in WARM_EXPERIMENTS}
    assert cold.jobs_built() > 0

    warm = _data()
    warm_rows = {eid: run_experiment(eid, warm).rows
                 for eid in WARM_EXPERIMENTS}
    assert warm_rows == cold_rows
    assert warm.jobs_built() == 0
    assert _memo_keys(warm) == set()


def _inline_pool(seen: dict):
    """A ``_pool_schedule`` stand-in that records what would be forked
    into, then runs the tasks in this process."""

    def schedule(tasks, threat_scale, terrain_scale, jobs,
                 on_result=None):
        data = parallel.default_data(threat_scale, terrain_scale)
        seen["cells"] = sorted(t.payload["job_recipe"] for t in tasks
                               if t.task_id.startswith("cell:"))
        seen["built"] = {k for k in _memo_keys(data)
                         if k.startswith("th-job")}
        results, queue = {}, list(tasks)
        while queue:
            task = queue.pop(0)
            value = task.fn(task.payload, threat_scale, terrain_scale)
            results[task.task_id] = value
            queue.extend(on_result(task.task_id, value) or ())
        return results

    return schedule


def test_prefork_warmup_builds_exactly_the_missing_cells(cache_dir,
                                                         monkeypatch):
    scales = dict(threat_scale=THREAT_SCALE, terrain_scale=TERRAIN_SCALE)
    # table2 fills the sequential job's cells, so table5 misses only
    # the two cells of the 256-chunk job
    run_experiment("table2", _data())
    seen: dict = {}
    monkeypatch.setattr(parallel, "_pool_schedule", _inline_pool(seen))
    results, profiles = parallel.run_experiments(
        ["table2", "table5"], jobs=2, **scales)
    assert seen["cells"] == ["th-job-ch-256-hw", "th-job-ch-256-hw"]
    assert seen["built"] == {"th-job-ch-256-hw"}
    assert [p.jobs_built for p in profiles] == [0, 1]
    assert all(r.all_checks_pass() for r in results.values())

    # warm, in fresh process-wide data: nothing to submit, so nothing
    # is built before the fork
    monkeypatch.setattr(parallel, "default_data", lru_cache()(
        lambda ts, tes: BenchmarkData(threat_scale=ts, terrain_scale=tes)))
    seen.clear()
    results, profiles = parallel.run_experiments(
        ["table2", "table5"], jobs=2, **scales)
    assert seen["cells"] == [] and seen["built"] == set()
    assert [p.jobs_built for p in profiles] == [0, 0]
