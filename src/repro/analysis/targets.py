"""Which simulated-thread jobs each registry experiment runs.

``repro race`` analyzes experiments by the jobs they would feed the
machine models -- mirroring the builders each registry entry calls on
:class:`~repro.harness.runner.BenchmarkData` (see
:mod:`repro.harness.registry` / :mod:`repro.harness.ablations`), but
without paying for any simulation.  Experiments that run no simulated
jobs (the compiler study, the cycle-level micro-claims, the analytic
temp-memory ablation) map to an empty dict and report clean.

``seed-robustness`` re-runs the same job *builders* under different
seeds; the job structure (threads, locks, access ranges) is seed
independent, so analyzing the default-seed jobs covers it.
"""

from __future__ import annotations

from typing import Callable

from repro.harness.runner import BenchmarkData
from repro.workload.task import Job

_JobSpec = Callable[[BenchmarkData], Job]


def _th_seq(d: BenchmarkData) -> Job:
    return d.threat_sequential_job().build()


def _te_seq(d: BenchmarkData) -> Job:
    return d.terrain_sequential_job().build()


def _th_fg(d: BenchmarkData) -> Job:
    return d.threat_finegrained_job().build()


def _te_fg(d: BenchmarkData) -> Job:
    return d.terrain_finegrained_job().build()


def _chunked(n: int, kind: str = "os") -> _JobSpec:
    return lambda d: d.threat_chunked_job(n, thread_kind=kind).build()


def _blocked(n: int) -> _JobSpec:
    return lambda d: d.terrain_blocked_job(n).build()


def _taskbench(recipe: str) -> _JobSpec:
    return lambda d: d.taskbench_job(recipe).build()


def _taskbench_specs() -> tuple[_JobSpec, ...]:
    from repro.harness.registry import (
        TASKBENCH_COARSE,
        TASKBENCH_FINE,
        TASKBENCH_TOPOLOGY_RECIPES,
    )
    recipes = (TASKBENCH_FINE, TASKBENCH_COARSE) + TASKBENCH_TOPOLOGY_RECIPES
    return tuple(_taskbench(r) for r in recipes)


#: experiment id -> job builders, matching the registry entries
EXPERIMENT_JOBS: dict[str, tuple[_JobSpec, ...]] = {
    "table2": (_th_seq,),
    "table3": (_th_seq,) + tuple(_chunked(n) for n in range(1, 5)),
    "table4": (_th_seq,) + tuple(_chunked(n) for n in range(1, 17)),
    "table5": (_th_seq, _chunked(256, "hw")),
    "table6": tuple(_chunked(n, "hw") for n in (8, 16, 32, 64, 128, 256)),
    "table7": (_th_seq, _chunked(4), _chunked(8), _chunked(16),
               _chunked(256, "hw")),
    "table8": (_te_seq,),
    "table9": (_te_seq,) + tuple(_blocked(n) for n in range(1, 5)),
    "table10": (_te_seq,) + tuple(_blocked(n) for n in range(1, 17)),
    "table11": (_te_seq, _te_fg),
    "table12": (_te_seq, _te_fg, _blocked(4), _blocked(8), _blocked(16)),
    "autopar": (),   # compiler study: no simulated jobs
    "micro": (),     # cycle-level kernels: no workload jobs
    "scaling": (_chunked(1024, "hw"), _te_fg),
    "threat-alternative": (_th_fg, _chunked(16), _chunked(256, "hw")),
    "ablation-finegrained-smp": (_te_fg, _blocked(16)),
    "ablation-network": (_chunked(256, "hw"), _te_fg),
    "ablation-issue": (_th_seq,),
    "ablation-cache": (_chunked(1), _chunked(16)),
    "ablation-temp-memory": (),  # analytic model: no simulated jobs
    "seed-robustness": (_chunked(256, "hw"), _te_fg, _blocked(1),
                        _blocked(16)),
    "sensitivity": (_th_seq, _te_seq, _chunked(256, "hw"), _te_fg),
    "taskbench": _taskbench_specs(),
}


def experiment_jobs(experiment_id: str,
                    data: BenchmarkData) -> dict[str, Job]:
    """The experiment's jobs keyed by job name (builders that produce
    the same job -- e.g. 16 chunks for both Table 4 and Table 7 --
    collapse to one entry)."""
    from repro.harness.registry import _ALIASES
    key = _ALIASES.get(experiment_id, experiment_id)
    if key not in EXPERIMENT_JOBS:
        raise KeyError(f"unknown experiment {experiment_id!r}")
    jobs: dict[str, Job] = {}
    for spec in EXPERIMENT_JOBS[key]:
        job = spec(data)
        jobs[job.name] = job
    return jobs
