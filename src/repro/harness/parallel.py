"""Parallel experiment execution at simulation-cell granularity.

The registry's experiments are independent of each other (they share
only the read-only :class:`BenchmarkData` kernels and the persistent
result cache), so ``python -m repro all`` / ``report`` can fan them out
over a :class:`~concurrent.futures.ProcessPoolExecutor`.  But whole
experiments are a poor unit of parallel work: a handful of simulations
dominate the registry's wall clock and many of them are shared between
experiments, so per-experiment scheduling leaves ``-j N`` gated on the
single largest experiment.

With the persistent cache available, the run therefore proceeds at
simulation-cell granularity:

1. **plan** (in the scheduling process) -- run every experiment
   against a :class:`_PlanningData` probe whose ``_simulate`` records
   each simulation *cell* (machine spec x job recipe x scales x seed
   universe) instead of running it.  Planning doubles as warm-up: it
   builds every kernel and job into the shared ``default_data``
   memos, and the pool is forked *afterwards*, so workers inherit the
   warm state copy-on-write instead of re-running kernels per process.
2. **cell** (workers) -- execute one deduplicated simulation cell
   (largest first, across all experiments) and publish its result
   through the content-addressed cache.  Cells already present in the
   cache are never submitted at all.
3. **replay** (workers) -- run each experiment for real over the
   now-warm cache, the moment its last outstanding cell lands; no
   phase barrier idles the pool.

Without a cache (``REPRO_NO_CACHE``, or an active tracer) cells cannot
be transported between processes and the scheduler falls back to
classic per-experiment tasks.

``run_experiments`` also collects a per-experiment profile (time and
cache hit/miss counts) for the CLI's ``--profile`` flag.  Under cell
scheduling an experiment is charged the cells *it* planned first (time
and misses), plus its own plan and replay time; hits are the replay's
cache reads.  Times are taken in the process that did the work, so
under ``-j`` they sum worker CPU-seconds, not elapsed wall.

The pool path is crash-resilient at task granularity: a worker dying
mid-task (a real segfault/OOM kill, or an injected fault -- see
``REPRO_CHAOS_CRASH``) breaks the whole ProcessPoolExecutor, but
results that finished before the crash are salvaged, the pool is
rebuilt and only the unfinished tasks are retried, with bounded
attempts (``REPRO_RETRY_MAX``, default 3) and exponential backoff
(base ``REPRO_RETRY_BACKOFF_S``, default 0.25 s).  Backoff only ever
precedes a re-submission -- a task that exhausts its attempts raises
immediately, without a terminal sleep.  A task that *raises* in a
worker travels back as :class:`WorkerError` carrying the full child
traceback, not just the exception repr.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro import taskbench
from repro.harness import store
from repro.harness.experiment import ExperimentResult
from repro.harness.registry import EXPERIMENT_IDS, run_experiment
from repro.harness.runner import BenchmarkData, default_data
from repro.obs.trace import active_tracer

#: ``seed:rate[:mode]`` -- deterministically crash-fault workers.  A
#: worker handling fault unit ``u`` on attempt ``a`` dies iff
#: ``sha256(seed|u|a|worker-crash)`` maps below ``rate``; mode
#: ``exit`` (default) kills the process (breaking the pool), ``raise``
#: raises inside the task instead.  Experiment-level tasks use the
#: bare experiment id as their unit; simulation-cell tasks use
#: ``cell:<recipe>@<seed_offset>`` and are faulted only when the mode
#: carries the ``+cells`` suffix (``exit+cells`` / ``raise+cells``),
#: so existing experiment-level chaos seeds stay deterministic.
CHAOS_CRASH_ENV = "REPRO_CHAOS_CRASH"

RETRY_MAX_ENV = "REPRO_RETRY_MAX"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF_S"


class WorkerError(RuntimeError):
    """A task failed inside a worker process.

    ProcessPoolExecutor pickles exceptions across the process boundary
    and the traceback does not survive the trip -- debugging a parallel
    run used to mean re-running serially.  Workers therefore catch
    everything, format the traceback *in the child*, and send it back
    attached to this exception.  ``experiment_id`` is the failing fault
    unit: a bare experiment id for plan/replay tasks, ``cell:...`` for
    simulation cells.
    """

    def __init__(self, experiment_id: str, child_traceback: str):
        self.experiment_id = experiment_id
        self.child_traceback = child_traceback
        super().__init__(
            f"experiment {experiment_id!r} failed in a worker process\n"
            f"--- worker traceback ---\n{child_traceback}")

    def __reduce__(self):
        # default exception pickling replays args (the joined message)
        # into __init__, which takes two fields -- rebuild explicitly
        return (WorkerError, (self.experiment_id, self.child_traceback))


def _crash_config() -> Optional[tuple[int, float, str, bool]]:
    raw = os.environ.get(CHAOS_CRASH_ENV, "")
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"{CHAOS_CRASH_ENV} must be seed:rate[:mode], got {raw!r}")
    mode = parts[2] if len(parts) > 2 else "exit"
    cells = mode.endswith("+cells")
    if cells:
        mode = mode[:-len("+cells")]
    if mode not in ("exit", "raise"):
        raise ValueError(f"unknown crash mode {mode!r}")
    return int(parts[0]), float(parts[1]), mode, cells


def _maybe_crash(unit_id: str, attempt: int) -> None:
    """Deterministic worker-crash injection (chaos testing)."""
    cfg = _crash_config()
    if cfg is None:
        return
    seed, rate, mode, cells = cfg
    if unit_id.startswith("cell:") and not cells:
        return
    from repro.faults.plan import derive_unit

    if derive_unit(seed, unit_id, attempt, "worker-crash") < rate:
        if mode == "raise":
            raise RuntimeError(
                f"injected worker fault for {unit_id!r} "
                f"(attempt {attempt})")
        os._exit(17)  # no cleanup -- model a hard crash/OOM kill


@dataclass(frozen=True)
class ExperimentProfile:
    """Cost accounting for one experiment run."""

    experiment_id: str
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    #: one record per simulation the experiment consulted
    #: (``BenchmarkData.metrics_log`` entries: kind/machine/job/
    #: seconds/stats) -- the raw material of ``repro all --metrics``
    metrics: tuple[dict, ...] = ()


def _touch_sentinel(started_dir: Optional[str], task_id: str,
                    attempt: int) -> None:
    """Mark a task as started *before* any crash can happen, so the
    parent can distinguish tasks whose worker actually died from tasks
    merely poisoned by someone else's pool breakage."""
    if started_dir is not None:
        with open(os.path.join(
                started_dir, f"{task_id}.{attempt}"), "w"):
            pass


def _run_one(experiment_id: str, threat_scale: float,
             terrain_scale: float, attempt: int = 0,
             started_dir: Optional[str] = None,
             task_id: Optional[str] = None,
             ) -> tuple[ExperimentResult, ExperimentProfile]:
    """Worker body: run one experiment and account for it.

    Top-level (picklable) for ProcessPoolExecutor.  ``default_data`` is
    lru-cached per process, so a worker reuses its kernels across every
    task it is handed.  Hit/miss attribution uses
    :func:`repro.harness.store.cache_scope`, which counts the lookups
    made in this call's context exactly -- unlike snapshot deltas of
    the process-cumulative counters, it stays correct even if runs
    ever interleave within one process.
    """
    try:
        _touch_sentinel(started_dir, task_id or experiment_id, attempt)
        _maybe_crash(experiment_id, attempt)
        data = default_data(threat_scale, terrain_scale)
        n0 = len(data.metrics_log)
        t0 = time.perf_counter()
        with store.cache_scope() as sc:
            result = run_experiment(experiment_id, data)
        wall = time.perf_counter() - t0
        return result, ExperimentProfile(
            experiment_id=experiment_id, wall_seconds=wall,
            cache_hits=sc.hits, cache_misses=sc.misses,
            metrics=tuple(data.metrics_log[n0:]))
    except WorkerError:
        raise
    except BaseException:
        raise WorkerError(experiment_id, traceback.format_exc()) \
            from None


# ----------------------------------------------------------------------
# the planning probe: record simulation cells instead of running them
# ----------------------------------------------------------------------

class _PlanningData(BenchmarkData):
    """A :class:`BenchmarkData` whose ``_simulate`` records each cell.

    Kernels, scenarios and jobs are built for real (they are cheap and
    memoized); only the simulations -- the expensive part -- are
    replaced by a placeholder.  Every recorded cell names a job
    *recipe*, so any pool worker can rebuild the job and execute the
    cell independently.  Experiment arithmetic downstream of the
    placeholder timings is garbage and discarded; the replay phase
    recomputes it over the warm cache, so an incomplete or failed plan
    is merely less parallel, never wrong.

    Given a ``donor`` (the process-wide ``default_data``), the probe
    shares the donor's kernel/job memo dict outright: everything the
    plan builds lands in the memos every later consumer reads, which
    is what makes parent-side planning double as pool warm-up.
    """

    def __init__(self, threat_scale: float = 0.02,
                 terrain_scale: float = 0.05, seed_offset: int = 0,
                 donor: Optional[BenchmarkData] = None):
        super().__init__(threat_scale=threat_scale,
                         terrain_scale=terrain_scale,
                         seed_offset=seed_offset)
        if donor is not None:
            self._cache = donor._cache
        self._donor = donor
        #: planner siblings, deliberately outside the (shared) memo
        #: dict so they never collide with the donor's real siblings
        self._plan_siblings: dict[int, "_PlanningData"] = {}
        #: (cache key, cell descriptor or None) per ``_simulate`` call;
        #: shared with the seed-offset siblings so one plan call sees
        #: every universe's cells
        self.trace: list[tuple[str, Optional[dict]]] = []

    def with_seed_offset(self, seed_offset: int) -> "_PlanningData":
        if seed_offset == self.seed_offset:
            return self
        sib = self._plan_siblings.get(seed_offset)
        if sib is None:
            donor = (self._donor.with_seed_offset(seed_offset)
                     if self._donor is not None else None)
            sib = _PlanningData(threat_scale=self.threat_scale,
                                terrain_scale=self.terrain_scale,
                                seed_offset=seed_offset, donor=donor)
            sib.trace = self.trace
            self._plan_siblings[seed_offset] = sib
        return sib

    def _simulate(self, key_payload: dict, run) -> float:
        key = self._sim_key(key_payload)
        self.trace.append((key, self._cell(key, key_payload)))
        return 1.0  # placeholder: plans never produce user-visible rows

    def _cell(self, key: str, key_payload: dict) -> Optional[dict]:
        jobfp = key_payload.get("job", "")
        if not (isinstance(jobfp, str) and jobfp.startswith("recipe:")):
            return None  # inline-built job: not transportable
        recipe = jobfp[len("recipe:"):]
        return {
            "key": key,
            "kind": key_payload["kind"],
            "spec": key_payload["spec"],
            "job_recipe": recipe,
            "slices_per_phase": key_payload["slices_per_phase"],
            "exploit_fine_grained": key_payload.get(
                "exploit_fine_grained", False),
            "seed_offset": self.seed_offset,
            "unit": f"cell:{recipe}@{self.seed_offset}",
            "weight": _cell_weight(recipe, key_payload["spec"]),
        }


def _cell_weight(recipe: str, spec) -> int:
    """Largest-first ordering heuristic: thread count x machine width.

    Only the *ordering* of cell submissions depends on this, never a
    result, so a rough static estimate is enough.
    """
    if recipe.endswith("-fg"):
        base = 1000
    elif recipe.startswith("tb-"):
        base = taskbench.recipe_weight(recipe)  # total grain units
    else:
        tail = recipe.rsplit("-", 2)
        base = int(tail[1]) if len(tail) == 3 and tail[1].isdigit() else 1
    width = (getattr(spec, "n_processors", None)
             or getattr(spec, "n_cpus", None) or 1)
    return base * int(width)


def _plan_one(experiment_id: str, planner: _PlanningData) -> dict:
    """Enumerate one experiment's simulation cells (in-process).

    Runs in the scheduling process, before the pool forks: planning is
    cheap once kernels are memoized, and doing it here warms exactly
    the state the forked workers inherit.
    """
    del planner.trace[:]
    t0 = time.perf_counter()
    try:
        run_experiment(experiment_id, planner)
    except Exception:
        # Placeholder timings can break experiment arithmetic (ratios
        # of constants, checks that divide).  The replay phase runs
        # the experiment for real, so a partial plan costs
        # parallelism, not correctness.
        pass
    cells: dict[str, Optional[dict]] = {}
    for key, cell in planner.trace:
        cells.setdefault(key, cell)
    return {"cells": cells, "wall": time.perf_counter() - t0}


def _run_cell(cell: dict, threat_scale: float, terrain_scale: float,
              attempt: int = 0, started_dir: Optional[str] = None,
              task_id: Optional[str] = None) -> dict:
    """Worker body: execute one simulation cell into the shared cache.

    The job is rebuilt from its recipe name; the resulting cache key is
    identical to the one the planner recorded (both are fingerprints of
    the same spec / recipe / scales / universe), so the replay phase
    finds the entry without coordination.
    """
    unit = cell["unit"]
    try:
        _touch_sentinel(started_dir, task_id or unit, attempt)
        _maybe_crash(unit, attempt)
        data = default_data(threat_scale, terrain_scale) \
            .with_seed_offset(cell["seed_offset"])
        job = data.job_from_recipe(cell["job_recipe"])
        n0 = len(data.metrics_log)
        t0 = time.perf_counter()
        with store.cache_scope() as sc:
            if cell["kind"] == "conventional":
                data.run_conventional(
                    cell["spec"], job,
                    slices_per_phase=cell["slices_per_phase"],
                    exploit_fine_grained=cell["exploit_fine_grained"])
            else:
                data.run_mta_spec(
                    cell["spec"], job,
                    slices_per_phase=cell["slices_per_phase"])
        # the simulation record this cell produced (exactly one
        # _simulate call), streamed back so the scheduling process can
        # emit it to the run directory's cells.jsonl as it lands
        record = (data.metrics_log[n0]
                  if len(data.metrics_log) > n0 else None)
        return {"wall": time.perf_counter() - t0,
                "hits": sc.hits, "misses": sc.misses,
                "record": record}
    except WorkerError:
        raise
    except BaseException:
        raise WorkerError(unit, traceback.format_exc()) from None


#: ``cell_sink(experiment_id, records)`` receives simulation records
#: (``BenchmarkData.metrics_log`` entries) as they land, attributed to
#: the experiment on whose behalf they ran -- the run directory's
#: ``cells.jsonl`` stream.  Called in the scheduling process only.
CellSink = Callable[[str, Sequence[dict]], None]


def run_cells(
    cells: Sequence[dict],
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: int = 1,
    on_record: Optional[Callable[[dict], None]] = None,
    trim_logs: bool = False,
) -> dict[str, dict]:
    """Execute transportable simulation cells, deduped against the cache.

    The service batcher's engine entry point (and usable by any caller
    holding cell descriptors of the :class:`_PlanningData` shape:
    ``key``/``kind``/``spec``/``job_recipe``/``slices_per_phase``/
    ``exploit_fine_grained``/``seed_offset``/``unit``/``weight``).
    Cells are deduplicated by content-addressed ``key`` among
    themselves and against the persistent cache; the remainder run
    largest-first -- in this process with ``jobs <= 1``, otherwise
    fanned over the crash-salvaging pool exactly like a ``repro all -j``
    run (the pool path requires an active cache to transport results,
    and falls back to in-process execution without one).

    Returns ``{key: record}`` with one simulation record per distinct
    key.  ``on_record`` is additionally called with each record as it
    lands (cache hits first), in the scheduling process -- the hook the
    asyncio service uses to stream results before the whole batch has
    finished.

    ``trim_logs=True`` truncates the process-wide ``metrics_log`` after
    each in-process cell: a long-running service executes cells forever
    in one process, and the log (an append-only list meant to span one
    CLI invocation) would otherwise grow without bound.  Leave it off
    when anything else in the process profiles simulations.
    """
    records: dict[str, dict] = {}
    todo: dict[str, dict] = {}
    cache = store.active_cache()
    for cell in cells:
        key = cell["key"]
        if key in records or key in todo:
            continue
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            records[key] = store.entry_to_record(
                key, entry, cell["seed_offset"], kind=cell["kind"])
        else:
            todo[key] = cell
    if on_record is not None:
        for record in records.values():
            on_record(record)
    if not todo:
        return records

    def settle(key: str, record: dict) -> None:
        records[key] = record
        if on_record is not None:
            on_record(record)

    order = sorted(todo.values(), key=lambda c: c["weight"],
                   reverse=True)
    if jobs > 1 and cache is not None:
        tasks = [_Task("cell:" + c["key"], c["unit"], _run_cell, c)
                 for c in order]

        def on_result(tid: str, value) -> list[_Task]:
            record = value.get("record")
            if record is not None:
                settle(tid[len("cell:"):], record)
            return []

        _pool_schedule(tasks, threat_scale, terrain_scale,
                       min(jobs, len(tasks)), on_result=on_result)
        # a worker whose record went missing (it only happens if the
        # cell's _simulate was memo-elided) still published through
        # the cache -- recover rather than drop the subscriber
        for key, cell in todo.items():
            if key not in records:
                entry = cache.get(key)
                if entry is None:
                    raise WorkerError(
                        cell["unit"],
                        f"cell {key} produced no record and no cache "
                        f"entry")
                settle(key, store.entry_to_record(
                    key, entry, cell["seed_offset"], kind=cell["kind"]))
    else:
        for cell in order:
            value = _run_cell(cell, threat_scale, terrain_scale)
            record = value["record"]
            if record is None:  # pragma: no cover -- memo-elided
                raise WorkerError(
                    cell["unit"],
                    f"cell {cell['key']} produced no record")
            settle(cell["key"], record)
            if trim_logs:
                data = default_data(threat_scale, terrain_scale) \
                    .with_seed_offset(cell["seed_offset"])
                del data.metrics_log[:]
    return records


def run_experiments(
    experiment_ids: Optional[Iterable[str]] = None,
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: Optional[int] = None,
    data: Optional[BenchmarkData] = None,
    cell_sink: Optional[CellSink] = None,
) -> tuple[dict[str, ExperimentResult], list[ExperimentProfile]]:
    """Run experiments, in parallel when ``jobs > 1``.

    Results come back keyed by id in the requested order regardless of
    completion order.  ``jobs=None`` uses the CPU count; ``jobs=1``
    runs serially in-process (sharing ``data`` when given, so tests and
    the single-core path pay no pickling or re-kerneling cost).

    ``cell_sink`` streams per-simulation records to the caller as work
    completes (see :data:`CellSink`); the run-directory layer uses it
    to write ``cells.jsonl`` incrementally, so even an interrupted run
    leaves its finished cells on disk.

    With ``REPRO_RUN_TIMEOUT_S=soft[:hard]`` set, a
    :class:`~repro.obs.watchdog.RunWatchdog` shadows the whole run:
    warn on stderr past ``soft`` wall-clock seconds, interrupt the run
    past ``hard``.
    """
    from contextlib import nullcontext

    from repro.obs.watchdog import RUN_TIMEOUT_ENV, RunWatchdog

    raw_timeout = os.environ.get(RUN_TIMEOUT_ENV, "")
    guard = (RunWatchdog.from_env(raw_timeout) if raw_timeout
             else nullcontext())
    with guard:
        return _run_experiments_inner(
            experiment_ids, threat_scale=threat_scale,
            terrain_scale=terrain_scale, jobs=jobs, data=data,
            cell_sink=cell_sink)


def _run_experiments_inner(
    experiment_ids: Optional[Iterable[str]] = None,
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: Optional[int] = None,
    data: Optional[BenchmarkData] = None,
    cell_sink: Optional[CellSink] = None,
) -> tuple[dict[str, ExperimentResult], list[ExperimentProfile]]:
    ids: Sequence[str] = tuple(experiment_ids or EXPERIMENT_IDS)
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, jobs)

    if jobs == 1 or not ids:
        if data is None:
            data = default_data(threat_scale, terrain_scale)
        results: dict[str, ExperimentResult] = {}
        profiles: list[ExperimentProfile] = []
        for eid in ids:
            n0 = len(data.metrics_log)
            t0 = time.perf_counter()
            with store.cache_scope() as sc:
                results[eid] = run_experiment(eid, data)
            wall = time.perf_counter() - t0
            profiles.append(ExperimentProfile(
                experiment_id=eid, wall_seconds=wall,
                cache_hits=sc.hits, cache_misses=sc.misses,
                metrics=tuple(data.metrics_log[n0:])))
            if cell_sink is not None:
                cell_sink(eid, data.metrics_log[n0:])
        return results, profiles

    # Cell-granular scheduling needs the persistent cache to transport
    # simulation results between workers, and an active tracer must
    # observe real simulations in the run's own process semantics --
    # either condition falls back to classic per-experiment tasks.
    if store.active_cache() is not None and active_tracer() is None:
        pairs = _cell_run(ids, threat_scale, terrain_scale, jobs,
                          cell_sink=cell_sink)
    else:
        pairs = _experiment_run(ids, threat_scale, terrain_scale,
                                min(jobs, len(ids)),
                                cell_sink=cell_sink)
    return ({eid: pairs[eid][0] for eid in ids},
            [pairs[eid][1] for eid in ids])


# ----------------------------------------------------------------------
# the generic crash-salvaging pool scheduler
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Task:
    """One unit of pool work.

    ``task_id`` is unique per run and names the start sentinel;
    ``unit`` is the fault-attribution id (crash injection, WorkerError)
    -- the bare experiment id for plan/replay tasks, ``cell:...`` for
    cells, so resilience seeds derived over experiment ids are
    unaffected by how many cells an experiment fans out into.
    """

    task_id: str
    unit: str
    fn: Callable
    payload: object = field(compare=False)


def _pool_schedule(
    tasks: Sequence[_Task],
    threat_scale: float,
    terrain_scale: float,
    jobs: int,
    on_result: Optional[Callable[[str, object], list[_Task]]] = None,
) -> dict[str, object]:
    """Drain tasks through one persistent pool, surviving crashes.

    ``on_result(task_id, value)`` may return follow-up tasks, which is
    how planning fans out into cells and cells into replays without any
    phase barrier.

    A worker that dies (``os._exit``, segfault, OOM kill) breaks the
    entire pool: every unfinished future raises
    :class:`BrokenProcessPool`.  Futures that completed *before* the
    crash still hold their results, so those are salvaged; the pool is
    rebuilt and only the failures are retried -- each task gets
    ``REPRO_RETRY_MAX`` attempts with exponential backoff.  The attempt
    number reaches the worker, so deterministic crash injection
    (``REPRO_CHAOS_CRASH``) can fault attempt 0 and spare the retry.

    Pool breakage poisons *every* unfinished future, including tasks
    that were still queued (or mid-run on another worker) when the
    culprit's worker died, and the executor gives no way to tell them
    apart.  Charging every poisoned future an attempt would let one bad
    task exhaust innocent budgets.  So workers touch a start sentinel
    before running, and after a breakage the tasks that had *started*
    the broken round (a superset containing the culprit, at most
    pool-width wide) are re-run one at a time: running alone, a crash
    identifies its task exactly, and only that task's attempt counter
    moves.  Tasks that never started are requeued uncharged.

    Retry backoff (``base * 2**(attempt-1)``) is applied as a
    *readiness deadline* on the requeued task, not an inline sleep: the
    scheduler keeps collecting other results while a retry waits, and a
    task that exhausts its attempt budget raises immediately -- the
    final failure never sleeps first.
    """
    import multiprocessing as mp
    import shutil
    import tempfile

    # Fork (when the platform has it) so workers inherit the parent's
    # warm kernel/job memos copy-on-write -- the pool is created after
    # planning precisely so there is something to inherit.
    mp_context = (mp.get_context("fork")
                  if "fork" in mp.get_all_start_methods() else None)

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=jobs,
                                   mp_context=mp_context)

    max_attempts = max(1, int(os.environ.get(RETRY_MAX_ENV, "3")))
    backoff = float(os.environ.get(RETRY_BACKOFF_ENV, "0.25"))
    results: dict[str, object] = {}
    by_id: dict[str, _Task] = {}
    attempts: dict[str, int] = {}
    not_before: dict[str, float] = {}
    queue: list[str] = []
    suspects: list[str] = []
    started_dir = tempfile.mkdtemp(prefix="repro-pool-")
    pool = new_pool()

    def enqueue(task: _Task) -> None:
        by_id[task.task_id] = task
        attempts.setdefault(task.task_id, 0)
        queue.append(task.task_id)

    def settle(tid: str, value: object) -> None:
        results[tid] = value
        if on_result is not None:
            for task in (on_result(tid, value) or ()):
                enqueue(task)

    def charge(tid: str) -> None:
        """One failed attempt; sets the retry deadline.  The caller
        raises instead of calling this when the budget is exhausted."""
        attempts[tid] += 1
        not_before[tid] = time.monotonic() + \
            backoff * (2.0 ** (attempts[tid] - 1))

    def submit(tid: str):
        task = by_id[tid]
        return pool.submit(task.fn, task.payload, threat_scale,
                           terrain_scale, attempts[tid], started_dir,
                           tid)

    def rebuild_pool() -> None:
        nonlocal pool
        # the broken pool cannot run anything anymore
        pool.shutdown(wait=False, cancel_futures=True)
        pool = new_pool()

    def classify(tid: str) -> None:
        """After a pool breakage: suspect if the task had started its
        current attempt, requeue uncharged otherwise."""
        started = os.path.exists(os.path.join(
            started_dir, f"{tid}.{attempts[tid]}"))
        if started:
            suspects.append(tid)
        else:
            queue.append(tid)

    for task in tasks:
        enqueue(task)

    try:
        while queue or suspects:
            # isolation phase: one suspect at a time, so a dead worker
            # names its task unambiguously
            while suspects:
                tid = suspects.pop(0)
                delay = not_before.get(tid, 0.0) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                fut = submit(tid)
                try:
                    settle(tid, fut.result())
                except BrokenProcessPool as exc:
                    rebuild_pool()
                    if attempts[tid] + 1 >= max_attempts:
                        raise WorkerError(
                            by_id[tid].unit,
                            f"worker process died "
                            f"({max_attempts} attempts): {exc}") \
                            from exc
                    charge(tid)
                    suspects.insert(0, tid)
                except Exception:
                    if attempts[tid] + 1 >= max_attempts:
                        raise
                    charge(tid)
                    suspects.insert(0, tid)
            if not queue:
                break

            # pipelined phase: keep the pool saturated with every task
            # that is ready, collecting and fanning out as they finish
            inflight: dict[object, str] = {}
            broken = False
            while queue or inflight:
                now = time.monotonic()
                ready = [tid for tid in queue
                         if not_before.get(tid, 0.0) <= now]
                if ready:
                    queue[:] = [tid for tid in queue
                                if tid not in set(ready)]
                    for tid in ready:
                        inflight[submit(tid)] = tid
                if not inflight:
                    # everything queued is a retry waiting out backoff
                    soonest = min(not_before[tid] for tid in queue)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue
                timeout = None
                if queue:
                    soonest = min(not_before.get(tid, 0.0)
                                  for tid in queue)
                    timeout = max(0.0, soonest - time.monotonic())
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    tid = inflight.pop(fut)
                    try:
                        settle(tid, fut.result())
                    except BrokenProcessPool:
                        broken = True
                        classify(tid)
                    except Exception:
                        if attempts[tid] + 1 >= max_attempts:
                            raise
                        charge(tid)
                        queue.append(tid)
                if broken:
                    # drain survivors: completed futures still hold
                    # results, everything else is poisoned
                    for fut, tid in list(inflight.items()):
                        try:
                            settle(tid, fut.result())
                        except BrokenProcessPool:
                            classify(tid)
                        except Exception:
                            if attempts[tid] + 1 >= max_attempts:
                                raise
                            charge(tid)
                            queue.append(tid)
                    inflight.clear()
                    rebuild_pool()
                    if not suspects:
                        # sentinel writes failed somehow: isolate
                        # everyone poisoned rather than loop without
                        # progress
                        suspects[:] = queue
                        queue[:] = []
                    break
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        shutil.rmtree(started_dir, ignore_errors=True)
    return results


def _experiment_run(
    ids: Sequence[str], threat_scale: float, terrain_scale: float,
    jobs: int, cell_sink: Optional[CellSink] = None,
) -> dict[str, tuple[ExperimentResult, ExperimentProfile]]:
    """Per-experiment scheduling (no cache to share cells through)."""
    tasks = [_Task("run:" + eid, eid, _run_one, eid) for eid in ids]

    def on_result(tid: str, value) -> list[_Task]:
        if cell_sink is not None:
            _result, profile = value
            cell_sink(tid[len("run:"):], profile.metrics)
        return []

    results = _pool_schedule(tasks, threat_scale, terrain_scale, jobs,
                             on_result=on_result)
    return {eid: results["run:" + eid] for eid in ids}


def _cell_run(
    ids: Sequence[str], threat_scale: float, terrain_scale: float,
    jobs: int, cell_sink: Optional[CellSink] = None,
) -> dict[str, tuple[ExperimentResult, ExperimentProfile]]:
    """Cell-granular scheduling: plan -> deduped cells -> replay.

    Planning happens up front in this process (warming the kernels and
    jobs the forked workers then inherit).  The transportable cells of
    all experiments are deduplicated against each other and against
    the persistent cache, sorted largest first, and fanned over the
    pool; each experiment's replay follows as soon as its last
    outstanding cell lands.  Cell cost (wall and cache misses) is
    charged to the first experiment that planned the cell.
    """
    cache = store.active_cache()
    planner = _PlanningData(
        threat_scale=threat_scale, terrain_scale=terrain_scale,
        donor=default_data(threat_scale, terrain_scale))

    plan_wall = dict.fromkeys(ids, 0.0)
    charged_wall = dict.fromkeys(ids, 0.0)
    charged_miss = dict.fromkeys(ids, 0)
    key_of_task: dict[str, str] = {}
    owner: dict[str, str] = {}          # cell key -> charged eid
    waiting: dict[str, list[str]] = {}  # cell key -> waiting eids
    remaining: dict[str, set] = {eid: set() for eid in ids}
    replayed: set = set()

    pending_cells: list[dict] = []
    seen: dict[str, bool] = {}          # cell key -> needs computing
    for eid in ids:
        plan = _plan_one(eid, planner)
        plan_wall[eid] = plan["wall"]
        for key, cell in plan["cells"].items():
            if cell is None:
                continue  # inline-built job: replay computes it
            if key not in seen:
                seen[key] = cache.get(key) is None
                if seen[key]:
                    owner[key] = eid
                    waiting[key] = []
                    pending_cells.append(cell)
            if seen[key]:
                waiting[key].append(eid)
                remaining[eid].add(key)

    def replay_task(eid: str) -> _Task:
        replayed.add(eid)
        return _Task("run:" + eid, eid, _run_one, eid)

    # largest first: the biggest cells bound the tail of the run
    pending_cells.sort(key=lambda c: c["weight"], reverse=True)
    tasks: list[_Task] = []
    for cell in pending_cells:
        task_id = "cell:" + cell["key"]
        key_of_task[task_id] = cell["key"]
        tasks.append(_Task(task_id, cell["unit"], _run_cell, cell))
    # experiments with nothing outstanding replay straight away
    tasks.extend(replay_task(eid) for eid in ids if not remaining[eid])

    def on_result(tid: str, value) -> list[_Task]:
        if not tid.startswith("cell:"):
            # a replay finished: stream every record it consulted (the
            # sink dedupes against the cell-task records by cache key)
            if cell_sink is not None:
                _result, profile = value
                cell_sink(tid[len("run:"):], profile.metrics)
            return []
        key = key_of_task[tid]
        eid = owner[key]
        charged_wall[eid] += value["wall"]
        charged_miss[eid] += value["misses"]
        if cell_sink is not None and value.get("record") is not None:
            cell_sink(eid, (value["record"],))
        new: list[_Task] = []
        for waiter in waiting.pop(key, ()):
            remaining[waiter].discard(key)
            if not remaining[waiter] and waiter not in replayed:
                new.append(replay_task(waiter))
        return new

    results = _pool_schedule(tasks, threat_scale, terrain_scale, jobs,
                             on_result=on_result)

    out: dict[str, tuple[ExperimentResult, ExperimentProfile]] = {}
    for eid in ids:
        result, rp = results["run:" + eid]
        out[eid] = (result, ExperimentProfile(
            experiment_id=eid,
            wall_seconds=(plan_wall[eid] + charged_wall[eid]
                          + rp.wall_seconds),
            cache_hits=rp.cache_hits,
            cache_misses=charged_miss[eid] + rp.cache_misses,
            metrics=rp.metrics))
    return out


def metrics_rollup(profile: ExperimentProfile) -> dict:
    """Aggregate one experiment's simulation records into totals."""
    from repro.obs.metrics import rollup_records

    return rollup_records(profile.metrics)


def metrics_to_dict(profiles: list[ExperimentProfile]) -> dict:
    """Machine-readable ``--metrics-json`` payload (for CI)."""
    return {
        "schema": 1,
        "experiments": [
            {"experiment_id": p.experiment_id,
             "rollup": metrics_rollup(p),
             "runs": list(p.metrics)}
            for p in profiles
        ],
    }


def render_metrics(profiles: list[ExperimentProfile]) -> str:
    """The ``--metrics`` table: per-experiment simulation rollups."""
    lines = [
        f"{'experiment':<26} {'sims':>5} {'sim-sec':>10} "
        f"{'regions c/d':>12} {'closed':>7} {'drained':>8} "
        f"{'region-wall':>12} {'lock-wait':>10} {'convoy':>7}",
        "-" * 96,
    ]
    for p in profiles:
        t = metrics_rollup(p)
        regions = (f"{t['cohort_regions']:.0f}/"
                   f"{t['des_regions']:.0f}")
        lines.append(
            f"{p.experiment_id:<26} {t['sim_runs']:>5d} "
            f"{t['simulated_seconds']:>10.3f} {regions:>12} "
            f"{t['closed_form_regions']:>7.0f} "
            f"{t['drained_grants']:>8.0f} "
            f"{t['region_wall_seconds']:>12.3f} "
            f"{t['lock_wait_seconds']:>10.3f} "
            f"{t['lock_convoy_max']:>7.0f}")
    return "\n".join(lines)


def render_profile(profiles: list[ExperimentProfile],
                   wall_seconds: Optional[float] = None) -> str:
    """The ``--profile`` table (per-experiment time + cache traffic).

    Under cell-granular scheduling an experiment's time is its plan +
    the cells it was first to request + its replay; misses are counted
    where the simulation was actually computed, hits are the replay's
    cache reads.  The time is measured in whichever process did the
    work, so under ``-j`` the column adds up the workers' CPU-seconds
    and its total exceeds the elapsed time; ``wall_seconds``, the pass's
    true end-to-end wall, is printed as the last line when given.
    """
    lines = [
        f"{'experiment':<26} {'cpu (s)':>9} {'cache hits':>11} "
        f"{'misses':>7}",
        "-" * 56,
    ]
    for p in profiles:
        lines.append(f"{p.experiment_id:<26} {p.wall_seconds:>9.2f} "
                     f"{p.cache_hits:>11d} {p.cache_misses:>7d}")
    lines.append("-" * 56)
    lines.append(
        f"{'total':<26} {sum(p.wall_seconds for p in profiles):>9.2f} "
        f"{sum(p.cache_hits for p in profiles):>11d} "
        f"{sum(p.cache_misses for p in profiles):>7d}")
    if wall_seconds is not None:
        lines.append(f"{'end-to-end wall (s)':<26} {wall_seconds:>9.2f}")
    return "\n".join(lines)
