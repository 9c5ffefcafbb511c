"""Outside-in span tracing for the benchmark's traced runs.

Nothing here edits the program.  :func:`install` replaces the public
entry point of each layer -- wherever a loaded ``repro`` module holds a
reference to it -- with a wrapper that records a span, and the
returned :class:`Installed` puts every original back.  Spans live in
memory (one tuple each) until :meth:`Tracer.dump` writes them out at
the end of the run.

A span is ``(id, parent, name, start, end, thread)``; the parent is
the innermost open span of the same thread, and every span carries the
tracer's ``run_id`` when dumped.  ``counters.trace_rollup`` turns a
span list into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: (defining module, function, span name): plain functions, replaced
#: in every loaded ``repro.*`` module that refers to them
FUNCTIONS = (
    ("repro.c3i.threat.scenarios", "benchmark_scenarios", "c3i.kernel"),
    ("repro.c3i.threat.sequential", "run_sequential", "c3i.kernel"),
    ("repro.c3i.threat.chunked", "run_chunked", "c3i.kernel"),
    ("repro.c3i.threat.finegrained", "run_finegrained", "c3i.kernel"),
    ("repro.c3i.terrain.scenarios", "benchmark_scenarios", "c3i.kernel"),
    ("repro.c3i.terrain.sequential", "run_sequential", "c3i.kernel"),
    ("repro.c3i.terrain.blocked", "run_blocked", "c3i.kernel"),
    ("repro.c3i.terrain.finegrained", "run_finegrained", "c3i.kernel"),
    ("repro.c3i.threat.workload", "sequential_benchmark_job",
     "workload.job_build"),
    ("repro.c3i.threat.workload", "chunked_benchmark_job",
     "workload.job_build"),
    ("repro.c3i.threat.workload", "finegrained_benchmark_job",
     "workload.job_build"),
    ("repro.c3i.terrain.workload", "sequential_benchmark_job",
     "workload.job_build"),
    ("repro.c3i.terrain.workload", "blocked_benchmark_job",
     "workload.job_build"),
    ("repro.c3i.terrain.workload", "finegrained_benchmark_job",
     "workload.job_build"),
    ("repro.taskbench.generator", "job_from_recipe", "taskbench.job"),
    ("repro.machines.cohort", "run_region", "machines.cohort_region"),
    ("repro.machines.cohort", "run_serial_phase", "machines.cohort_serial"),
    ("repro.mta.cohort", "run_region", "mta.cohort_region"),
    ("repro.mta.cohort", "run_serial_phase", "mta.cohort_serial"),
    ("repro.harness.store", "fingerprint", "store.fingerprint"),
    ("repro.harness.registry", "run_experiment", None),  # registry.<id>
    ("repro.harness.parallel", "run_cells", "parallel.run_cells"),
    ("repro.service.protocol", "cell_from_payload",
     "protocol.cell_from_payload"),
)

#: (module, class, method, span name); ``None`` names by machine family
METHODS = (
    ("repro.machines.machine", "ConventionalMachine", "run", None),
    ("repro.mta.machine", "MtaMachine", "run", "mta.run"),
    ("repro.harness.store", "ResultCache", "get", "store.cache_get"),
    ("repro.harness.store", "ResultCache", "put", "store.cache_put"),
    ("repro.harness.rundir", "RunWriter", "record", "rundir.record"),
    ("repro.harness.rundir", "RunWriter", "finish", "rundir.finalize"),
)


def _experiment_span(args, kwargs) -> str:
    eid = args[0] if args else kwargs.get("experiment_id", "?")
    return f"registry.{eid}"


def _conventional_span(args, kwargs) -> str:
    # the T3-4 family rides the conventional-machine contract; its
    # derived specs keep the reference machine's name
    name = getattr(getattr(args[0], "spec", None), "name", "")
    return "cmt.run" if name.startswith("SPARC T3-4") else "machines.run"


class Tracer:
    """In-memory span recorder (thread-aware parents)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        #: ``store.cache_get`` calls that returned an entry
        self.cache_hits = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: Optional[str],
             namer: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if namer is None else namer(args, kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, label, t0, t1,
                              threading.get_ident()))
            if label == "store.cache_get" and result is not None:
                tracer.cache_hits += 1
            return result

        traced.__wrapped_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start", "end",
                                  "thread"],
                       "spans": self.spans}, fh)


class Installed:
    """The patches one :func:`install` made; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every layer entry point listed above."""
    import importlib

    done = Installed()
    for module_name, attr, label in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        namer = _experiment_span if label is None else None
        wrapper = tracer.wrap(original, label, namer)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    done.patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)
    for module_name, cls_name, attr, label in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        namer = _conventional_span if label is None else None
        done.patches.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, label, namer))
    return done


# ----------------------------------------------------------------------
# rollup
# ----------------------------------------------------------------------

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover.

    Children of one span run on the parent's thread inside its
    interval and never overlap each other, so the covered time is the
    sum of the children's durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, t0, t1, _thread in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    return {sid: (t1 - t0) - covered.get(sid, 0.0)
            for sid, _parent, _name, t0, t1, _thread in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def totals(spans: list[tuple]) -> dict[str, tuple[float, int]]:
    """Span name -> (inclusive seconds, calls).

    The inclusive time counts only the outermost span of a name, so a
    layer entry point that calls itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for sid, parent, name, t0, t1, _thread in spans:
        entry = out[name]
        entry[1] += 1
        ancestor = parent
        nested = False
        while ancestor is not None:
            up = by_id.get(ancestor)
            if up is None:
                break
            if up[2] == name:
                nested = True
                break
            ancestor = up[1]
        if not nested:
            entry[0] += t1 - t0
    return {name: (v[0], v[1]) for name, v in out.items()}


def layer_self_seconds(spans: list[tuple]) -> dict[str, float]:
    """Layer -> total self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, _t0, _t1, _thread in spans:
        out[layer_of(name)] += own[sid]
    return dict(out)
