"""Cohort detection: canonical structural signatures of thread programs.

The paper's parallel regions are overwhelmingly *homogeneous*: the 256
chunk threads of Threat Analysis run the same program over different
threat ranges, the sync-variable variant's thousand threads all do
``scan; append-under-lock``, and Terrain Masking's workers all run the
same queue-pop loop.  A set of threads whose programs are structurally
identical -- same item sequence, same lock names, no cross-thread
synchronization other than the region barrier and per-item
:class:`~repro.workload.task.Critical` sections -- is a **cohort** and
can be simulated as one vectorized timeline (see
:mod:`repro.des.batch`) instead of one DES process per thread.

A program's *signature* captures exactly the structure the machine
models dispatch on: the ordered item kinds, the lock name of each
critical section, and whether each phase carries internal parallelism.
Phase magnitudes (op counts, footprints, trip counts) are deliberately
excluded -- cohort threads may be arbitrarily imbalanced, only their
shape must match.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.workload.task import (
    Compute,
    Critical,
    ParallelRegion,
    ThreadProgram,
    WorkQueueRegion,
)

#: Environment escape hatch: set to anything but ""/"0" to force every
#: region and serial step down the pure-DES path.
NO_COHORT_ENV = "REPRO_NO_COHORT"


def cohort_enabled() -> bool:
    """Whether the cohort fast path is enabled (default: yes)."""
    return os.environ.get(NO_COHORT_ENV, "") in ("", "0")


# The sibling escape hatch one layer down: REPRO_FORCE_CLOSED_FORM=0
# keeps the cohort engine but event-steps every thread individually in
# its interpreted loops (no class compression, convoy-drain
# replication, closed-form regions or compiled work-queue loop).  Defined next to the engine; re-exported here so harness
# code can treat both knobs as one surface.
from repro.des.batch import (  # noqa: E402  (re-export)
    FORCE_CLOSED_FORM_ENV,
    closed_form_enabled,
)


ItemSignature = tuple[str, Optional[str], bool]


def item_signature(item: Union[Compute, Critical]) -> ItemSignature:
    """``(kind, lock_name, fine_grained)`` for one thread item."""
    if isinstance(item, Compute):
        return ("compute", None, item.phase.parallelism > 1)
    if isinstance(item, Critical):
        return ("critical", item.lock, item.phase.parallelism > 1)
    raise TypeError(f"unknown thread item {item!r}")


#: id(program) -> (program, signature); identity-keyed because hashing
#: a frozen ThreadProgram walks its whole item tree -- as expensive as
#: recomputing the signature.  The reference keeps the id stable.
_SIG_MEMO: dict[int, tuple[ThreadProgram, tuple]] = {}
_SIG_MEMO_MAX = 65536


def program_signature(program: ThreadProgram) -> tuple[ItemSignature, ...]:
    """The ordered item signatures of one thread's program.

    Memoized by object identity: jobs are memoized by the harness, so
    the same program objects are re-dispatched run after run (every
    machine model and thread count walks the same job).
    """
    hit = _SIG_MEMO.get(id(program))
    if hit is not None and hit[0] is program:
        return hit[1]
    sig = tuple(item_signature(it) for it in program.items)
    if len(_SIG_MEMO) >= _SIG_MEMO_MAX:
        _SIG_MEMO.clear()
    _SIG_MEMO[id(program)] = (program, sig)
    return sig


def region_cohort_signature(
        region: ParallelRegion) -> Optional[tuple[ItemSignature, ...]]:
    """The region's shared program signature, or None if heterogeneous.

    A :class:`ParallelRegion` forms a cohort only when every thread
    runs the same program shape; threads that differ in item order,
    lock names or fine-grained structure must keep their individual
    DES processes.
    """
    threads = region.threads
    sig = program_signature(threads[0])
    for th in threads[1:]:
        if program_signature(th) != sig:
            return None
    return sig


def region_phases(region: Union[ParallelRegion, WorkQueueRegion]):
    """Every phase appearing in the region, in program order."""
    if isinstance(region, ParallelRegion):
        for th in region.threads:
            for it in th.items:
                yield it.phase
    else:
        for item in region.items:
            for it in item.items:
                yield it.phase


def max_region_parallelism(
        region: Union[ParallelRegion, WorkQueueRegion]) -> float:
    """Largest internal phase parallelism inside the region."""
    return max((p.parallelism for p in region_phases(region)), default=1.0)
