"""Vectorized batch execution of homogeneous thread cohorts.

The DES path simulates every thread of a parallel region as its own
generator process; each fair-share reallocation is an O(n) Python scan
and each completion a heap event.  For *cohorts* -- threads whose
programs are structurally identical (same item sequence, no cross-
thread synchronization except the region barrier and per-item critical
sections) -- the same timeline can be replayed with flat per-thread
state and no processes, events, or callbacks at all:

* A batch server mirrors one
  :class:`~repro.des.resources.FairShareServer` with at most one job
  per thread slot, advancing remaining work lazily (only when the
  server is touched, like the DES server's flush/wakeup chunking) and
  caching its next completion time.  Small cohorts use
  :class:`ScalarBatchServer`, which reproduces the DES allocation
  arithmetic verbatim in Python; large cohorts use
  :class:`BatchServer`, which holds remaining work in numpy arrays so
  a reallocation costs a few vector operations instead of an O(n)
  interpreted scan.  The completion rule (batch every job within
  ``1e-9`` relative of the minimum remaining work) is the DES server's
  rule in both.

* :class:`CohortEngine` owns the region's servers, sleep timers and
  locks and drives per-thread *segment lists* -- a precompiled form of
  the thread programs -- through them, mirroring the DES event order:
  at each event time every completion is processed before any lock
  handoff wakes a waiter, and completions are processed in job-arrival
  order, matching the FIFO insertion order of ``FairShareServer._jobs``.

On top of the event-stepped loop sit three *closed-form* layers and
one compiled loop (all disabled together by
``REPRO_FORCE_CLOSED_FORM=0``):

* **Class compression** -- threads whose compiled programs are
  *exactly* identical (same segments, same home server) stay in
  perfect lockstep under the batch arithmetic, so one weighted entity
  replays all of them.  Server jobs carry the weight: the fair share
  divides by the member count, served work scales by it, and a
  weighted lock acquire enqueues all members back to back with the
  per-arrival depth statistics the DES ``Resource`` would record.

* **Convoy-drain replication** -- when a run of identical members is
  queued on a lock and the environment is steady (no other completions
  or timers), one member's critical-section pass is measured
  event-stepped and the following members are replayed arithmetically:
  the grant times form ``t0 + arange(k) * delta`` and every server's
  remaining-work/busy/served state advances by ``k`` times the
  measured per-pass delta.  One watch measures a pass; any event that
  interleaves marks it foreign and the engine falls back to stepping.

* **Single-class regions** -- a region whose threads collapse to one
  class and whose program is serve/sleep segments plus at most one
  trailing critical section is scheduled entirely in closed form by
  :meth:`CohortEngine._run_single_class`: water-filled fair-share
  spans for the lockstep prefix, then a serialized convoy whose
  completion-time array is ``t1 + arange(1, n+1) * delta``, with the
  lock-wait statistics (``waits``, ``wait_time``, depth histogram)
  computed arithmetically.

* **Work-queue regions** -- a two-server pull-from-queue region on
  scalar servers runs in a compiled event loop
  (:meth:`CohortEngine._run_kernel`, ``queue_kernel.c``) that is
  :meth:`CohortEngine._run_two` operation for operation: the same
  double operations in the same order, so the timeline, counters and
  lock statistics are bit-identical, exact release/acquire ties
  included.  It is not a closed form; it only removes the interpreter
  from the hottest loop.  A shape it does not cover, or a missing C
  compiler, runs the interpreted loop.

Equivalence with the DES path is *numerical*, not bit-for-bit: the
vectorized allocation follows the same formulas but groups float
operations differently (e.g. one ``capacity/n`` division instead of a
sequential water-fill chain, or ``k * delta`` instead of ``k`` chained
additions), so event times can differ by a few ulps.  Those
differences are absorbed by the completion-batching tolerance the DES
server itself applies; end-to-end simulated seconds agree to well
within 1e-9 relative (asserted for every registry experiment by
``repro bench --verify``).
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

import numpy as np

from repro.des.errors import DesError

#: completion tolerance -- must match ``repro.des.resources._EPS``
_EPS = 1e-9
_INF = float("inf")

#: cohorts up to this many *entities* (classes, after compression) run
#: on the interpreted scalar server; beyond it the numpy server's fixed
#: per-operation overhead is amortized over enough slots to win
SCALAR_MAX_SLOTS = 96

#: Environment escape hatch mirroring ``REPRO_NO_COHORT``: set to "0"
#: to disable the closed-form layers (class compression, convoy-drain
#: replication, single-class regions) and the compiled work-queue loop,
#: and event-step every thread individually in the interpreted loops of
#: the cohort engine -- the reference the fast paths are checked against.
FORCE_CLOSED_FORM_ENV = "REPRO_FORCE_CLOSED_FORM"


def closed_form_enabled() -> bool:
    """Whether the engine's closed-form layers and compiled work-queue
    loop are enabled (default yes)."""
    return os.environ.get(FORCE_CLOSED_FORM_ENV, "") != "0"


# ----------------------------------------------------------------------
# segment opcodes (a compiled thread program is a list of tuples whose
# first element is one of these)
# ----------------------------------------------------------------------
SRV = 0     #: ``(SRV, server_id, demand, cap)`` -- one fair-share job
PAR = 1     #: ``(PAR, ((server_id, demand, cap), ...))`` -- jobs started
#:             together on *distinct* servers, joined like ``AllOf``
SLEEP = 2   #: ``(SLEEP, seconds)`` -- a plain timeout
ACQ = 3     #: ``(ACQ, lock_name)`` -- FIFO lock acquire
REL = 4     #: ``(REL, lock_name)`` -- lock release (hand off to waiter)

#: a segment's ``server_id`` may be None: "this thread's home server"
#: (the MTA pins each thread to one processor's issue server).


def serve_alone(server, demand: float, cap: float, t: float) -> float:
    """Closed form for a single job alone on an idle fair-share server.

    Mirrors what submit/allocate/wakeup compute for ``n_active == 1``
    bit-for-bit (``capacity / 1 == capacity``), credits the server's
    busy-time and served-work statistics, and returns the completion
    time.  ``server`` is a live :class:`FairShareServer`.
    """
    rate = cap if cap <= server.capacity else server.capacity
    dt = demand / rate
    server.busy_time += dt
    server.total_served += rate * dt
    return t + dt


def convoy_schedule(start: float, n: int, delta: float) -> np.ndarray:
    """Completion times of ``n`` serialized identical critical sections.

    The closed form of a lock convoy: pass ``i`` (1-based) holds the
    lock for ``delta`` and completes at ``start + i * delta``.
    """
    return start + np.arange(1, n + 1, dtype=np.float64) * delta


class ScalarBatchServer:
    """Interpreted mirror of one fair-share server for a small cohort.

    Jobs live in a dict keyed by thread slot (insertion-ordered, like
    ``FairShareServer._jobs``); the allocation, advance and completion
    arithmetic is the DES server's, operation for operation.  A job
    may carry a *weight* -- identical lockstep members folded into one
    entry -- which scales the fair-share divisor and the served-work
    accounting but leaves every per-member float identical.

    Two standing optimizations, both exact:

    * a **uniform-cap lane**: while every live cap is identical the
      per-job rate is one shared scalar, the flush is O(1) (plus the
      incremental minimum tracked in ``_m``), and the advance skips
      per-job rate lookups;
    * an **indexed finish-time frontier**: the fused advance scan in
      :meth:`finish` tracks the two smallest remaining works, so when
      only the minimum job completes (the common case) the collection
      pass over all slots is skipped entirely -- bit-identical to the
      full scan, which still runs whenever the batching tolerance
      could group more than one job.
    """

    __slots__ = ("capacity", "n", "due", "busy_time", "total_served",
                 "_jobs", "_last", "_dirty", "_urate", "_cap0",
                 "_capsok", "_m")

    def __init__(self, capacity: float, n_slots: int, start: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        #: slot -> [remaining, ecap, arrival_seq, rate, weight]
        self._jobs: dict[int, list] = {}
        self.n = 0               # live members (sum of weights)
        self.due = _INF          # absolute next-completion time
        self.busy_time = 0.0
        self.total_served = 0.0
        self._last = start
        self._dirty = False
        self._urate = 0.0        # shared rate; 0 = heterogeneous lane
        self._cap0: Optional[float] = None  # first cap since last empty
        self._capsok = True      # every live cap equals _cap0
        self._m: Optional[float] = None  # min remaining at _last

    @property
    def has_pending(self) -> bool:
        return False

    def add(self, slot: int, demand: float, cap: Optional[float],
            seq: int, now: float, weight: int = 1) -> None:
        if now != self._last:
            self._advance_to(now)
        ecap = cap if cap is not None else _INF
        self._jobs[slot] = [demand, ecap, seq, 0.0, weight]
        self.n += weight
        if self._cap0 is None:
            self._cap0 = ecap
        elif ecap != self._cap0:
            self._capsok = False
        if self._m is not None and demand < self._m:
            self._m = demand
        self._dirty = True

    def sync(self, now: float) -> None:
        """Advance lazily-stored remaining work to ``now``."""
        self._advance_to(now)

    def _advance_to(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        r = self._urate
        if r:
            rdt = r * dt
            for job in jobs.values():
                job[0] -= rdt
            self.total_served += rdt * self.n
            if self._m is not None:
                self._m -= rdt
        else:
            served_total = 0.0
            for job in jobs.values():
                served = job[3] * dt
                job[0] -= served
                served_total += served * job[4]
            self.total_served += served_total
            self._m = None
        self.busy_time += dt

    def finish(self, now: float) -> list[tuple[int, int]]:
        """Completed ``(arrival_seq, slot)`` pairs at time ``now``."""
        jobs = self._jobs
        # advance inlined: finish runs once per completion event; the
        # same fused scan tracks the two smallest remaining works (the
        # finish-time frontier) so the common single-completion case
        # never rescans the slots
        dt = now - self._last
        self._last = now
        m = _INF
        m2 = _INF
        slot_m = -1
        seq_m = -1
        if dt > 0:
            r = self._urate
            if r:
                rdt = r * dt
                self.total_served += rdt * self.n
                for slot, job in jobs.items():
                    v = job[0] - rdt
                    job[0] = v
                    if v < m:
                        m2 = m
                        m = v
                        slot_m = slot
                        seq_m = job[2]
                    elif v < m2:
                        m2 = v
            else:
                served_total = 0.0
                for slot, job in jobs.items():
                    served = job[3] * dt
                    v = job[0] - served
                    job[0] = v
                    served_total += served * job[4]
                    if v < m:
                        m2 = m
                        m = v
                        slot_m = slot
                        seq_m = job[2]
                    elif v < m2:
                        m2 = v
                self.total_served += served_total
            self.busy_time += dt
        else:
            for slot, job in jobs.items():
                v = job[0]
                if v < m:
                    m2 = m
                    m = v
                    slot_m = slot
                    seq_m = job[2]
                elif v < m2:
                    m2 = v
        threshold = m * (1.0 + _EPS)
        if threshold < _EPS:
            threshold = _EPS
        self._dirty = True
        if m2 > threshold:
            # frontier fast path: only the minimum job is inside the
            # batching tolerance
            job = jobs.pop(slot_m)
            self.n -= job[4]
            if not jobs:
                self._cap0 = None
                self._capsok = True
                self._m = None
            else:
                self._m = m2
            return [(seq_m, slot_m)]
        out = []
        mk = _INF
        for slot, job in jobs.items():
            if job[0] <= threshold:
                out.append((job[2], slot))
            elif job[0] < mk:
                mk = job[0]
        for _sq, slot in out:
            self.n -= jobs.pop(slot)[4]
        if not jobs:
            self._cap0 = None
            self._capsok = True
            self._m = None
        else:
            self._m = mk
        return out

    def flush(self, now: float) -> None:
        """Recompute rates and the next completion time if stale."""
        if not self._dirty:
            return
        self._dirty = False
        jobs = self._jobs
        if not jobs:
            self.due = _INF
            self._cap0 = None
            self._capsok = True
            self._urate = 0.0
            self._m = None
            return
        capacity = self.capacity
        if self._capsok:
            # uniform-cap lane: one shared rate, O(1) given the
            # incrementally-maintained minimum
            cap0 = self._cap0
            share = capacity / self.n
            rate = cap0 if cap0 <= share else share
            self._urate = rate
            m = self._m
            if m is None:
                m = _INF
                for job in jobs.values():
                    if job[0] < m:
                        m = job[0]
                self._m = m
            delay = m / rate if rate > 0 else _INF
            if delay < 0.0:
                delay = 0.0
            self.due = self._last + delay
            return
        self._urate = 0.0
        self._m = None
        groups: dict[float, list] = {}
        for job in jobs.values():
            grp = groups.get(job[1])
            if grp is None:
                groups[job[1]] = [job]
            else:
                grp.append(job)
        left = capacity
        n_left = self.n
        delay = _INF
        for ecap in sorted(groups):
            for job in groups[ecap]:
                share = left / n_left
                rate = ecap if ecap <= share else share
                job[3] = rate
                w = job[4]
                left -= rate * w
                n_left -= w
                if rate > 0:
                    d = job[0] / rate
                    if d < delay:
                        delay = d
        if delay < 0.0:
            delay = 0.0
        self.due = self._last + delay

    # -- convoy-drain replication hooks --------------------------------
    def drain_state(self) -> tuple[dict[int, float], float, float]:
        """Per-slot remaining work plus accumulators, at ``_last``."""
        return ({slot: job[0] for slot, job in self._jobs.items()},
                self.busy_time, self.total_served)

    def drain_apply(self, k: int, decs: dict[int, float],
                    busy_dec: float, served_dec: float,
                    t_end: float) -> None:
        """Replay ``k`` measured critical-section passes arithmetically."""
        jobs = self._jobs
        for slot, dec in decs.items():
            jobs[slot][0] -= k * dec
        self.busy_time += k * busy_dec
        self.total_served += k * served_dec
        self._last = t_end
        self._m = None
        self._dirty = True


def _water_fill(caps: np.ndarray, capacity: float,
                weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Water-filling allocation over heterogeneous per-job caps.

    Same fill order as ``FairShareServer._allocate``: distinct caps
    ascending.  A whole group is either capped (each job gets exactly
    its cap) or share-limited; in the share-limited regime every
    remaining job receives the equal split of the leftover capacity,
    which matches the DES sequential chain up to float rounding.
    ``weights`` (member multiplicities) scale the divisor and the
    capacity consumed by capped groups.
    """
    order = np.argsort(caps, kind="stable")
    sorted_caps = caps[order]
    rates = np.empty_like(caps)
    left = capacity
    if weights is None:
        wsorted = None
        n_left = caps.size
    else:
        wsorted = weights[order]
        n_left = int(wsorted.sum())
    uniq, counts = np.unique(sorted_caps, return_counts=True)
    start = 0
    for c, k in zip(uniq, counts):
        share = left / n_left
        if c <= share:
            k = int(k)
            rates[order[start:start + k]] = c
            nmem = k if wsorted is None else int(wsorted[start:start + k].sum())
            left -= c * nmem
            n_left -= nmem
            start += k
        else:
            rates[order[start:]] = share
            break
    return rates


class BatchServer:
    """Numpy mirror of one fair-share server for a large cohort.

    Slots are thread ids; a thread has at most one job on a given
    server at a time (the thread programs the machines generate always
    block on a submission before issuing the next one to the same
    server).  Submissions are buffered and applied vectorized at the
    next :meth:`flush` -- all adds between flushes happen at the same
    event time, so deferring them changes nothing.  Jobs carry member
    weights exactly like :class:`ScalarBatchServer`.

    When every active job gets the same rate (uniform caps, or all
    share-limited -- by far the common regimes) the server runs a
    scalar-rate lane that advances remaining work with one vector
    subtraction per event *and keeps the arrays sorted by remaining
    work*: under one shared rate the ordering is invariant, so the
    completion batch is a prefix of the sorted arrays -- a sorted
    finish-time frontier found by binary search and removed by
    slicing, instead of a full-array compare/compress per event.
    """

    __slots__ = ("capacity", "n", "due", "busy_time", "total_served",
                 "_slots", "_rem", "_caps", "_seq", "_w", "_rates",
                 "_rate", "_mincap", "_last", "_dirty", "_pend",
                 "_wlive", "_sorted")

    def __init__(self, capacity: float, n_slots: int, start: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self.n = 0
        self.due = _INF
        self.busy_time = 0.0
        self.total_served = 0.0
        # compact, membership-aligned arrays (only live jobs)
        self._slots: Optional[np.ndarray] = None
        self._rem: Optional[np.ndarray] = None
        self._caps: Optional[np.ndarray] = None
        self._seq: Optional[np.ndarray] = None
        self._w: Optional[np.ndarray] = None
        self._rates: Optional[np.ndarray] = None   # heterogeneous lane
        self._rate = 0.0                           # scalar lane
        self._mincap = _INF     # lower bound on every cap ever submitted
        self._last = start
        self._dirty = False
        self._pend: list[tuple[int, float, float, int, int]] = []
        self._wlive = 0         # live members already merged into arrays
        self._sorted = False    # arrays ascending by remaining work

    @property
    def has_pending(self) -> bool:
        return bool(self._pend)

    def add(self, slot: int, demand: float, cap: Optional[float],
            seq: int, now: float, weight: int = 1) -> None:
        # `now` is always the engine's current event time; the buffered
        # submission takes effect at the flush closing this event.
        c = cap if cap is not None else _INF
        if c < self._mincap:
            self._mincap = c
        self._pend.append((slot, demand, c, seq, weight))
        self.n += weight
        self._dirty = True

    def sync(self, now: float) -> None:
        """Advance lazily-stored remaining work to ``now``."""
        self._advance_to(now)

    def _advance_to(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        rem = self._rem
        if dt <= 0 or rem is None or rem.size == 0:
            return
        rate = self._rate
        if rate:
            rem -= rate * dt
            self.total_served += rate * dt * self._wlive
        else:
            served = self._rates * dt
            rem -= served
            self.total_served += float((served * self._w).sum())
        self.busy_time += dt

    def finish(self, now: float) -> list[tuple[int, int]]:
        """Completed ``(arrival_seq, slot)`` pairs at time ``now``.

        Applies the DES completion batching rule: every job whose
        remaining work is within 1e-9 relative of the minimum (floored
        at 1e-9 absolute) finishes together.
        """
        # advance inlined: finish is called once per completion event
        dt = now - self._last
        self._last = now
        rem = self._rem
        if dt > 0:
            rate = self._rate
            if rate:
                rem -= rate * dt
                self.total_served += rate * dt * self._wlive
            else:
                served = self._rates * dt
                rem -= served
                self.total_served += float((served * self._w).sum())
            self.busy_time += dt
        self._dirty = True
        if self._sorted:
            # sorted finish-time frontier: the batch is a prefix of
            # the remaining-work order, found by binary search
            threshold = float(rem[0]) * (1.0 + _EPS)
            if threshold < _EPS:
                threshold = _EPS
            k = int(np.searchsorted(rem, threshold, side="right"))
            out = list(zip(self._seq[:k].tolist(),
                           self._slots[:k].tolist()))
            w_out = int(self._w[:k].sum())
            self._slots = self._slots[k:]
            self._rem = rem[k:]
            if self._caps is not None:
                self._caps = self._caps[k:]
            self._seq = self._seq[k:]
            self._w = self._w[k:]
            self.n -= w_out
            self._wlive -= w_out
            return out
        threshold = float(rem.min()) * (1.0 + _EPS)
        if threshold < _EPS:
            threshold = _EPS
        mask = rem <= threshold
        out = list(zip(self._seq[mask].tolist(),
                       self._slots[mask].tolist()))
        w_out = int(self._w[mask].sum())
        keep = ~mask
        self._slots = self._slots[keep]
        self._rem = rem[keep]
        if self._caps is not None:
            self._caps = self._caps[keep]
        self._seq = self._seq[keep]
        self._w = self._w[keep]
        self.n -= w_out
        self._wlive -= w_out
        return out

    def flush(self, now: float) -> None:
        """Apply buffered submissions and recompute rates and the next
        completion time if stale."""
        if not self._dirty:
            return
        self._dirty = False
        self._advance_to(now)
        pend = self._pend
        if pend:
            slots = np.array([p[0] for p in pend], dtype=np.int64)
            dem = np.array([p[1] for p in pend])
            # an entirely uncapped server (e.g. the network) never
            # materializes a caps array at all
            caps = (np.array([p[2] for p in pend])
                    if self._mincap < _INF else None)
            seqs = np.array([p[3] for p in pend], dtype=np.int64)
            ws = np.array([p[4] for p in pend], dtype=np.int64)
            self._wlive += int(ws.sum())
            pend.clear()
            self._sorted = False
            if self._rem is None or self._rem.size == 0:
                self._slots, self._rem = slots, dem
                self._caps, self._seq, self._w = caps, seqs, ws
            else:
                if caps is not None:
                    old = (self._caps if self._caps is not None
                           else np.full(self._rem.size, _INF))
                    self._caps = np.concatenate((old, caps))
                self._slots = np.concatenate((self._slots, slots))
                self._rem = np.concatenate((self._rem, dem))
                self._seq = np.concatenate((self._seq, seqs))
                self._w = np.concatenate((self._w, ws))
        rem = self._rem
        k = 0 if rem is None else rem.size
        if k == 0:
            self.due = _INF
            self._slots = self._rem = self._caps = self._seq = None
            self._w = self._rates = None
            self._rate = 0.0
            self._wlive = 0
            self._sorted = False
            return
        capacity = self.capacity
        share = capacity / self.n
        if self._mincap >= share:
            # every job is share-limited: equal split, which is what
            # the FairShareServer water-fill computes sequentially
            self._rate = share
            self._rates = None
        else:
            caps = self._caps
            cmin = float(caps.min())
            if cmin >= share:
                self._rate = share
                self._rates = None
            else:
                cmax = float(caps.max())
                if cmin == cmax:
                    # uniform caps below the fair share: everyone capped
                    self._rate = cmin
                    self._rates = None
                elif float((caps * self._w).sum()) <= capacity:
                    # no job is share-limited: everyone runs at its cap
                    self._rate = 0.0
                    self._rates = caps
                else:
                    self._rate = 0.0
                    self._rates = _water_fill(caps, capacity, self._w)
        if self._rate:
            if not self._sorted:
                order = np.argsort(rem, kind="stable")
                self._slots = self._slots[order]
                self._rem = rem = rem[order]
                if self._caps is not None:
                    self._caps = self._caps[order]
                self._seq = self._seq[order]
                self._w = self._w[order]
                self._sorted = True
            delay = float(rem[0]) / self._rate
        else:
            self._sorted = False
            delay = float((rem / self._rates).min())
        if delay < 0.0:
            delay = 0.0
        self.due = self._last + delay

    # -- convoy-drain replication hooks --------------------------------
    def drain_state(self) -> tuple[dict[int, float], float, float]:
        """Per-slot remaining work plus accumulators, at ``_last``."""
        jobs: dict[int, float] = {}
        if self._rem is not None:
            for slot, r in zip(self._slots.tolist(), self._rem.tolist()):
                jobs[slot] = r
        return jobs, self.busy_time, self.total_served

    def drain_apply(self, k: int, decs: dict[int, float],
                    busy_dec: float, served_dec: float,
                    t_end: float) -> None:
        """Replay ``k`` measured critical-section passes arithmetically."""
        if decs and self._rem is not None:
            index = {s: i for i, s in enumerate(self._slots.tolist())}
            for slot, dec in decs.items():
                self._rem[index[slot]] -= k * dec
        self.busy_time += k * busy_dec
        self.total_served += k * served_dec
        self._last = t_end
        self._sorted = False
        self._dirty = True


def make_server(capacity: float, n_slots: int, start: float):
    """The batch-server implementation appropriate for a cohort size."""
    if n_slots <= SCALAR_MAX_SLOTS:
        return ScalarBatchServer(capacity, n_slots, start)
    return BatchServer(capacity, n_slots, start)


class _Thread:
    __slots__ = ("segs", "idx", "own", "outstanding", "weight",
                 "armed_lock", "armed_idx")

    def __init__(self, segs: list, own: int, weight: int = 1):
        self.segs = segs
        self.idx = 0
        self.own = own          # home server id (None segments resolve here)
        self.outstanding = 0    # unfinished parts of the current segment
        self.weight = weight    # lockstep members this entity represents
        self.armed_lock = None  # lock held but not yet contended-split
        self.armed_idx = 0


class _LockState:
    __slots__ = ("holder", "queue", "qlen", "waits", "wait_time",
                 "max_depth", "hist")

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        #: entries [cid, resume_idx, count, t_enqueue, parked]; one
        #: entry covers `count` identical members queued back to back
        self.queue: deque[list] = deque()
        self.qlen = 0           # waiting members across all entries
        self.waits = 0
        self.wait_time = 0.0
        # convoy statistics -- the same formula Resource applies: depth
        # seen by each contended acquire, max + power-of-two histogram
        self.max_depth = 0
        self.hist: dict[int, int] = {}


class _DrainWatch:
    """One critical-section pass being measured for replication."""

    __slots__ = ("lock_name", "tid", "segs", "idx", "t_grant", "snaps",
                 "foreign")

    def __init__(self, lock_name, tid, segs, idx, t_grant, snaps):
        self.lock_name = lock_name
        self.tid = tid          # the measured holder
        self.segs = segs        # class program identity
        self.idx = idx          # resume index of the queued siblings
        self.t_grant = t_grant
        self.snaps = snaps      # per-server drain_state() at grant
        self.foreign = False    # an unrelated event interleaved


class CohortEngine:
    """Replays one homogeneous parallel region without DES processes.

    Parameters
    ----------
    start_time:
        Absolute simulation time at which the region's threads start
        (after the parent has paid thread-creation costs).
    capacities:
        Aggregate capacity of each server, indexed by the ``server_id``
        the segments use.
    programs:
        One compiled segment list per thread (empty for work-queue
        workers, which pull everything from ``queue``).
    own_sids:
        Per-thread home server id (defaults to 0) resolving segments
        whose ``server_id`` is None.
    queue:
        Optional FIFO of compiled work items; a thread that exhausts
        its segments pops the next item, exactly like the DES worker
        loop over ``Store.try_get``.
    closed_form:
        Enable the closed-form layers (class compression, convoy-drain
        replication, single-class regions) and the compiled work-queue
        loop.  ``None`` reads the ``REPRO_FORCE_CLOSED_FORM``
        environment escape hatch.
    """

    def __init__(self, start_time: float, capacities: Sequence[float],
                 programs: Sequence[list],
                 own_sids: Optional[Sequence[int]] = None,
                 queue: Optional[deque] = None,
                 closed_form: Optional[bool] = None):
        if closed_form is None:
            closed_form = closed_form_enabled()
        self.closed_form = closed_form
        n = len(programs)
        self.n_members = n
        self.now = float(start_time)
        self.queue = queue
        threads: list[_Thread] = []
        if closed_form and queue is None and n > 1:
            # class compression: identical (program, home-server)
            # threads stay in perfect lockstep under the batch
            # arithmetic, so one weighted entity replays all of them
            groups: dict = {}
            for i, segs in enumerate(programs):
                own = own_sids[i] if own_sids is not None else 0
                key = (own, tuple(segs))
                th = groups.get(key)
                if th is None:
                    th = _Thread(list(segs), own)
                    groups[key] = th
                    threads.append(th)
                else:
                    th.weight += 1
        else:
            threads = [
                _Thread(list(segs),
                        own_sids[i] if own_sids is not None else 0)
                for i, segs in enumerate(programs)
            ]
        self.threads = threads
        self.servers = [make_server(c, len(threads), self.now)
                        for c in capacities]
        self.timers: list[tuple[float, int, int]] = []
        self.locks: dict[str, _LockState] = {}
        self.n_done = 0
        self._seq = 0
        self._grants: deque[int] = deque()
        #: server ids receiving submissions since the last flush point;
        #: lets the many-server event loop flush only what changed
        self._touched: list[int] = []
        self._watch: Optional[_DrainWatch] = None
        self._drain: Optional[tuple] = None
        self._tail_ok: dict[tuple[int, int], bool] = {}
        #: per-member completion times, in completion order
        self.done_times: list[float] = []
        #: engine-choice accounting threaded into ``RunResult.stats``
        self.stats = {"members": n, "classes": len(threads),
                      "closed_form": 0, "drained_grants": 0,
                      "stepped_grants": 0, "events": 0,
                      "queue_solver": 0}

    # ------------------------------------------------------------------
    def run(self) -> float:
        """Drive the region to completion; returns its absolute end time."""
        if self.closed_form and self.n_members == 1:
            # a lone thread (e.g. a one-worker work queue) is entirely
            # serial: every segment runs alone, closed form
            self.stats["closed_form"] = 1
            return self._run_single_member()
        if (self.closed_form and self.queue is None
                and len(self.threads) == 1):
            end = self._run_single_class()
            if end is not None:
                self.stats["closed_form"] = 1
                return end
        if self.closed_form and self.queue is not None:
            end = self._run_kernel()
            if end is not None:
                return end
        # threads start in creation order (DES bootstrap order)
        for tid in range(len(self.threads)):
            self._advance_thread(tid)
        self._drain_grants()
        servers = self.servers
        for s in servers:
            if s._dirty:
                s.flush(self.now)
        # a flushed server's `due` is authoritative (inf when idle), so
        # the event loops below never need to consult `n`
        if len(servers) == 2:
            return self._run_two(self.n_members)
        return self._run_many(self.n_members)

    # ------------------------------------------------------------------
    def _run_single_member(self) -> float:
        """Closed-form replay of a one-thread region.

        With a single member every server holds at most one job, so
        each segment is a lone submission -- the exact ``serve_alone``
        arithmetic -- locks are always free (double-acquire is the
        deadlock the event loop would starve on), and a work queue
        drains item by item with no contention.
        """
        th = self.threads[0]
        servers = self.servers
        own = th.own
        t = self.now
        q = self.queue
        segs = th.segs
        while True:
            for seg in segs:
                op = seg[0]
                if op == SRV:
                    _op, sid, demand, cap = seg
                    if demand > 0:
                        s = servers[own if sid is None else sid]
                        t = serve_alone(
                            s, demand,
                            cap if cap is not None else s.capacity, t)
                elif op == PAR:
                    end = t
                    for sid, demand, cap in seg[1]:
                        if demand > 0:
                            s = servers[own if sid is None else sid]
                            e = serve_alone(
                                s, demand,
                                cap if cap is not None else s.capacity, t)
                            if e > end:
                                end = e
                    t = end
                elif op == SLEEP:
                    if seg[1] > 0:
                        t += seg[1]
                elif op == ACQ:
                    lk = self._lock(seg[1])
                    if lk.holder is not None:
                        raise DesError("cohort region deadlocked")
                    lk.holder = 0
                elif op == REL:
                    self._lock(seg[1]).holder = None
                else:  # pragma: no cover - compilers emit known opcodes
                    raise DesError(f"unknown cohort segment {seg!r}")
            if q:
                segs = q.popleft()
            else:
                break
        self.now = t
        self.n_done = 1
        self.done_times = [t]
        return t

    # ------------------------------------------------------------------
    def _run_single_class(self) -> Optional[float]:
        """Closed-form replay of a single-class region, or None.

        Eligible shape: leading serve/sleep segments (the lockstep
        span) followed by at most one trailing critical section whose
        body is serve/sleep only and whose REL is the final segment
        (the convoy span).  Anything else returns None and the region
        event-steps.
        """
        th = self.threads[0]
        segs = th.segs
        pre = segs
        hold = None
        lock_name = None
        for i, seg in enumerate(segs):
            op = seg[0]
            if op == ACQ:
                if not segs or segs[-1][0] != REL or segs[-1][1] != seg[1]:
                    return None
                for inner in segs[i + 1:-1]:
                    if inner[0] in (ACQ, REL):
                        return None
                pre = segs[:i]
                hold = segs[i + 1:-1]
                lock_name = seg[1]
                break
            if op == REL:
                return None
        n = th.weight
        servers = self.servers
        own = th.own

        def walk(seg_list, n_share, mult, t):
            # one pass over serve/sleep segments with every member
            # receiving min(cap, capacity / n_share); credits busy and
            # served statistics `mult` times (serialized passes don't
            # overlap).  Returns None on a stalled zero-rate job.
            for seg in seg_list:
                op = seg[0]
                if op == SRV:
                    _op, sid, demand, cap = seg
                    if demand <= 0:
                        continue
                    s = servers[own if sid is None else sid]
                    share = s.capacity / n_share
                    c = cap if cap is not None else _INF
                    rate = c if c <= share else share
                    if rate <= 0:
                        return None
                    dt = demand / rate
                    s.busy_time += dt * mult
                    s.total_served += rate * dt * n_share * mult
                    t += dt
                elif op == PAR:
                    end = t
                    for sid, demand, cap in seg[1]:
                        if demand <= 0:
                            continue
                        s = servers[own if sid is None else sid]
                        share = s.capacity / n_share
                        c = cap if cap is not None else _INF
                        rate = c if c <= share else share
                        if rate <= 0:
                            return None
                        dt = demand / rate
                        s.busy_time += dt * mult
                        s.total_served += rate * dt * n_share * mult
                        e = t + dt
                        if e > end:
                            end = e
                    t = end
                elif op == SLEEP:
                    if seg[1] > 0:
                        t += seg[1]
                else:  # pragma: no cover - shape pre-validated
                    return None
            return t

        t1 = walk(pre, float(n), 1, self.now)
        if t1 is None:
            return None
        if hold is None:
            self.now = t1
            self.n_done = n
            self.done_times = [t1] * n
            return t1
        # the convoy: every member reaches ACQ at t1; each pass runs
        # alone (n_share == 1) and the k-th completes at t1 + k * delta
        t_one = walk(hold, 1.0, n, t1)
        if t_one is None:
            return None
        delta = t_one - t1
        lk = self._lock(lock_name)
        if delta <= 0 or n == 1:
            # a zero-length critical section is passed through
            # synchronously by every member -- no contention recorded,
            # matching the event-stepped engine and the DES lock
            end = t1 if delta <= 0 else t_one
            self.now = end
            self.n_done = n
            self.done_times = [end] * n
            return end
        times = convoy_schedule(t1, n, delta)
        lk.waits += n - 1
        lk.wait_time += delta * (n * (n - 1) / 2.0)
        if n - 1 > lk.max_depth:
            lk.max_depth = n - 1
        d = 1
        while d <= n - 1:
            hi = min(2 * d - 1, n - 1)
            lk.hist[d] = lk.hist.get(d, 0) + (hi - d + 1)
            d <<= 1
        end = float(times[-1])
        self.now = end
        self.n_done = n
        self.done_times = times.tolist()
        return end

    # ------------------------------------------------------------------
    def _run_kernel(self) -> Optional[float]:
        """Run a work-queue region in the compiled event loop, or None.

        The loop (``queue_kernel.c``) is :meth:`_run_two` over two
        :class:`ScalarBatchServer` s with weight-1 threads -- a work
        queue disables class compression and convoy drains -- compiled
        operation for operation, so every float, event count, grant
        and lock statistic is bit-identical.  It reads the segment
        lists itself and declines (returns 0) a region outside its
        shape: a ``PAR`` segment, a server id other than 0 or 1, or two
        caps on one server, which would leave the uniform-cap lane.
        The Python-side checks below need no compiled code, so regions
        that cannot qualify never load it.  A declined region, or a
        missing compiler, falls through to the interpreted loop.
        """
        servers = self.servers
        threads = self.threads
        if len(servers) != 2 or any(type(s) is not ScalarBatchServer
                                    for s in servers):
            return None
        own = threads[0].own if threads else 0
        if own not in (0, 1) or any(th.own != own for th in threads):
            return None
        from repro.des import queue_kernel

        run = queue_kernel.load()
        if run is None:
            return None
        s0, s1 = servers
        out: list = []
        status = run([th.segs for th in threads], self.queue, own,
                     s0.capacity, s1.capacity, self.now, out)
        if status == 0:
            return None
        if status == 2:
            raise DesError("cohort region deadlocked")
        (end, done_times, s0.busy_time, s0.total_served, s1.busy_time,
         s1.total_served, events, grants, locks) = out
        for name, waits, wait_time, max_depth, hist, holder in locks:
            lk = self._lock(name)
            lk.waits = waits
            lk.wait_time = wait_time
            lk.max_depth = max_depth
            lk.hist = dict(hist)
            lk.holder = holder
        self.queue.clear()
        self.now = end
        self.n_done = len(done_times)
        self.done_times = done_times
        stats = self.stats
        stats["events"] += events
        stats["stepped_grants"] += grants
        stats["queue_solver"] = 1
        return end

    # ------------------------------------------------------------------
    def _run_two(self, n: int) -> float:
        """Event loop specialized for two servers (every conventional
        region -- cpu + bus -- and the single-processor MTA)."""
        s0, s1 = self.servers
        timers = self.timers
        threads = self.threads
        advance = self._advance_thread
        grants = self._grants
        touched = self._touched
        events = 0
        while self.n_done < n:
            del touched[:]  # two servers: the dirty flags suffice
            d0 = s0.due
            d1 = s1.due
            t = d0 if d0 < d1 else d1
            if timers and timers[0][0] < t:
                t = timers[0][0]
            if t == _INF:  # pragma: no cover - defensive
                raise DesError("cohort region deadlocked")
            events += 1
            self.now = t
            batch = s0.finish(t) if d0 <= t else []
            if d1 <= t:
                b1 = s1.finish(t)
                batch = batch + b1 if batch else b1
            while timers and timers[0][0] <= t:
                _t, sq, tid = heappop(timers)
                batch.append((sq, tid))
            if len(batch) > 1:
                # job-arrival order: the FIFO insertion order the DES
                # server iterates when succeeding a completion batch
                batch.sort()
            w_ = self._watch
            if w_ is not None:
                wtid = w_.tid
                for _sq, tid in batch:
                    if tid != wtid:
                        w_.foreign = True
                        break
            for _sq, tid in batch:
                th = threads[tid]
                o = th.outstanding - 1
                th.outstanding = o
                if o == 0:
                    advance(tid)
            if grants:
                self._drain_grants()
            if s0._dirty:
                s0.flush(t)
            if s1._dirty:
                s1.flush(t)
            if self._drain is not None:
                self._apply_drain()
        self.stats["events"] += events
        return self.now

    def _run_many(self, n: int) -> float:
        """Event loop for three or more servers.

        A lazy due-heap replaces the per-event scans over every
        server: flushing a server pushes ``(due, sid)``, entries whose
        due no longer matches the server are discarded on pop, and the
        ``_touched`` list names the only servers whose rates an event
        can have changed.  Pure control flow -- every float the
        servers compute is untouched, so the timeline is bit-identical
        to the scanning loop.
        """
        servers = self.servers
        timers = self.timers
        threads = self.threads
        advance = self._advance_thread
        grants = self._grants
        touched = self._touched
        del touched[:]  # bootstrap submissions are already flushed
        heap: list[tuple[float, int]] = [
            (s.due, i) for i, s in enumerate(servers) if s.due < _INF]
        heapify(heap)
        events = 0
        while self.n_done < n:
            while heap:
                d, i = heap[0]
                if servers[i].due == d:
                    break
                heappop(heap)
            t = heap[0][0] if heap else _INF
            if timers and timers[0][0] < t:
                t = timers[0][0]
            if t == _INF:  # pragma: no cover - defensive
                raise DesError("cohort region deadlocked")
            events += 1
            self.now = t
            due_ids: list[int] = []
            while heap and heap[0][0] <= t:
                d, i = heappop(heap)
                if servers[i].due == d and i not in due_ids:
                    due_ids.append(i)
            batch: list[tuple[int, int]] = []
            for i in due_ids:
                batch.extend(servers[i].finish(t))
            while timers and timers[0][0] <= t:
                _t, sq, tid = heappop(timers)
                batch.append((sq, tid))
            if len(batch) > 1:
                # job-arrival order: the FIFO insertion order the DES
                # server iterates when succeeding a completion batch
                batch.sort()
            w_ = self._watch
            if w_ is not None:
                wtid = w_.tid
                for _sq, tid in batch:
                    if tid != wtid:
                        w_.foreign = True
                        break
            for _sq, tid in batch:
                th = threads[tid]
                o = th.outstanding - 1
                th.outstanding = o
                if o == 0:
                    advance(tid)
            if grants:
                self._drain_grants()
            if touched:
                for i in touched:
                    s = servers[i]
                    if s._dirty:
                        s.flush(t)
                        if s.due < _INF:
                            heappush(heap, (s.due, i))
                del touched[:]
            for i in due_ids:
                s = servers[i]
                if s._dirty:
                    s.flush(t)
                    if s.due < _INF:
                        heappush(heap, (s.due, i))
            if self._drain is not None:
                self._apply_drain()
                # the drain flushed whatever it changed; reseed
                heap = [(s.due, i) for i, s in enumerate(servers)
                        if s.due < _INF]
                heapify(heap)
                del touched[:]
        self.stats["events"] += events
        return self.now

    # ------------------------------------------------------------------
    def total_lock_waits(self) -> int:
        return sum(lk.waits for lk in self.locks.values())

    def total_lock_wait_time(self) -> float:
        return sum(lk.wait_time for lk in self.locks.values())

    # ------------------------------------------------------------------
    def _advance_thread(self, tid: int) -> None:
        """Run a thread forward until it blocks or finishes.

        Zero-demand submissions, free lock acquires and releases are
        processed synchronously -- they advance no simulated time and
        the threads of a cohort are interchangeable, so the DES
        event-queue interleaving they would get cannot change the
        region timeline.
        """
        th = self.threads[tid]
        segs = th.segs
        i = th.idx
        servers = self.servers
        now = self.now
        seq = self._seq
        while True:
            if i >= len(segs):
                q = self.queue
                if q:
                    segs = th.segs = q.popleft()
                    i = 0
                    continue
                th.idx = i
                self._seq = seq
                self.n_done += th.weight
                dts = self.done_times
                for _ in range(th.weight):
                    dts.append(now)
                return
            seg = segs[i]
            i += 1
            op = seg[0]
            if op == SRV:
                _op, sid, demand, cap = seg
                if demand > 0:
                    if sid is None:
                        sid = th.own
                    if th.armed_lock is not None and th.weight > 1:
                        self._split_armed(th, tid, now)
                    servers[sid].add(tid, demand, cap, seq, now, th.weight)
                    self._touched.append(sid)
                    seq += 1
                    th.outstanding = 1
                    th.idx = i
                    self._seq = seq
                    return
            elif op == PAR:
                k = 0
                for sid, demand, cap in seg[1]:
                    if demand > 0:
                        if sid is None:
                            sid = th.own
                        if k == 0 and th.armed_lock is not None \
                                and th.weight > 1:
                            self._split_armed(th, tid, now)
                        servers[sid].add(tid, demand, cap, seq, now,
                                         th.weight)
                        self._touched.append(sid)
                        seq += 1
                        k += 1
                if k:
                    th.outstanding = k
                    th.idx = i
                    self._seq = seq
                    return
            elif op == SLEEP:
                d = seg[1]
                if d > 0:
                    if th.armed_lock is not None and th.weight > 1:
                        self._split_armed(th, tid, now)
                    heappush(self.timers, (now + d, seq, tid))
                    self._seq = seq + 1
                    th.outstanding = 1
                    th.idx = i
                    return
            elif op == ACQ:
                lk = self._lock(seg[1])
                if lk.holder is None:
                    lk.holder = tid
                    if th.weight > 1 and th.armed_lock is None:
                        # run the whole class through optimistically;
                        # the trailing members split into the queue
                        # only if the critical section actually blocks
                        th.armed_lock = seg[1]
                        th.armed_idx = i
                else:
                    # contended: counted at request time, like Resource
                    self._enqueue(lk, tid, i, th.weight, now, parked=True)
                    th.idx = i
                    self._seq = seq
                    return
            elif op == REL:
                name = seg[1]
                lk = self._lock(name)
                if th.armed_lock == name:
                    # the whole class passed through synchronously:
                    # zero simulated time, no contention
                    th.armed_lock = None
                    lk.holder = None
                else:
                    lk.holder = None
                    w_ = self._watch
                    deferred = False
                    if w_ is not None and w_.tid == tid:
                        self._watch = None
                        if (lk.queue and not w_.foreign
                                and w_.lock_name == name
                                and now > w_.t_grant):
                            head = lk.queue[0]
                            if (head[1] == w_.idx
                                    and self.threads[head[0]].segs
                                    is w_.segs):
                                # measured pass matches the queued
                                # siblings: defer the hand-off and
                                # replicate once this event's server
                                # state settles
                                self._seq = seq
                                self._drain = (lk, now - w_.t_grant, w_)
                                self._seq = seq
                                deferred = True
                    if lk.queue and not deferred:
                        self._seq = seq
                        self._grant_next(lk, now)
                        seq = self._seq
            else:  # pragma: no cover - compilers emit known opcodes
                raise DesError(f"unknown cohort segment {seg!r}")

    # ------------------------------------------------------------------
    def _enqueue(self, lk: _LockState, cid: int, idx: int, w: int,
                 now: float, parked: bool) -> None:
        # the class's members arrive back to back, each seeing a queue
        # one deeper than the previous
        q0 = lk.qlen
        lk.waits += w
        depth = q0 + w
        if depth > lk.max_depth:
            lk.max_depth = depth
        hist = lk.hist
        for d in range(q0 + 1, depth + 1):
            bucket = 1 << (d.bit_length() - 1)
            hist[bucket] = hist.get(bucket, 0) + 1
        lk.queue.append([cid, idx, w, now, parked])
        lk.qlen += w

    def _split_armed(self, th: _Thread, tid: int, now: float) -> None:
        # the class entered its critical section optimistically as one
        # unit; the section blocks, so the trailing members queue
        # behind the leader exactly as individual threads would have
        lk = self.locks[th.armed_lock]
        self._enqueue(lk, tid, th.armed_idx, th.weight - 1, now,
                      parked=False)
        th.weight = 1
        th.armed_lock = None

    def _grant_next(self, lk: _LockState, now: float) -> int:
        """Hand the lock to the next queued member (FIFO)."""
        head = lk.queue[0]
        cid, idx, cnt, t0, parked = head
        lk.wait_time += now - t0
        lk.qlen -= 1
        if cnt == 1:
            lk.queue.popleft()
        else:
            head[2] = cnt - 1
        src = self.threads[cid]
        if parked and cnt == 1:
            # the last parked member is the waiting entity itself
            src.weight = 1
            granted = cid
        else:
            runner = _Thread(src.segs, src.own)
            runner.idx = idx
            granted = len(self.threads)
            self.threads.append(runner)
        lk.holder = granted
        self._grants.append(granted)
        self.stats["stepped_grants"] += 1
        if (self.closed_form and self.queue is None
                and self._watch is None and lk.queue):
            h = lk.queue[0]
            if h[0] == cid and h[1] == idx:
                self._arm_watch(lk, granted, src.segs, idx, now)
        return granted

    def _arm_watch(self, lk: _LockState, holder_tid: int, segs: list,
                   idx: int, now: float) -> None:
        """Start measuring the new holder's pass for replication."""
        if not self._convoy_tail_ok(segs, idx):
            return
        servers = self.servers
        for s in servers:
            if s.has_pending:
                return
        snaps = []
        for s in servers:
            s.sync(now)
            snaps.append(s.drain_state())
        name = next(k for k, v in self.locks.items() if v is lk)
        self._watch = _DrainWatch(name, holder_tid, segs, idx, now, snaps)

    def _convoy_tail_ok(self, segs: list, idx: int) -> bool:
        """Whether ``segs[idx:]`` is a pure critical-section tail:
        serve/sleep segments ending the program with a single REL."""
        key = (id(segs), idx)
        ok = self._tail_ok.get(key)
        if ok is None:
            ok = len(segs) > idx and segs[-1][0] == REL
            if ok:
                for seg in segs[idx:-1]:
                    if seg[0] == ACQ or seg[0] == REL:
                        ok = False
                        break
            self._tail_ok[key] = ok
        return ok

    def _apply_drain(self) -> None:
        """Replicate the measured critical-section pass over the queued
        identical members, bounded by the event horizon.

        Runs after the current event's flushes: every server's state
        is settled at ``self.now`` and no submissions are pending.  A
        pass takes ``delta`` seconds and decrements each live job's
        remaining work by the measured per-pass amount, so ``k``
        passes replay as one multiply-accumulate provided no job
        completes and no timer fires before ``now + k * delta``.
        """
        lk, delta, w_ = self._drain
        self._drain = None
        now = self.now
        head = lk.queue[0]
        cnt = head[2]
        k = cnt
        states = []
        for s, snap in zip(self.servers, w_.snaps):
            s.sync(now)
            cur_map, busy1, served1 = s.drain_state()
            snap_map, busy0, served0 = snap
            if len(cur_map) != len(snap_map):
                k = 0
                break
            dec_map = {}
            bad = False
            for slot, r0 in snap_map.items():
                r1 = cur_map.get(slot)
                if r1 is None:
                    bad = True
                    break
                dec = r0 - r1
                if dec > 0.0:
                    # stay two full passes clear of this job's
                    # completion so the batching tolerance can never
                    # group it differently than stepping would
                    kj = int(r1 / dec) - 2
                    if kj < k:
                        k = kj
                    dec_map[slot] = dec
                elif dec < 0.0:
                    bad = True
                    break
            if bad:
                k = 0
                break
            states.append((s, dec_map, busy1 - busy0, served1 - served0))
        timers = self.timers
        if k > 0 and timers:
            kt = int((timers[0][0] - now) / delta) - 1
            if kt < k:
                k = kt
        if k > 0:
            t_end = now + k * delta
            for s, dec_map, busy_d, served_d in states:
                s.drain_apply(k, dec_map, busy_d, served_d, t_end)
            head[2] = cnt - k
            lk.qlen -= k
            t0 = head[3]
            lk.wait_time += k * (now - t0) + delta * (k * (k - 1) / 2.0)
            self.n_done += k
            self.done_times.extend(
                (now + delta * np.arange(1, k + 1)).tolist())
            self.stats["drained_grants"] += k
            if head[2] == 0:
                lk.queue.popleft()
            self.now = now = t_end
        if lk.queue:
            self._grant_next(lk, now)
            self._drain_grants()
        for s in self.servers:
            if s._dirty:
                s.flush(now)

    def _drain_grants(self) -> None:
        g = self._grants
        while g:
            self._advance_thread(g.popleft())

    def _lock(self, name: str) -> _LockState:
        lk = self.locks.get(name)
        if lk is None:
            lk = self.locks[name] = _LockState()
        return lk
