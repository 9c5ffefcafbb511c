"""Compiled work-queue loop vs the interpreted two-server event loop.

Two-server work-queue regions run in a compiled event loop
(``repro/des/queue_kernel.c``) that reproduces
``CohortEngine._run_two`` over two ``ScalarBatchServer`` s operation for
operation.  So the comparison here is *exact*: the region end, every
completion time, server busy/served accounting and every lock
statistic must agree bit for bit (``float.hex``), the event and grant
counters must be equal, and the per-lock records and their histogram
buckets must come out in the same order.

The generator is biased to the exact-tie class, where an ulp decides
who waits: integer demands on a shared grid, equal caps, critical
sections whose release coincides with other workers' acquires, sleep
segments, 1-96 workers, and contended as well as uncontended buses.
Shapes outside the loop (mixed caps, ``PAR`` segments, mixed home
servers, numpy-sized cohorts) must decline to the interpreted loop.
"""

import os
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.des.batch as batch
from repro.des import queue_kernel
from repro.des.errors import DesError
from repro.des.batch import (
    ACQ,
    PAR,
    REL,
    SLEEP,
    SRV,
    CohortEngine,
    FORCE_CLOSED_FORM_ENV,
)

KERNEL = queue_kernel.load() is not None
requires_kernel = pytest.mark.skipif(
    not KERNEL, reason="no C compiler or Python headers")


# ----------------------------------------------------------------------
# random work-queue regions, biased to exact ties
# ----------------------------------------------------------------------

@st.composite
def queue_cases(draw, max_workers=96):
    """A bus-coupled work-queue region on the tie grid.

    Server 0 is the CPU lane (per-thread cap, capacity drawn
    uncontended like ``n_cpus x clock`` machines or over-committed);
    server 1 is the bus, drawn contended or not.  Demands are small
    integers, so completions, releases and acquires tie exactly.
    Queue items come from a small template pool, optionally with a
    lock-protected section whose body is bus work or a bare sleep.
    """
    k = draw(st.integers(min_value=1, max_value=max_workers))
    cap_cpu = draw(st.sampled_from([1.0, 2.0, 4.0]))
    cap_bus = draw(st.sampled_from([1.0, 2.0, 3.0]))
    if draw(st.booleans()):
        capacity_cpu = cap_cpu * k
    else:
        capacity_cpu = cap_cpu * draw(st.integers(1, k))
    if draw(st.booleans()) and k >= 2:
        capacity_bus = cap_bus * draw(st.integers(1, k - 1))
    else:
        capacity_bus = cap_bus * (k + draw(st.integers(0, 2)))

    def grid() -> float:
        return float(draw(st.integers(min_value=1, max_value=6)))

    def cpu(d):
        # the CPU is the home server: None resolves to it
        return (SRV, draw(st.sampled_from([0, None])), d, cap_cpu)

    templates = []
    for _ in range(draw(st.integers(1, 3))):
        item = [cpu(grid())]
        if draw(st.booleans()):
            item.append((SRV, 1, grid(), cap_bus))
        if draw(st.booleans()):
            name = draw(st.sampled_from(["L", "M"]))
            item.append((ACQ, name))
            if draw(st.booleans()):
                item.append((SRV, 1, grid(), cap_bus))
            else:
                item.append((SLEEP, grid()))
            item.append((REL, name))
        if draw(st.booleans()):
            item.append((SLEEP, grid()))
        if draw(st.booleans()):
            # a zero-demand job is a no-op in both loops
            item.append((SRV, 1, 0.0, cap_bus))
        templates.append(item)
    m = draw(st.integers(min_value=0, max_value=40))
    items = [list(templates[draw(st.integers(0, len(templates) - 1))])
             for _ in range(m)]
    # the machine models start workers with empty programs; a
    # per-worker bootstrap cost exercises non-empty ones
    if draw(st.booleans()):
        programs = [[cpu(grid())] for _ in range(k)]
    else:
        programs = [[] for _ in range(k)]
    return programs, items, [capacity_cpu, capacity_bus]


def engine(programs, items, capacities, closed_form, own_sids=None):
    return CohortEngine(0.0, capacities, [list(p) for p in programs],
                        own_sids=own_sids,
                        queue=deque(list(i) for i in items),
                        closed_form=closed_form)


def run_kernel(programs, items, capacities):
    """The region run by the compiled loop itself."""
    eng = engine(programs, items, capacities, closed_form=True)
    end = eng._run_kernel()
    assert end is not None, "kernel declined an eligible region"
    return eng, end


def run_generic(programs, items, capacities, own_sids=None):
    """The region run by the interpreted ``_run_two``/``_run_many``."""
    eng = engine(programs, items, capacities, closed_form=False,
                 own_sids=own_sids)
    return eng, eng.run()


def hexes(xs):
    return [float(x).hex() for x in xs]


def assert_identical(a, end_a, b, end_b):
    """Every output the machine models consume, bit for bit."""
    assert float(end_a).hex() == float(end_b).hex()
    assert hexes(a.done_times) == hexes(b.done_times)
    assert a.n_done == b.n_done
    for sa, sb in zip(a.servers, b.servers):
        assert sa.busy_time.hex() == sb.busy_time.hex()
        assert sa.total_served.hex() == sb.total_served.hex()
    assert a.stats["events"] == b.stats["events"]
    assert a.stats["stepped_grants"] == b.stats["stepped_grants"]
    assert list(a.locks) == list(b.locks)       # first-touch order
    for name, la in a.locks.items():
        lb = b.locks[name]
        assert la.waits == lb.waits
        assert la.wait_time.hex() == lb.wait_time.hex()
        assert la.max_depth == lb.max_depth
        assert list(la.hist.items()) == list(lb.hist.items())
        assert la.holder == lb.holder


def assert_kernel_matches_generic(programs, items, capacities):
    fast, end_f = run_kernel(programs, items, capacities)
    slow, end_s = run_generic(programs, items, capacities)
    assert_identical(fast, end_f, slow, end_s)
    return fast, slow


@requires_kernel
@settings(max_examples=80, deadline=None)
@given(queue_cases())
def test_queue_solver_matches_event_stepped_scalar(case):
    assert_kernel_matches_generic(*case)


@requires_kernel
@settings(max_examples=60, deadline=None)
@given(queue_cases(max_workers=8))
def test_small_regions_take_the_kernel_through_run(case):
    # the dispatch itself: run() hands multi-worker queue regions to
    # the kernel and one-worker regions to the single-member form
    programs, items, capacities = case
    fast = engine(programs, items, capacities, closed_form=True)
    end_f = fast.run()
    if len(programs) == 1:
        assert fast.stats["queue_solver"] == 0
        return
    assert fast.stats["queue_solver"] == 1
    slow, end_s = run_generic(programs, items, capacities)
    assert_identical(fast, end_f, slow, end_s)


@settings(max_examples=25, deadline=None)
@given(queue_cases(max_workers=12))
def test_queue_solver_matches_event_stepped_vector(case):
    # numpy BatchServers are outside the kernel: the region declines to
    # the interpreted loop and matches it exactly
    programs, items, capacities = case
    saved = batch.SCALAR_MAX_SLOTS
    batch.SCALAR_MAX_SLOTS = 0
    try:
        fast = engine(programs, items, capacities, closed_form=True)
        assert fast._run_kernel() is None
        slow, end_s = run_generic(programs, items, capacities)
        fast = engine(programs, items, capacities, closed_form=True)
        end_f = fast.run()
    finally:
        batch.SCALAR_MAX_SLOTS = saved
    assert fast.stats["queue_solver"] == 0
    if len(programs) > 1:
        assert_identical(fast, end_f, slow, end_s)


# ----------------------------------------------------------------------
# dispatch accounting
# ----------------------------------------------------------------------

POP = [(SRV, 0, 1.0, 4.0)]


def items_of(n, segs):
    return [list(segs) for _ in range(n)]


@requires_kernel
def test_contended_bus_uses_queue_solver():
    # bus capacity 4 < 3 workers x cap 2
    item = [(SRV, 0, 2.0, 4.0), (SRV, 1, 2.0, 2.0)]
    fast = engine([list(POP)] * 3, items_of(8, item), [12.0, 4.0],
                  closed_form=True)
    fast.run()
    assert fast.stats["queue_solver"] == 1
    assert fast.stats["closed_form"] == 0
    assert fast.stats["events"] > 0
    assert_kernel_matches_generic([list(POP)] * 3, items_of(8, item),
                                  [12.0, 4.0])


@requires_kernel
def test_two_contended_servers_run_in_kernel():
    # both servers over-committed: the kernel steps both, exactly
    pop = [(SRV, 0, 1.0, 8.0)]
    item = [(SRV, 0, 2.0, 8.0), (SRV, 1, 2.0, 2.0)]
    fast = engine([list(pop)] * 3, items_of(6, item), [8.0, 4.0],
                  closed_form=True)
    fast.run()
    assert fast.stats["queue_solver"] == 1
    assert_kernel_matches_generic([list(pop)] * 3, items_of(6, item),
                                  [8.0, 4.0])


def test_queue_solver_honours_force_closed_form_gate(monkeypatch):
    item = [(SRV, 0, 2.0, 4.0), (SRV, 1, 2.0, 2.0)]
    monkeypatch.setenv(FORCE_CLOSED_FORM_ENV, "0")
    eng = engine([list(POP)] * 3, items_of(4, item), [12.0, 8.0],
                 closed_form=None)
    eng.run()
    assert eng.stats["queue_solver"] == 0
    assert eng.stats["closed_form"] == 0


@requires_kernel
def test_queue_wait_statistics_cross_engine():
    """Lock queue-wait statistics (waits, wait_time, depth histogram)
    agree exactly, in first-touch and bucket order."""
    item = [(SRV, 0, 1.0, 4.0), (ACQ, "L"), (SRV, 1, 3.0, 2.0),
            (REL, "L"), (ACQ, "M"), (SLEEP, 1.0), (REL, "M")]
    fast, slow = assert_kernel_matches_generic(
        [list(POP)] * 9, items_of(30, item), [36.0, 8.0])
    lf = fast.locks["L"]
    assert lf.waits > 0          # the case actually contends the lock
    assert lf.wait_time > 0.0
    assert len(lf.hist) > 1
    assert list(fast.locks) == ["L", "M"]


@requires_kernel
def test_release_ties_with_acquire():
    # every critical section is a 1 s sleep and every pop costs 1 s, so
    # releases and third-party acquires land on the same instants
    item = [(SRV, 0, 1.0, 1.0), (ACQ, "L"), (SLEEP, 1.0), (REL, "L")]
    fast, _ = assert_kernel_matches_generic(
        [[] for _ in range(5)], items_of(25, item), [5.0, 1.0])
    assert fast.stats["stepped_grants"] > 0


@requires_kernel
def test_grants_drain_after_the_whole_completion_batch():
    # at t=2 A's critical section and B's CPU job end together: A's
    # release grants L to the parked C, but C resumes only after B has
    # submitted its bus job, so B's job is sequenced first; both bus
    # jobs then end at t=3 and B (first in arrival order) finds L held
    # by C and waits
    items = [[(ACQ, "L"), (SRV, 1, 2.0, 1.0), (REL, "L")],
             [(SRV, 0, 2.0, 1.0), (SRV, 1, 1.0, 1.0), (ACQ, "L"),
              (SRV, 1, 1.0, 1.0), (REL, "L")],
             [(ACQ, "L"), (SRV, 1, 1.0, 1.0), (REL, "L")]]
    fast, _ = assert_kernel_matches_generic(
        [[] for _ in range(3)], items, [3.0, 3.0])
    assert fast.locks["L"].waits == 2


@requires_kernel
def test_completion_batching_tolerance_edge():
    # the second job's remaining work lands exactly on the 1e-9 floor
    # of the batching tolerance, so both jobs complete in one batch
    items = [[(SRV, 1, 1e-9, 1.0)], [(SRV, 1, 2e-9, 1.0)]]
    fast, _ = assert_kernel_matches_generic(
        [[], []], items, [1.0, 2.0])
    assert fast.done_times == [1e-9, 1e-9]
    assert fast.stats["events"] == 1


@pytest.mark.parametrize("closed_form", [True, False])
def test_deadlocked_region_raises_in_both_loops(closed_form):
    # the first worker keeps L, the second waits on it forever
    items = [[(ACQ, "L"), (SRV, 0, 1.0, 1.0)]] * 2
    eng = engine([[], []], items, [2.0, 1.0], closed_form=closed_form)
    with pytest.raises(DesError, match="deadlocked"):
        eng.run()


def test_closed_form_default_is_on():
    assert os.environ.get(FORCE_CLOSED_FORM_ENV, "") != "0"


# ----------------------------------------------------------------------
# shapes outside the kernel take the interpreted loop
# ----------------------------------------------------------------------

DECLINED = {
    "mixed caps": ([[]] * 3,
                   [[(SRV, 0, 2.0, 4.0), (SRV, 1, 1.0, 2.0)],
                    [(SRV, 0, 2.0, 2.0), (SRV, 1, 1.0, 2.0)]] * 4,
                   [12.0, 4.0], None),
    "PAR segment": ([[]] * 3,
                    [[(PAR, ((0, 2.0, 4.0), (1, 1.0, 2.0)))]] * 6,
                    [12.0, 4.0], None),
    "mixed home servers": ([[]] * 4,
                           [[(SRV, None, 2.0, 4.0), (SRV, 1, 1.0, 2.0)]]
                           * 8,
                           [12.0, 4.0], [0, 1, 0, 1]),
    "numpy-sized cohort": ([[]] * (batch.SCALAR_MAX_SLOTS + 1),
                           [[(SRV, 0, 2.0, 4.0), (SRV, 1, 1.0, 2.0)]]
                           * 200,
                           [4.0 * 97, 50.0], None),
}


@pytest.mark.parametrize("shape", sorted(DECLINED))
def test_ineligible_shapes_decline_to_interpreted_loop(shape):
    programs, items, capacities, own = DECLINED[shape]
    fast = engine(programs, items, capacities, closed_form=True,
                  own_sids=own)
    assert fast._run_kernel() is None
    # a declined region leaves the engine untouched: run() still works
    end_f = fast.run()
    assert fast.stats["queue_solver"] == 0
    slow, end_s = run_generic(programs, items, capacities, own_sids=own)
    assert_identical(fast, end_f, slow, end_s)


@pytest.mark.parametrize("seg", [(2 ** 70, 1.0), (SRV, 2 ** 70, 1.0, 1.0),
                                 (SRV, -1, 1.0, 1.0), (SRV, 0, 1.0, None, 0)])
def test_malformed_segments_decline_without_a_pending_error(seg):
    # the kernel declines what it cannot read, with no Python error left
    # set (ctypes would raise it), and leaves the segment to the
    # interpreted loop
    items = [[(SRV, 0, 1.0, 1.0), seg]] * 2
    fast = engine([[], []], items, [2.0, 1.0], closed_form=True)
    assert fast._run_kernel() is None


# ----------------------------------------------------------------------
# build robustness
# ----------------------------------------------------------------------

@requires_kernel
def test_failing_compiler_falls_back_with_identical_results(
        monkeypatch, tmp_path, capsys):
    item = [(SRV, 0, 1.0, 4.0), (ACQ, "L"), (SRV, 1, 3.0, 2.0), (REL, "L")]
    case = ([list(POP)] * 4, items_of(12, item), [16.0, 4.0])
    fast = engine(*case, closed_form=True)
    end_k = fast.run()
    assert fast.stats["queue_solver"] == 1

    # no cached object, and a compiler that does not exist
    monkeypatch.setattr(queue_kernel, "_state", {})
    monkeypatch.setattr(queue_kernel, "cache_dir",
                        lambda: str(tmp_path / "cache"))
    monkeypatch.setattr(queue_kernel, "compiler",
                        lambda: [str(tmp_path / "no-such-cc")])
    capsys.readouterr()
    for _ in range(2):
        slow = engine(*case, closed_form=True)
        end_f = slow.run()
        assert slow.stats["queue_solver"] == 0
        assert_identical(fast, end_k, slow, end_f)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("compiled work-queue loop unavailable") == 1


def test_broken_compiler_output_is_reported_not_raised(
        monkeypatch, tmp_path, capsys):
    # a compiler that runs and fails: the build error is a warning
    monkeypatch.setattr(queue_kernel, "_state", {})
    monkeypatch.setattr(queue_kernel, "cache_dir",
                        lambda: str(tmp_path / "cache"))
    monkeypatch.setattr(queue_kernel, "compiler", lambda: ["false"])
    assert queue_kernel.load() is None
    assert queue_kernel.load() is None
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("unavailable") == 1
    # no half-written object is left behind
    assert not any(p.suffix == ".so"
                   for p in (tmp_path / "cache").iterdir())


@requires_kernel
def test_build_is_cached_by_source_hash(monkeypatch, tmp_path):
    monkeypatch.setattr(queue_kernel, "_state", {})
    monkeypatch.setattr(queue_kernel, "cache_dir",
                        lambda: str(tmp_path / "cache"))
    assert queue_kernel.load() is not None
    built = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert len(built) == 1 and built[0].startswith("queue_kernel-")
    # a second process-level load reuses the object instead of building
    monkeypatch.setattr(queue_kernel, "_state", {})
    monkeypatch.setattr(queue_kernel, "compiler",
                        lambda: [str(tmp_path / "no-such-cc")])
    assert queue_kernel.load() is not None
