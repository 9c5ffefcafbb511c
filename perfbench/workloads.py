"""The benchmark's two workloads.

Each workload maps the run's ``--seed`` onto the shipped seeds
(``seed % 3``), whose expected outputs are pinned in ``expected.json``.
Every measured pass runs in fresh processes on a fresh result cache, so
the cold numbers stay cold.  A workload repeats its units of work --
registry passes, service sessions -- while the next one still fits in
``--seconds``, and always runs a minimum set of them.

Both workloads set the same end-to-end metrics (README.md says what
each one means per workload):

``setup_s``      median time before the measured work can begin
``cold_s``       median time of the requests on an empty result cache
``warm_s``       median time of the same requests on the filled cache
``cells_per_s``  computed cells per second of ``cold_s``
``hot_p50_ms``   median latency of a served request for an already
                 computed cell, over every hot request of the run
``hot_tail_ms``  mean latency of the slowest 5% of those requests
``peak_rss_mb``  median peak RSS of the measured process

Times are scaled to a reference CPU speed measured while they ran
(``speed.py``), then taken as medians over the run, not best-of
estimates.  On a shared box the slowdown from other tenants changes
over seconds and over minutes; the fastest of a few samples follows the
rare quiet moments and spreads more from run to run than the median
does.  The tail is a mean over
the slowest 5%, not a p99: under the scan, hot latencies cluster at a
few values, and a p99 jumps from one cluster to the next.

Hot requests are closed-loop over TCP to ``repro serve``.  On
``service-mixed`` they run while a second connection sends the scan
list; on ``registry`` they run alone, between passes, against a server
on the cache the first cold pass filled.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

from repro.obs.metrics import quantile
from repro.service.loadgen import ServiceClient

import counters
from sandbox import Sandbox

HERE = os.path.dirname(os.path.abspath(__file__))
SHIPPED_SEEDS = 3
THREAT_SCALE = 0.02
TERRAIN_SCALE = 0.05
SCALES = {"threat_scale": THREAT_SCALE, "terrain_scale": TERRAIN_SCALE}

#: the hot pool: a few distinct cells of the registry's job recipes
HOT_POOL = (
    ("mta:2", "th-job-seq"),
    ("mta:2", "te-job-fg"),
    ("exemplar:4", "te-job-seq"),
    ("alpha", "th-job-seq"),
)
#: hot requests in one probe of ``registry``, sent after every pass
HOT_PER_PROBE = 2000
#: the slowest share of hot requests that ``hot_tail_ms`` averages
HOT_TAIL = 0.05
#: per-layer metrics that ``registry``'s traced run takes from its warm
#: pass, the layers that pass is made of; every other metric comes
#: from the traced cold pass
WARM_LAYERS = ("c3i.", "workload.", "self.c3i_", "self.workload_",
               "store.cache_get", "store.cache_hits")

#: the scan request space of ``service-mixed``
SCAN_MACHINES = ("alpha", "ppro:2", "ppro:4", "exemplar:2", "exemplar:8",
                 "exemplar:16", "mta:1", "mta:2", "mta:4")
SCAN_WORKLOADS = ("th-job-seq", "th-job-fg", "te-job-seq", "te-job-fg",
                  "th-job-ch-4-os", "th-job-ch-8-sw", "te-job-bl-4-os",
                  "te-job-bl-8-sw")
SCAN_CELLS = 40
#: the seed universes the scan list draws from, past every shipped
#: seed's hot pool, so the same 40 cells are cold in every session
SCAN_UNIVERSES = (3, 4, 5)
#: warm re-sends of the scan list per ``service-mixed`` session
WARM_REPEATS = 10
WARM_PAUSE_S = 0.3

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


@dataclass
class Outcome:
    """What a workload measured and checked.

    ``metrics`` holds the end-to-end values, ``layers`` the traced
    run's per-layer values, and ``samples`` the raw measurements both
    were made from (kept in the run's record file).
    """

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        """Count ``n`` operations, all failed unless ``ok``."""
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(what)

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)


class Client(ServiceClient):
    """The program's own NDJSON client, plus the one request kind the
    workloads send."""

    n = 0

    async def simulate(self, cells: list[dict]) -> tuple[bool, dict]:
        """(ok, key -> seconds) for one ``simulate`` request."""
        self.n += 1
        lines = await self.request({"op": "simulate",
                                    "id": f"r{self.n}", "cells": cells})
        seconds = {ln["cell"]["key"]: ln["cell"]["seconds"]
                   for ln in lines if ln.get("type") == "cell"}
        last = lines[-1]
        ok = (last.get("type") == "done" and last.get("ok", False)
              and len(seconds) == len(cells))
        return ok, seconds

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))[-1]["stats"]


def tail_mean(samples: list[float], share: float) -> float:
    """Mean of the largest ``share`` of ``samples`` (at least one)."""
    data = sorted(samples)
    return statistics.fmean(data[min(int(len(data) * (1 - share)),
                                     len(data) - 1):])


def _medians(out: Outcome, names: tuple[str, ...]) -> None:
    for name in names:
        out.metrics[name] = statistics.median(out.samples[name])


def _hot_latency(chunks: list[list[float]], out: Outcome) -> None:
    """Both hot metrics over every hot request of the run."""
    pooled = [ms for chunk in chunks for ms in chunk]
    out.metrics["hot_p50_ms"] = quantile(pooled, 0.50)
    out.metrics["hot_tail_ms"] = tail_mean(pooled, HOT_TAIL)


def shipped(seed: int) -> int:
    return seed % SHIPPED_SEEDS


def _hot_payloads(seed_offset: int) -> list[dict]:
    return [{"machine": m, "workload": w, "seed_offset": seed_offset}
            for m, w in HOT_POOL]


async def _hot_probe(port: int, hot: list[dict], rng: random.Random
                     ) -> dict:
    """HOT_PER_PROBE hot requests alone, one at a time."""
    conn = await Client.connect("127.0.0.1", port)
    res = {"hot_ms": [], "seen": [], "failed": 0}
    ok, _ = await conn.simulate(hot)  # untimed: fills any missing cell
    res["failed"] += not ok
    res["t0"] = time.perf_counter()
    for _ in range(HOT_PER_PROBE):
        cell = hot[rng.randrange(len(hot))]
        t = time.perf_counter()
        ok, seconds = await conn.simulate([cell])
        res["hot_ms"].append((time.perf_counter() - t) * 1e3)
        res["failed"] += not ok
        res["seen"].append((cell, seconds))
    res["t1"] = time.perf_counter()
    await conn.close()
    return res


def _count_hot(res: dict, out: Outcome, seen: dict) -> None:
    out.check(True, "", len(res["seen"]) - res["failed"])
    if res["failed"]:
        out.check(False, f"{res['failed']} hot requests failed",
                  res["failed"])
    for cell, seconds in res["seen"]:
        seen.setdefault((cell["machine"], cell["workload"]),
                        set()).update(seconds.values())


def _compare_counters(expected: dict, got: dict, out: Outcome) -> None:
    """A counter that moved is reported by name, not as wall noise."""
    for name, value in expected.items():
        if got.get(name) != value:
            out.notes.append(f"counter change: {name} expected {value} "
                             f"got {got.get(name)}")


def _fresh_env(sb: Sandbox) -> dict:
    return sb.env(sb.fresh_dir("cache"), sb.fresh_dir("runs"))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _shape_checks(stdout: bytes) -> tuple[int, int]:
    text = stdout.decode("utf-8", errors="replace")
    return text.count("[PASS]"), text.count("[FAIL]")


def _check_registry_pass(name: str, res: dict, expected: dict,
                         out: Outcome) -> None:
    passed, failed = _shape_checks(res["stdout"])
    out.check(res["status"] == 0, f"{name} pass exit {res['status']}")
    out.check(True, "", passed)
    missing = max(failed, expected["checks"] - passed)
    if missing:
        out.check(False, f"{name} pass: {passed}/{expected['checks']} "
                         f"checks passed", missing)
    digest = counters.sha256(res["stdout"])
    out.check(digest == expected["stdout_sha256"],
              f"{name} stdout sha256 {digest} != the shipped seed's")


def _sample_pass(sb: Sandbox, kind: str, res: dict, out: Outcome) -> None:
    """A pass's set-up and wall, at the reference speed and as
    measured."""
    out.sample("setup_s", sb.scaled(res["t_spawn"], res["setup_s"]))
    out.sample(f"{kind}_s", sb.scaled(res["t0"], res["wall"]))
    out.sample(f"{kind}_wall_s", res["wall"])


def _scale_all(sb: Sandbox, t0: float, t1: float,
               values: list[float]) -> list[float]:
    """``values`` measured between ``t0`` and ``t1``, at the reference
    speed."""
    factor = sb.scaled(t0, t1 - t0) / (t1 - t0)
    return [v * factor for v in values]


def _registry_spec(seed: int, k: int) -> dict:
    return {"mode": "cli", "argv": ["all", "-j", "1"], "seed_offset": k,
            "run_id": f"registry-{seed}-k{k}"}


def registry(sb: Sandbox, seed: int, seconds: float, trace: bool,
             out: Outcome) -> None:
    """Cold then warm serial ``repro all -j 1``, each a fresh process.

    A run makes two cold passes, one at seed offset ``seed % 3`` and one
    at the next shipped seed, each on a fresh cache and followed by a
    warm pass on it; so every run holds two of the three inputs and a
    run's median does not follow one seed offset's own cost.  Then it
    makes more warm passes, alternating between the two caches, while
    the next one still fits in ``seconds``.  A hot probe follows every
    pass.  ``--trace 1`` runs the traced passes of
    :func:`_trace_registry` instead."""
    k = shipped(seed)
    if trace:
        _trace_registry(sb, _registry_spec(seed, k),
                        EXPECTED["registry"][str(k)], out)
        return
    deadline = time.perf_counter() + seconds
    hot = _hot_payloads(k)
    hot_seen: dict = {}
    rng = random.Random(f"registry:{seed}:hot")
    caches, hot_ms = [], []
    server = None

    def probe() -> None:
        res = asyncio.run(_hot_probe(server[1], hot, rng))
        _count_hot(res, out, hot_seen)
        hot_ms.append(_scale_all(sb, res["t0"], res["t1"], res["hot_ms"]))

    def warm_pass(spec: dict, env: dict, cold: dict,
                  expected: dict) -> float:
        """A warm pass and its probe; returns how long both took."""
        t = time.perf_counter()
        warm = sb.run(spec, env, sb.path("warm.out"))
        _check_warm(cold, warm, expected, out)
        _sample_pass(sb, "warm", warm, out)
        probe()
        return time.perf_counter() - t

    try:
        for kk in (k, shipped(seed + 1)):
            spec = _registry_spec(seed, kk)
            expected = EXPECTED["registry"][str(kk)]
            env = _fresh_env(sb)
            cold = sb.run(spec, env, sb.path("cold.out"))
            _check_cold(cold, expected, out)
            _sample_pass(sb, "cold", cold, out)
            out.sample("peak_rss_mb", cold["peak_rss_mb"])
            out.sample("computed_cells", cold["records"]["computed_cells"])
            if server is None:
                # hot requests go to a server on the first cold pass's
                # cache, idle while the passes run
                server = _start_server(
                    sb, sb.env(env["REPRO_CACHE_DIR"],
                               sb.fresh_dir("runs")),
                    f"registry-{seed}-hot", False)
            probe()
            caches.append((spec, env, cold, expected))
            last = warm_pass(*caches[-1])
        n = 0
        while time.perf_counter() + last < deadline:
            last = warm_pass(*caches[n % len(caches)])
            n += 1
    finally:
        if server is not None:
            status = _stop_server(server[0])["status"]
            out.check(status == 0, "serve exit status")
    _check_hot_replies(sb, hot, hot_seen, out)
    out.samples["hot_ms"] = hot_ms
    _medians(out, ("setup_s", "cold_s", "warm_s", "peak_rss_mb"))
    out.metrics["cells_per_s"] = (
        statistics.median(out.samples["computed_cells"])
        / out.metrics["cold_s"])
    _hot_latency(hot_ms, out)


def _check_cold(cold: dict, expected: dict, out: Outcome) -> None:
    _check_registry_pass("cold", cold, expected, out)
    rec = cold["records"]
    _compare_counters(expected["des"], dict(
        rec["des"], computed_cells=rec["computed_cells"]), out)


def _check_warm(cold: dict, warm: dict, expected: dict,
                out: Outcome) -> None:
    _check_registry_pass("warm", warm, expected, out)
    out.check(cold["stdout"] == warm["stdout"],
              "cold and warm stdout differ")
    out.check(warm["records"]["computed_cells"] == 0,
              "warm pass computed cells")


def _trace_registry(sb: Sandbox, spec: dict, expected: dict,
                    out: Outcome) -> None:
    """An untraced cold pass, then a traced cold and a traced warm pass;
    the tracing overhead is the difference of the two cold walls.  Each
    per-layer metric is the traced cold pass's, except WARM_LAYERS,
    which are the traced warm pass's."""
    plain = sb.run(spec, _fresh_env(sb), sb.path("pcold.out"))
    _check_cold(plain, expected, out)
    traced = dict(spec, trace=True)
    env = _fresh_env(sb)
    tcold = sb.run(traced, env, sb.path("tcold.out"))
    _check_cold(tcold, expected, out)
    twarm = sb.run(traced, env, sb.path("twarm.out"))
    _check_warm(tcold, twarm, expected, out)
    for name, value in tcold["trace"].items():
        if not name.startswith(WARM_LAYERS):
            out.layers[name] = value
    for name, value in twarm["trace"].items():
        if name.startswith(WARM_LAYERS):
            out.layers[name] = value
    out.layers["trace.cold_s"] = tcold["wall"]
    out.layers["trace.overhead_s"] = tcold["wall"] - plain["wall"]
    out.layers.update(_des_layers(tcold["records"], out.layers))


def _des_layers(rec: dict, layers: dict) -> dict:
    des = {f"des.{name}": value for name, value in rec["des"].items()}
    des["des.computed_cells"] = rec["computed_cells"]
    engine = sum(layers.get(f"{f}.run_s", 0.0)
                 for f in ("machines", "mta", "cmt"))
    events = rec["des"]["engine_events"]
    des["des.host_us_per_event"] = (engine / events * 1e6 if events
                                    else 0.0)
    return des


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------

def scan_list(seed: int) -> list[dict]:
    """40 scan cells in a seeded order.  The cells are the same for
    every seed: fixed (machine, workload) pairs over SCAN_UNIVERSES, so
    a seed changes the order of the requests but not the work they
    hold."""
    cells = [{"machine": SCAN_MACHINES[i % len(SCAN_MACHINES)],
              "workload": SCAN_WORKLOADS[i % len(SCAN_WORKLOADS)],
              "seed_offset": SCAN_UNIVERSES[i % len(SCAN_UNIVERSES)]}
             for i in range(SCAN_CELLS)]
    random.Random(f"service-mixed:{seed}:scan").shuffle(cells)
    return cells


def _start_server(sb: Sandbox, env: dict, run_id: str, traced: bool):
    """``repro serve -j 1`` on an ephemeral port: (child, port)."""
    child = sb.spawn({"mode": "cli", "trace": traced, "run_id": run_id,
                      "argv": ["serve", "-j", "1", "--port", "0"]},
                     env, sb.path(f"{run_id}.out"))
    try:
        return child, _await_port(child)
    except RuntimeError:
        _stop_server(child)
        raise


def _stop_server(child) -> dict:
    """SIGTERM (the server drains), then the child's result."""
    if child.proc.poll() is None:
        child.proc.send_signal(signal.SIGTERM)
    return child.wait()


def _await_port(child, timeout: float = 60.0) -> int:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if child.proc.poll() is not None:
            break
        with open(child.stdout_path, encoding="utf-8") as fh:
            for line in fh:
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        time.sleep(0.005)
    raise RuntimeError("repro serve did not announce its port")


async def _session(port: int, hot: list[dict], scan: list[dict],
                   seed: int) -> dict:
    warm_conn = await Client.connect("127.0.0.1", port)
    ok, _ = await warm_conn.simulate(hot)
    t_warmed = time.perf_counter()
    before = await warm_conn.stats()
    scan_conn, hot_conn = warm_conn, await Client.connect("127.0.0.1", port)
    done = asyncio.Event()
    res = {"warm_ok": ok, "t_warmed": t_warmed, "hot_ms": [],
           "seen": [], "failed": 0, "scan_failed": 0, "scan_ms": []}

    async def scan_loop():
        t0 = res["scan_t0"] = time.perf_counter()
        try:
            for cell in scan:
                t = time.perf_counter()
                ok, _ = await scan_conn.simulate([cell])
                res["scan_ms"].append((time.perf_counter() - t) * 1e3)
                res["scan_failed"] += not ok
        finally:
            res["scan_s"] = time.perf_counter() - t0
            done.set()

    async def hot_loop():
        order = random.Random(f"service-mixed:{seed}:hot")
        while not done.is_set():
            cell = hot[order.randrange(len(hot))]
            t = time.perf_counter()
            ok, seconds = await hot_conn.simulate([cell])
            res["hot_ms"].append((time.perf_counter() - t) * 1e3)
            res["failed"] += not ok
            res["seen"].append((cell, seconds))

    await asyncio.gather(scan_loop(), hot_loop())
    mid = await scan_conn.stats()
    res["warm_s"] = []
    for i in range(WARM_REPEATS):
        if i:
            await asyncio.sleep(WARM_PAUSE_S)
        t0 = time.perf_counter()
        for cell in scan:
            ok, _ = await scan_conn.simulate([cell])
            res["scan_failed"] += not ok
        res["warm_s"].append((t0, time.perf_counter() - t0))
    res["stats"] = (before, mid)
    await hot_conn.close()
    await scan_conn.close()
    return res


SERVICE_COUNTERS = ("requests", "dedupe_cached", "dedupe_inflight",
                    "batches", "batched_cells", "engine_cells", "errors")


def service_mixed(sb: Sandbox, seed: int, seconds: float, trace: bool,
                  out: Outcome) -> None:
    """One ``repro serve -j 1``; hot requests under a scan list.

    Each session is a new server on a fresh cache.  ``--trace 1`` runs
    an untraced session, then a traced one, which gives the per-layer
    numbers."""
    k = shipped(seed)
    hot = _hot_payloads(k)
    scan = scan_list(seed)
    hot_seen: dict = {}
    sessions = []
    t_start = time.perf_counter()
    while True:
        t_session = time.perf_counter()
        n = len(sessions)
        traced = trace and n == 1
        env = _fresh_env(sb)
        child, port = _start_server(sb, env, f"service-{seed}-{n}", traced)
        try:
            res = asyncio.run(_session(port, hot, scan, seed))
        finally:
            server = _stop_server(child)
        out.check(res["warm_ok"], "hot pool warm-up failed")
        _count_hot(res, out, hot_seen)
        n_scan = len(scan) * (1 + WARM_REPEATS)
        out.check(True, "", n_scan - res["scan_failed"])
        if res["scan_failed"]:
            out.check(False, f"{res['scan_failed']} scan requests failed",
                      res["scan_failed"])
        before, mid = res["stats"]
        engine = mid["engine_cells"] - before["engine_cells"]
        out.check(engine == len(scan),
                  f"scan computed {engine} cells, expected {len(scan)}")
        out.check(server["status"] == 0, "serve exit status")
        if traced:
            out.layers.update(server["trace"])
            for name in SERVICE_COUNTERS:
                out.layers[f"service.{name}"] = mid[name] - before[name]
            out.layers["service.scan_p50_ms"] = quantile(res["scan_ms"],
                                                         0.5)
            out.layers["trace.cold_s"] = res["scan_s"]
            out.layers["trace.overhead_s"] = (res["scan_s"]
                                              - sessions[0]["scan_s"])
            break
        res["setup_s"] = sb.scaled(child.t_spawn,
                                   res["t_warmed"] - child.t_spawn)
        res["peak_rss_mb"] = server["peak_rss_mb"]
        sessions.append(res)
        now = time.perf_counter()
        if not trace and now - t_start + (now - t_session) > seconds:
            break
    _check_hot_replies(sb, hot, hot_seen, out)
    if trace:
        return
    for name in ("setup_s", "peak_rss_mb"):
        out.samples[name] = [res[name] for res in sessions]
    out.samples["cold_wall_s"] = [res["scan_s"] for res in sessions]
    out.samples["cold_s"] = [sb.scaled(res["scan_t0"], res["scan_s"])
                             for res in sessions]
    out.samples["warm_s"] = [sb.scaled(t0, dt) for res in sessions
                             for t0, dt in res["warm_s"]]
    out.samples["hot_ms"] = [
        _scale_all(sb, res["scan_t0"], res["scan_t0"] + res["scan_s"],
                   res["hot_ms"]) for res in sessions]
    _medians(out, ("setup_s", "cold_s", "warm_s", "peak_rss_mb"))
    out.metrics["cells_per_s"] = len(scan) / out.metrics["cold_s"]
    _hot_latency(out.samples["hot_ms"], out)


def _check_hot_replies(sb: Sandbox, hot: list[dict], seen: dict,
                       out: Outcome) -> None:
    """Every hot reply equals the same cell computed in-process."""
    env = _fresh_env(sb)
    ref = sb.run({"mode": "cells", "cells": hot, **SCALES},
                 env, sb.path("ref.out"))
    for payload, want in zip(hot, ref["seconds_hex"]):
        got = seen.get((payload["machine"], payload["workload"]), set())
        out.check(bool(got) and all(float(s).hex() == want for s in got),
                  f"hot reply for {payload} != in-process {want}")


WORKLOADS = {
    "registry": registry,
    "service-mixed": service_mixed,
}
