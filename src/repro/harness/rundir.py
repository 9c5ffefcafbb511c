"""Durable per-run artifact directories (``.repro_runs/<run_id>/``).

Every ``repro all`` / ``report`` / ``bench`` / ``chaos`` invocation
used to print its numbers and throw them away; tracking the harness's
perf trajectory meant hand-editing ``BENCH_harness.json``.  This layer
makes each run a durable artifact instead:

``manifest.json``
    Written when the run starts (status ``running``) and atomically
    finalized when it ends: command, flags, git rev, model epoch,
    machine/workload ids, seed universes, engine-choice stats rollup,
    jobs built, wall-clock duration, exit status.
``cells.jsonl``
    One line per distinct simulation cell, streamed as results land
    (the parallel scheduler's ``cell_sink`` hook feeds this), so even
    an interrupted run keeps the cells it finished.  Lines are
    deduplicated by the cell's content-addressed cache key.
``report.json``
    The run's user-visible output in machine-readable form: reproduced
    tables + shape checks (``repro all``/``report``), per-experiment
    profiles with metrics rollups, or the bench/chaos payload.

Both JSON files are written with the tempfile + ``os.replace`` pattern
(:func:`repro.harness.store.atomic_write_json`), so a watchdog
interrupt mid-write never leaves truncated JSON.

The run directory root defaults to ``./.repro_runs`` (override with
``REPRO_RUNS_DIR``; disable artifact writing entirely with
``REPRO_NO_RUNS=1``).  ``repro runs list/show/diff/query`` answer from
the SQLite index maintained over these artifacts by
:mod:`repro.harness.index`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import uuid
from contextlib import contextmanager
from typing import IO, Iterator, Optional, Sequence

from repro.harness.store import atomic_write_json, model_epoch
from repro.obs.metrics import new_rollup, rollup_add

#: overrides the run-directory root (default ``./.repro_runs``)
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: set (non-empty, not "0") to disable run-artifact writing
NO_RUNS_ENV = "REPRO_NO_RUNS"

DEFAULT_RUNS_DIR = ".repro_runs"

#: bumped on any change to the manifest layout
MANIFEST_SCHEMA = 1

#: bumped on any change to the report envelope
REPORT_SCHEMA = 1


def runs_root() -> str:
    """The configured run-directory root (may not exist yet)."""
    return os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR


def runs_enabled() -> bool:
    return os.environ.get(NO_RUNS_ENV, "") in ("", "0")


class RunsRootError(RuntimeError):
    """The configured run-artifact root cannot be written."""


def ensure_runs_root() -> Optional[str]:
    """Create the run-directory root and prove it writable.

    Long-running commands (the job server) must fail *at startup* with
    an actionable message, not on their first request hours later.
    Returns the root (``None`` with ``REPRO_NO_RUNS`` set); raises
    :class:`RunsRootError` naming ``REPRO_RUNS_DIR`` when the root
    cannot be created or written.
    """
    if not runs_enabled():
        return None
    root = runs_root()
    try:
        os.makedirs(root, exist_ok=True)
        probe = os.path.join(root, f".probe-{os.getpid()}-"
                                   f"{uuid.uuid4().hex[:8]}")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise RunsRootError(
            f"run-artifact root {root!r} is not writable ({exc}); "
            f"point {RUNS_DIR_ENV} at a writable directory or disable "
            f"run artifacts with {NO_RUNS_ENV}=1") from exc
    return root


def _utc(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def slug(text: str) -> str:
    """Lowercase alphanumeric tokens joined by ``-``.

    ``'HP Exemplar S-Class[16p]'`` becomes ``hp-exemplar-s-class-16p``
    -- stable, filesystem- and query-friendly cell identifiers.
    """
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return "-".join(tokens)


def cell_id(machine: str, job: str) -> str:
    """The queryable cell identifier of one (machine, job) pair."""
    return f"{slug(machine)}/{slug(job)}"


def git_rev() -> Optional[str]:
    """Best-effort HEAD revision (None outside a git work tree)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


class RunWriter:
    """Owns one run directory: manifest, streamed cells, report.

    Concurrent runs are safe: the run id embeds pid + a random
    fragment, and directory creation retries on the (astronomically
    unlikely) collision, so ``-j N`` runs -- or wholly separate
    processes -- always land in distinct directories.
    """

    def __init__(self, command: str, flags: Optional[dict] = None,
                 root: Optional[str] = None,
                 argv: Optional[Sequence[str]] = None):
        self.command = command
        self.flags = dict(flags or {})
        self.argv = list(argv) if argv is not None else None
        self.root = root or runs_root()
        self.started = time.time()
        self.exit_status: Optional[int] = None
        self.finished_path: Optional[str] = None
        self._cells_fh: Optional[IO[str]] = None
        self._n_cells = 0
        self._seen_keys: set[str] = set()
        self._machines: set[str] = set()
        self._workloads: set[str] = set()
        self._seed_offsets: set[int] = set()
        # running engine-stats rollup, folded record by record: a
        # service session streams unbounded cells, so the writer must
        # never retain the records themselves
        self._engine_stats = new_rollup()
        self._report_summary: Optional[dict] = None
        #: jobs the run built, summed over the experiment profiles;
        #: None for runs without profiles
        self._jobs_built: Optional[int] = None

        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(self.started))
        while True:
            self.run_id = (f"{stamp}-{os.getpid()}-"
                           f"{uuid.uuid4().hex[:8]}")
            self.directory = os.path.join(self.root, self.run_id)
            try:
                os.makedirs(self.directory, exist_ok=False)
                break
            except FileExistsError:
                continue
        self._write_manifest(status="running")

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest(self, status: str, finished: Optional[float] = None,
                  ) -> dict:
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "flags": self.flags,
            "status": status,
            "exit_status": self.exit_status,
            "started": _utc(self.started),
            "finished": None if finished is None else _utc(finished),
            "duration_s": (None if finished is None
                           else round(finished - self.started, 3)),
            "git_rev": git_rev(),
            "model_epoch": model_epoch(),
            "python": sys.version.split()[0],
            "machines": sorted(self._machines),
            "workloads": sorted(self._workloads),
            "seed_offsets": sorted(self._seed_offsets),
            "n_cells": self._n_cells,
            "engine_stats": dict(self._engine_stats),
            "jobs_built": self._jobs_built,
        }
        if self._report_summary is not None:
            manifest["report"] = self._report_summary
        return manifest

    def _write_manifest(self, status: str,
                        finished: Optional[float] = None) -> None:
        atomic_write_json(
            os.path.join(self.directory, "manifest.json"),
            self._manifest(status, finished), sort_keys=True)

    # ------------------------------------------------------------------
    # cells.jsonl streaming
    # ------------------------------------------------------------------
    def record(self, source: str, rec: dict) -> None:
        """Append one simulation record to ``cells.jsonl``.

        Records carrying a content-addressed cache ``key`` are
        deduplicated on it (the same cell reaches the sink once from
        the worker that computed it and again from every replay that
        read it back); records without a key (bench rows, chaos
        entries) are always written.
        """
        key = rec.get("key")
        if key is not None:
            if key in self._seen_keys:
                return
            self._seen_keys.add(key)
        machine = rec.get("machine", "")
        job = rec.get("job", "")
        line = {
            "seq": self._n_cells,
            "cell": rec.get("cell") or cell_id(machine, job),
            "kind": rec.get("kind", ""),
            "machine": machine,
            "job": job,
            "seconds": rec.get("seconds"),
            "seed_offset": rec.get("seed_offset", 0),
            "source": source,
            "key": key,
            "stats": rec.get("stats") or {},
        }
        if self._cells_fh is None:
            self._cells_fh = open(
                os.path.join(self.directory, "cells.jsonl"), "w",
                encoding="utf-8")
        json.dump(line, self._cells_fh, sort_keys=True,
                  separators=(",", ":"))
        self._cells_fh.write("\n")
        self._cells_fh.flush()
        self._n_cells += 1
        if machine:
            self._machines.add(machine)
        if job:
            self._workloads.add(job)
        self._seed_offsets.add(int(rec.get("seed_offset", 0)))
        rollup_add(self._engine_stats, rec)

    def cell_sink(self, experiment_id: str,
                  records: Sequence[dict]) -> None:
        """A :data:`repro.harness.parallel.CellSink` writing here."""
        for rec in records:
            self.record(experiment_id, rec)

    # ------------------------------------------------------------------
    # report.json
    # ------------------------------------------------------------------
    def write_report(self, results=None, profiles=None,
                     payload: Optional[dict] = None) -> None:
        """Store the run's results in machine-readable form.

        ``results`` is an iterable of
        :class:`~repro.harness.experiment.ExperimentResult`,
        ``profiles`` of
        :class:`~repro.harness.parallel.ExperimentProfile` (each gets
        its :func:`~repro.obs.metrics.rollup_records` rollup attached);
        bench/chaos runs pass their raw ``payload`` dict instead.
        """
        from repro.harness.store import result_to_dict
        from repro.obs.metrics import rollup_records

        report: dict = {
            "schema": REPORT_SCHEMA,
            "run_id": self.run_id,
            "command": self.command,
        }
        if results is not None:
            dicts = [result_to_dict(r) for r in results]
            report["results"] = dicts
            checks = [c for r in dicts for c in r["checks"]]
            self._report_summary = {
                "experiments": len(dicts),
                "checks_passed": sum(1 for c in checks if c["passed"]),
                "checks_total": len(checks),
            }
        if profiles is not None:
            report["profiles"] = [
                {"experiment_id": p.experiment_id,
                 "wall_seconds": round(p.wall_seconds, 4),
                 "cache_hits": p.cache_hits,
                 "cache_misses": p.cache_misses,
                 "jobs_built": p.jobs_built,
                 "rollup": rollup_records(p.metrics)}
                for p in profiles
            ]
            self._jobs_built = sum(p.jobs_built for p in profiles)
        if payload is not None:
            report["payload"] = payload
        atomic_write_json(
            os.path.join(self.directory, "report.json"), report,
            sort_keys=True)

    # ------------------------------------------------------------------
    def finish(self, status: Optional[str] = None) -> str:
        """Finalize the manifest and index the run; returns the dir.

        Idempotent: the scope's error path and normal path can both
        call it without double-indexing.
        """
        if self.finished_path is not None:
            return self.finished_path
        if self._cells_fh is not None:
            self._cells_fh.close()
            self._cells_fh = None
        if status is None:
            status = ("ok" if self.exit_status in (0, None)
                      else "failed")
        self._write_manifest(status, finished=time.time())
        self.finished_path = self.directory
        try:
            from repro.harness import index

            index.index_run_dir(self.directory, root=self.root)
        except Exception as exc:  # the run itself succeeded
            print(f"runs: could not index {self.run_id}: {exc}",
                  file=sys.stderr)
        return self.directory


@contextmanager
def run_scope(command: str, flags: Optional[dict] = None,
              argv: Optional[Sequence[str]] = None,
              ) -> Iterator[Optional[RunWriter]]:
    """The CLI's run-artifact scope.

    Yields a :class:`RunWriter` (or ``None`` with ``REPRO_NO_RUNS``
    set); the command body sets ``writer.exit_status``.  The manifest
    is finalized on every exit path -- ``ok``/``failed`` from the exit
    status, ``error`` when the body raised (including a watchdog's
    KeyboardInterrupt), so crashes stay visible in ``repro runs list``.
    """
    if not runs_enabled():
        yield None
        return
    writer = RunWriter(command, flags, argv=argv)
    try:
        yield writer
    except BaseException:
        writer.finish(status="error")
        raise
    writer.finish()
