"""Serialization of experiment results and the persistent result cache.

Two layers live here:

* A JSON round trip for :class:`ExperimentResult` -- lets CI pipelines
  and notebooks consume reproduced tables without re-running the
  simulations, and lets the CLI emit machine-readable output
  (``python -m repro run table5 --json out.json``).
* A content-addressed on-disk cache for *simulation runs* (the
  expensive part of every experiment).  A run is keyed by the sha-256
  fingerprint of everything that determines its outcome: the machine
  spec, the job (down to every op count), the simulation options, the
  scenario parameters (scale/seed), and an *epoch* hash of the model
  source code plus the package version.  Identical keys therefore mean
  bit-identical simulated seconds, and any model or calibration change
  invalidates the cache automatically.

  Entries are one JSON file per key under ``.repro_cache/`` (override
  with ``REPRO_CACHE_DIR``); writes are atomic (tempfile +
  ``os.replace``) so concurrent processes can share a directory.
  Corrupt or stale entries are discarded, never trusted.  Set
  ``REPRO_NO_CACHE=1`` to bypass the cache entirely.
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from repro.harness.experiment import ExperimentResult, Row, ShapeCheck

#: bumped on any schema change
SCHEMA_VERSION = 1


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "rows": [
            {"label": r.label, "paper": r.paper,
             "simulated": r.simulated, "unit": r.unit}
            for r in result.rows
        ],
        "checks": [
            {"description": c.description, "passed": c.passed,
             "detail": c.detail}
            for c in result.checks
        ],
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result schema {schema!r} "
            f"(this build reads {SCHEMA_VERSION})")
    rows = tuple(
        Row(label=r["label"], paper=r["paper"],
            simulated=r["simulated"], unit=r["unit"])
        for r in payload["rows"]
    )
    checks = tuple(
        ShapeCheck(description=c["description"], passed=c["passed"],
                   detail=c.get("detail", ""))
        for c in payload["checks"]
    )
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        rows=rows,
        checks=checks,
        notes=payload.get("notes", ""),
    )


def atomic_write_json(path: str, payload, *, indent: Optional[int] = 2,
                      sort_keys: bool = False) -> None:
    """Serialize ``payload`` to ``path`` via tempfile + ``os.replace``.

    A crash (or a watchdog interrupt) mid-write must never leave a
    truncated JSON file behind: the document is written to a temporary
    file in the destination directory and moved into place atomically,
    the same pattern :meth:`ResultCache.put` uses.  Unlike the cache's
    best-effort writes, errors propagate -- the caller asked for this
    file.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".write-", suffix=".tmp",
                               dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=indent, sort_keys=sort_keys)
        # mkstemp creates 0600; give the artifact normal umask perms
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def dump_results(results: Iterable[ExperimentResult], path: str) -> None:
    """Write results as a JSON array (atomically)."""
    atomic_write_json(path, [result_to_dict(r) for r in results])


def load_results(path: str) -> list[ExperimentResult]:
    """Read back results written by :func:`dump_results`."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of results")
    return [result_from_dict(p) for p in payload]


# ----------------------------------------------------------------------
# content-addressed simulation-result cache
# ----------------------------------------------------------------------

#: bumped on any change to the cache entry layout
CACHE_SCHEMA_VERSION = 1


def entry_to_record(key: str, entry: dict, seed_offset: int,
                    kind: Optional[str] = None) -> dict:
    """A simulation *record* rebuilt from a cache entry.

    Records (``BenchmarkData.metrics_log`` entries -- key/kind/machine/
    job/seconds/seed_offset/stats) are the currency of the metrics
    rollups, the run directory's ``cells.jsonl`` and the service's
    per-cell result stream.  Three consumers reconstruct them from
    cache entries (the runner's hit path, the parallel harness's cell
    dedupe, the service batcher); one constructor keeps their shape
    identical.  ``kind`` overrides the entry's stored kind (the runner
    passes the request's, which always matches what :meth:`ResultCache.put`
    embedded).
    """
    return {
        "key": key,
        "kind": kind if kind is not None else entry.get("kind", ""),
        "machine": entry.get("machine", ""),
        "job": entry.get("job", ""),
        "seconds": float(entry["seconds"]),
        "seed_offset": seed_offset,
        "stats": entry.get("stats") or {},
    }

#: set (non-empty, not "0") to bypass the cache entirely
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: overrides the cache directory (default ``./.repro_cache``)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

DEFAULT_CACHE_DIR = ".repro_cache"


def _str_token(s: str) -> bytes:
    raw = s.encode("utf-8")
    return b"s%d:" % len(raw) + raw


#: per-dataclass encoding cache: (header bytes, field name tokens+names)
_DC_ENC: dict[type, tuple[bytes, tuple[tuple[bytes, str], ...]]] = {}

#: per-enum-member encoding cache (members are singletons)
_ENUM_ENC: dict[enum.Enum, bytes] = {}


def _encode(out: bytearray, obj) -> None:
    """Append the canonical byte encoding of ``obj`` to ``out``.

    Every value that can appear in a machine spec or job tree is
    covered: primitives, enums, (frozen) dataclasses, dicts, sequences.
    Floats are encoded via ``float.hex`` so distinct bit patterns never
    collide and equal values always agree.  Job trees run to hundreds
    of thousands of nodes, so the encoder dispatches on exact type
    first and caches per-dataclass field layouts; the byte stream is
    unchanged by these shortcuts (cache keys survive them).
    """
    t = obj.__class__
    if t is float:
        out += b"f"
        out += float.hex(obj).encode("ascii")
        out += b";"
    elif t is str:
        raw = obj.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif t is int:
        out += b"i%d;" % obj
    elif t is tuple or t is list:
        out += b"l%d:" % len(obj)
        for item in obj:
            _encode(out, item)
    elif obj is None:
        out += b"N;"
    elif obj is True:
        out += b"T;"
    elif obj is False:
        out += b"F;"
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif isinstance(obj, float):
        out += b"f"
        out += float.hex(obj).encode("ascii")
        out += b";"
    elif isinstance(obj, enum.Enum):
        enc = _ENUM_ENC.get(obj)
        if enc is None:
            buf = bytearray(b"e" + _str_token(type(obj).__qualname__))
            _encode(buf, obj.value)
            enc = _ENUM_ENC[obj] = bytes(buf)
        out += enc
    elif isinstance(obj, int):
        out += b"i%d;" % obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        enc = _DC_ENC.get(t)
        if enc is None:
            enc = _DC_ENC[t] = (
                b"d" + _str_token(t.__qualname__),
                tuple((_str_token(f.name), f.name)
                      for f in dataclasses.fields(t)),
            )
        head, fields = enc
        out += head
        for token, name in fields:
            out += token
            _encode(out, getattr(obj, name))
        out += b";"
    elif isinstance(obj, dict):
        out += b"m%d:" % len(obj)
        for key in sorted(obj, key=repr):
            _encode(out, key)
            _encode(out, obj[key])
    elif isinstance(obj, (list, tuple)):
        out += b"l%d:" % len(obj)
        for item in obj:
            _encode(out, item)
    elif isinstance(obj, (set, frozenset)):
        out += b"S%d:" % len(obj)
        for item in sorted(obj, key=repr):
            _encode(out, item)
    elif hasattr(obj, "item"):  # numpy scalar
        _encode(out, obj.item())
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__}: {obj!r}")


def _feed(h, obj) -> None:
    """Feed the canonical byte encoding of ``obj`` into hasher ``h``."""
    out = bytearray()
    _encode(out, obj)
    h.update(out)


def fingerprint(obj) -> str:
    """sha-256 hex digest of the canonical encoding of ``obj``."""
    out = bytearray()
    _encode(out, obj)
    return hashlib.sha256(out).hexdigest()


#: packages whose source determines simulation output for a given
#: (spec, job) pair -- including every calibration constant.  The c3i
#: kernels are deliberately absent: they only shape the *job content*,
#: which is fingerprinted directly.  ``obs`` is included because the
#: machine models import it for metrics rollups (and the equivalence
#: arithmetic for lock summaries lives there).
_MODEL_PACKAGES = ("des", "machines", "mta", "obs", "workload", "threads")


def _model_source_files(root: str) -> Iterator[str]:
    """Every source file whose content feeds the epoch hash, in a
    deterministic order.  Paths are absolute; ``root`` is the ``repro``
    package directory.

    Exposed separately from the hashing so tests can assert that a
    given file *is* covered (e.g. the cohort compilers, whose output
    the DES path never checks at runtime).  C sources count too: the
    compiled work-queue loop (``des/queue_kernel.c``) decides results
    just as the Python modules do.

    The walk recurses into nested subpackages: a model package that
    grows a subdirectory must feed the epoch hash too, or entries
    cached before the subpackage changed would be trusted forever.
    ``__pycache__`` trees are skipped.
    """
    for pkg in _MODEL_PACKAGES:
        pkg_dir = os.path.join(root, pkg)
        if not os.path.isdir(pkg_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(pkg_dir):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".c")):
                    yield os.path.join(dirpath, name)


def _compute_epoch(root: str, version: str) -> str:
    """The epoch digest for a package tree (uncached; see
    :func:`model_epoch`)."""
    h = hashlib.sha256()
    h.update(version.encode("utf-8"))
    for path in _model_source_files(root):
        # the package-relative path, not the basename: nested modules
        # may share a basename, and moving a module between packages
        # must change the epoch
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        h.update(rel.encode("utf-8"))
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


@lru_cache(maxsize=1)
def model_epoch() -> str:
    """Hash of the simulation-model source code and package version.

    Part of every cache key: editing any model module or calibration
    constant (they live in the model packages) changes the epoch and
    orphans -- i.e. invalidates -- every existing entry.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return _compute_epoch(root, getattr(repro, "__version__", ""))


class CacheScope:
    """Hit/miss counts attributed to one unit of work (see
    :func:`cache_scope`)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


_scope_var: contextvars.ContextVar[Optional[CacheScope]] = \
    contextvars.ContextVar("repro_cache_scope", default=None)


@contextmanager
def cache_scope() -> Iterator[CacheScope]:
    """Attribute cache hits/misses to the enclosed work, exactly.

    The process-wide :class:`ResultCache` counters are cumulative;
    subtracting snapshots taken around a task is only correct when
    tasks never interleave in one process.  A scope instead counts via
    a :class:`contextvars.ContextVar`, so it sees precisely the lookups
    made in the current context -- concurrent scopes (e.g. experiment
    runners on different threads) never bleed into each other::

        with store.cache_scope() as sc:
            run_experiment(...)
        profile = (sc.hits, sc.misses)

    Scopes nest: only the innermost active scope counts a lookup.
    """
    scope = CacheScope()
    token = _scope_var.set(scope)
    try:
        yield scope
    finally:
        _scope_var.reset(token)


class ResultCache:
    """One-JSON-file-per-entry store under a cache directory.

    Safe for concurrent use from multiple processes: reads tolerate
    missing/corrupt/partial files (treated as misses, corrupt files are
    removed), writes go through a tempfile in the same directory
    followed by an atomic ``os.replace``.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: entries discarded because their checksum or shape failed
        self.corrupt = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    @staticmethod
    def payload_checksum(payload: dict) -> str:
        """sha-256 over the canonical JSON form, checksum field
        excluded.  Written by :meth:`put`, verified by :meth:`get`."""
        body = {k: v for k, v in payload.items() if k != "sha256"}
        raw = json.dumps(body, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None`` on any problem.

        Every read verifies the entry's embedded sha-256 checksum, so
        silent on-disk corruption (bit rot, torn concurrent writes
        through a non-atomic filesystem, hand edits) surfaces as a
        cache miss -- the caller transparently recomputes and the
        corrupt file is removed.  Entries written before checksums
        existed fail the check and are rebuilt the same way.

        The entry's embedded ``key`` must also match the lookup key: a
        cache file copied or renamed to another key's path carries a
        checksum-consistent payload for the *wrong* simulation cell,
        and serving it would silently corrupt results.  Mismatches are
        treated exactly like corruption (discarded and counted).
        """
        path = self._path(key)
        corrupt = False
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            payload = None
        except ValueError:
            payload = None
            corrupt = True
        else:
            if (not isinstance(payload, dict)
                    or payload.get("schema") != CACHE_SCHEMA_VERSION
                    or payload.get("key") != key
                    or not isinstance(payload.get("seconds"),
                                      (int, float))
                    or payload.get("sha256")
                    != self.payload_checksum(payload)):
                payload = None
                corrupt = True
        if corrupt:
            self.corrupt += 1
            try:  # corrupt entry: discard so it is rebuilt
                os.remove(path)
            except OSError:
                pass
        scope = _scope_var.get()
        if payload is None:
            self.misses += 1
            if scope is not None:
                scope.misses += 1
            return None
        self.hits += 1
        if scope is not None:
            scope.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` (best effort; errors ignored)."""
        payload = dict(payload, schema=CACHE_SCHEMA_VERSION, key=key)
        payload["sha256"] = self.payload_checksum(payload)
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".put-", suffix=".tmp", dir=self.directory)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a full/read-only disk must not break the run

    def _entries(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [os.path.join(self.directory, n) for n in names
                if n.endswith(".json")]

    def info(self) -> dict:
        """Entry count and total size (for ``repro cache info``)."""
        entries = self._entries()
        total = 0
        for path in entries:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return {"directory": os.path.abspath(self.directory),
                "entries": len(entries), "bytes": total,
                "epoch": model_epoch(),
                "corrupt_discarded": self.corrupt}

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed


_caches: dict[str, ResultCache] = {}


def cache_directory() -> str:
    """The configured cache directory (may not exist yet)."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def cache_enabled() -> bool:
    return os.environ.get(NO_CACHE_ENV, "") in ("", "0")


def active_cache() -> Optional[ResultCache]:
    """The process-wide cache for the configured directory.

    ``None`` when ``REPRO_NO_CACHE`` is set.  One :class:`ResultCache`
    (with its hit/miss counters) is kept per directory, so repeated
    calls are cheap and counters accumulate across the process.
    """
    if not cache_enabled():
        return None
    directory = cache_directory()
    cache = _caches.get(directory)
    if cache is None:
        cache = _caches[directory] = ResultCache(directory)
    return cache
