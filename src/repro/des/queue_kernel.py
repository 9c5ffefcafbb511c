"""Build and load the compiled work-queue event loop (``queue_kernel.c``).

The C source is compiled on first use into a shared object cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), keyed by a hash
of the source, the compiler flags, the Python version and the platform,
and loaded with :class:`ctypes.PyDLL` -- stdlib only, no extension
build.  The build writes to a temporary file and ``os.replace`` s it
into place, so parallel workers and a concurrent server can build at
once.  Loading is lazy: :func:`load` runs on the first region that can
use the loop, so start-up, warm passes and cached requests never
compile or load it.

Without a compiler or the Python headers, :func:`load` warns once on
stderr and returns None; the engine then runs the interpreted
``CohortEngine._run_two`` loop, which computes the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from typing import Callable, Optional

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "queue_kernel.c")

#: no fast-math and no contraction into FMAs: every double operation
#: must round exactly as the interpreted loop's
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: process-wide load state: ``"run"`` maps to the entry point, or None
#: once a build has failed
_state: dict = {}


def cache_dir() -> str:
    """Where built shared objects are cached."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def compiler() -> list[str]:
    """The C compiler command, as the running Python was built with."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _key(source: bytes) -> str:
    h = hashlib.sha256(source)
    for part in (*CFLAGS, sys.version, sysconfig.get_platform(),
                 sys.implementation.cache_tag or ""):
        h.update(b"\0" + part.encode())
    return h.hexdigest()[:16]


def _build() -> str:
    """Path of the shared object for the current source, built if absent."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    name = f"queue_kernel-{_key(source)}.so"
    out_dir = cache_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    if os.path.exists(path):
        return path
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError(f"Python.h not found in {include}")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=out_dir)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*compiler(), *CFLAGS, "-I", include, SOURCE, "-o", tmp],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip()
            raise OSError(f"compiler exited {proc.returncode}: "
                          f"{err[-500:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load() -> Optional[Callable[..., int]]:
    """The compiled ``qk_run`` entry point, or None if it cannot be built.

    Built and loaded at most once per process; a failure is reported
    once on stderr and remembered.
    """
    if "run" in _state:
        return _state["run"]
    try:
        lib = ctypes.PyDLL(_build())
        run = lib.qk_run
        run.argtypes = [ctypes.py_object, ctypes.py_object, ctypes.c_int,
                        ctypes.c_double, ctypes.c_double, ctypes.c_double,
                        ctypes.py_object]
        run.restype = ctypes.c_int
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        print(f"repro: compiled work-queue loop unavailable ({exc}); "
              f"using the interpreted loop", file=sys.stderr)
        run = None
    _state["run"] = run
    return run
