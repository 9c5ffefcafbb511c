"""Isolated run roots and measured child processes.

Every benchmark run gets a private root under ``.perfbench_tmp/`` in the
checkout, with its own ``REPRO_CACHE_DIR`` and ``REPRO_RUNS_DIR``; the
repo's ``.repro_cache/`` and ``.repro_runs/`` are never read or grown.
The run store stays on, because users pay for it.  Every ``REPRO_*``
variable of the inherited environment is dropped, which removes the
engine escape hatches (``REPRO_NO_COHORT``, ``REPRO_FORCE_CLOSED_FORM``),
``REPRO_NO_CACHE``, ``REPRO_NO_RUNS`` and ``REPRO_RUN_TIMEOUT_S``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: a measured child that has not finished by then has hung
CHILD_TIMEOUT_S = 150.0


class ChildError(RuntimeError):
    """A measured process failed to start, crashed or hung."""


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__main__.py"))


def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU.

    On the shared box the benchmark was tuned on, a request that wakes
    a process on the other, idle vCPU waits for the host to schedule
    that vCPU: with client and server on different CPUs a hot
    request's p99 read 5-17 ms in a busy spell and 1.2 ms with both on
    one CPU.  Two passes side by side also slow each other, so nothing
    is lost by giving up the second CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def box_fingerprint() -> dict:
    """nproc, CPU model, and the Python and numpy versions."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


class Sandbox:
    """One run's private root; :meth:`close` removes it."""

    def __init__(self) -> None:
        self.root = os.path.join(TMP_ROOT, uuid.uuid4().hex[:12])
        os.makedirs(self.root)
        self._n = itertools.count()
        self.procs: list[subprocess.Popen] = []
        #: the run's ``speed.SpeedProbe``, if it has one
        self.speed = None

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def scaled(self, t0: float, seconds: float) -> float:
        """``seconds`` measured from ``t0`` on, at the reference speed
        (as measured, without a speed probe)."""
        if self.speed is None:
            return seconds
        return seconds * self.speed.scale(t0, t0 + seconds)

    def fresh_dir(self, name: str) -> str:
        path = self.path(f"{name}-{next(self._n)}")
        os.makedirs(path)
        return path

    def env(self, cache_dir: str, runs_dir: str) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = cache_dir
        env["REPRO_RUNS_DIR"] = runs_dir
        env["PYTHONPATH"] = SRC
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # scratch files (tempfile, SQLite) stay inside the checkout too
        env["TMPDIR"] = env["SQLITE_TMPDIR"] = self.root
        return env

    def spawn(self, spec: dict, env: dict, stdout_path: str) -> "Child":
        """Start ``child.py`` on ``spec``; returns the handle."""
        n = next(self._n)
        run_id = f"{spec.get('run_id', 'run')}-{n}"
        if spec.get("trace"):
            os.makedirs(OUT_ROOT, exist_ok=True)
        spec = dict(spec, src=SRC, result=self.path(f"result-{n}.json"),
                    spans=os.path.join(OUT_ROOT, f"spans-{run_id}.json"),
                    run_id=run_id)
        spec_path = self.path(f"spec-{n}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out = open(stdout_path, "wb")
        err = open(self.path(f"stderr-{n}.txt"), "wb")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path], env=env, cwd=ROOT,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        finally:
            out.close()
            err.close()
        self.procs.append(proc)
        return Child(proc, t_spawn, spec, stdout_path,
                     self.path(f"stderr-{n}.txt"))

    def run(self, spec: dict, env: dict, stdout_path: str) -> dict:
        """Spawn, wait, and return the child's result."""
        return self.spawn(spec, env, stdout_path).wait()

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


class Child:
    def __init__(self, proc, t_spawn, spec, stdout_path, stderr_path):
        self.proc = proc
        self.t_spawn = t_spawn
        self.spec = spec
        self.stdout_path = stdout_path
        self.stderr_path = stderr_path

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ChildError(f"{self.spec['run_id']}: no exit within "
                             f"{timeout:.0f}s") from None
        if code != 0 or not os.path.exists(self.spec["result"]):
            with open(self.stderr_path, encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise ChildError(f"{self.spec['run_id']}: exit {code}\n{tail}")
        with open(self.spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["t_spawn"] = self.t_spawn
        result["setup_s"] = result["t_ready"] - self.t_spawn
        with open(self.stdout_path, "rb") as fh:
            result["stdout"] = fh.read()
        return result
