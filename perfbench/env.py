"""Pinned environment, child processes and the result stamp.

Every program process the benchmark starts runs with ``PYTHONPATH``
pointing at the checkout's ``src`` and with any ``REPRO_*`` override of
the caller's shell removed, so a developer's ``REPRO_BACKEND`` or
``REPRO_CACHE_DIR`` cannot change what is measured.  Scratch files go to
``.perfbench_tmp`` inside the checkout and are removed when the run ends.
"""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
TMP = os.path.join(ROOT, ".perfbench_tmp")

#: Variables removed from every child environment (besides ``REPRO_*``).
_CLEARED = ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONOPTIMIZE")

#: BLAS thread pools held to one thread, so no workload runs more
#: threads than the benchmark itself starts.
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in _CLEARED}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    for key in _ONE_THREAD:
        env[key] = "1"
    return env


def pin_process() -> None:
    """Apply :func:`child_env` to this process and import from ``src``."""
    pinned = child_env()
    for key in list(os.environ):
        if key not in pinned:
            del os.environ[key]
    os.environ.update(pinned)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def have_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def make_tmp() -> str:
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    return TMP


def remove_tmp() -> None:
    shutil.rmtree(TMP, ignore_errors=True)


class Child:
    """One program process, reaped with ``wait4`` for its own peak RSS."""

    def __init__(self, argv: Sequence[str], stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.start = time.monotonic()
        self.process = subprocess.Popen(list(argv), env=child_env(),
                                        cwd=ROOT, stdout=stdout,
                                        stderr=stderr)
        self.returncode: Optional[int] = None
        self.end: Optional[float] = None
        self.maxrss_mib = 0.0

    def wait(self, timeout: float) -> int:
        """Reap the process (killed after *timeout* seconds)."""
        timer = threading.Timer(timeout, self.process.kill)
        timer.start()
        try:
            __, status, usage = os.wait4(self.process.pid, 0)
        finally:
            timer.cancel()
        self.end = time.monotonic()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.process.returncode = self.returncode
        self.maxrss_mib = usage.ru_maxrss / 1024.0
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()
        return self.returncode

    def interrupt(self) -> None:
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_python(args: Sequence[str], timeout: float = 120.0,
               stdout=subprocess.DEVNULL) -> Child:
    child = Child(python_argv(*args), stdout=stdout)
    child.wait(timeout)
    return child


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp() -> Dict[str, object]:
    """Where and with what a result was measured."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "none"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git_sha": _git_sha(),
            "loadavg": [round(value, 2) for value in os.getloadavg()]}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
