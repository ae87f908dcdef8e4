"""Host-speed calibration for the CPU-bound workloads.

A shared host's vCPUs change speed by up to half over seconds (other
tenants, hypervisor preemption), which moves every wall time with them.
``cli-cold``, the replays and every set-up therefore time fixed
calibration tasks right before and after every operation, on the same
CPU (``service-mixed``: between its loop windows), and report the operation's time divided by the host's *slowness*:
how much longer than its reference time the task took.  A program change moves the scaled
time exactly as it moves the raw one; a host slowdown moves both the
operation and the task, and cancels.  No task runs code of the program:

* :func:`loop_slowness` — a loop of small NumPy calls, the mix of
  interpreter and NumPy call overhead the replays spend their time in;
* :func:`cpu_slowness` — for the daemon's request handling: the
  geometric mean of that loop and a pure interpreter loop;
* :func:`host_slowness` — for whole CLI processes: the geometric mean of
  both loops and a fresh interpreter importing NumPy and a few stdlib
  packages (start-up and import work).
"""

from __future__ import annotations

import os
import time
from typing import Sequence

import env

NUMPY_LOOPS = 600
#: NumPy loop time on the reference host, seconds.
NUMPY_REFERENCE_S = 0.0045

PYTHON_LOOPS = 300_000
#: Interpreter loop time on the reference host, seconds.
PYTHON_REFERENCE_S = 0.016

PROCESS_IMPORTS = ("numpy, json, argparse, decimal, email.parser, "
                   "http.client, xml.dom.minidom")
#: Fresh-interpreter import time on the reference host, seconds.
PROCESS_REFERENCE_S = 0.2


def _numpy_loop() -> float:
    import numpy as np

    left = np.arange(128, dtype=np.int64).reshape(8, 16)
    right = left[::-1].copy()
    start = time.perf_counter()
    for __ in range(NUMPY_LOOPS):
        low = np.minimum(left + 3, right)
        picked = np.where(low > 5, left, right)
        (picked ^ left).sum(axis=1)
    return time.perf_counter() - start


def _python_loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(PYTHON_LOOPS):
        total += value
    return time.perf_counter() - start


def loop_slowness() -> float:
    """Host slowness seen by the NumPy loop (1.0 = reference host)."""
    return _numpy_loop() / NUMPY_REFERENCE_S


def cpu_slowness() -> float:
    """Host slowness for in-process compute: the geometric mean of the
    NumPy loop and the interpreter loop (1.0 = reference host)."""
    numpy_loop = min(_numpy_loop() for __ in range(3))
    python_loop = min(_python_loop() for __ in range(2))
    return (numpy_loop / NUMPY_REFERENCE_S
            * python_loop / PYTHON_REFERENCE_S) ** 0.5


def host_slowness() -> float:
    """Host slowness for whole processes (1.0 = reference host)."""
    process = env.run_python(["-c", f"import {PROCESS_IMPORTS}"]).wall_s
    numpy_loop = min(_numpy_loop() for __ in range(3))
    python_loop = min(_python_loop() for __ in range(2))
    return (process / PROCESS_REFERENCE_S * numpy_loop / NUMPY_REFERENCE_S
            * python_loop / PYTHON_REFERENCE_S) ** (1 / 3)


def scaled(raw_s: float, slowness: Sequence[float]) -> float:
    """*raw_s* on the reference host, from the samples around it.

    The least slow sample stands for the host's speed: preemption only
    ever adds time to a sample.
    """
    return raw_s / min(slowness)


def scaled_between(raw_s: float, before: float, after: float) -> float:
    """*raw_s* on the reference host, from :func:`host_slowness` samples
    taken right before and right after it.

    Each sample is already the least slow of repeated tasks, so the
    host's speed during the operation is taken as midway between them
    (geometric mean): the host often changes speed within a
    seconds-long operation.
    """
    return raw_s / (before * after) ** 0.5


def pin_one_cpu() -> None:
    """Run this process and its children on one CPU, so the samples
    measure the CPU the operation ran on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
