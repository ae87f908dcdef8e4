"""Shared configuration for the figure/table benchmarks.

Each benchmark module regenerates one table or figure of the paper,
prints the rows/series it reports, and asserts the qualitative shape
(orderings, crossovers, gain magnitudes).  Population sizes default to a
laptop-friendly fraction of the paper's 10 000 bursts; set
``REPRO_BENCH_SAMPLES`` to override (e.g. 10000 for the full-scale run).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Mapping

import pytest

try:
    from repro.workloads.random_data import random_bursts
except ImportError:  # NumPy missing
    random_bursts = None

# Every figure bench draws its population from the NumPy-backed workload
# generators, and several bench modules import repro.workloads at module
# scope — without NumPy, keep pytest from importing them at all instead
# of erroring during collection.
collect_ignore_glob = [] if random_bursts is not None else ["test_*.py"]

#: Number of random bursts used by the figure sweeps.
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "2000"))


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory) -> pathlib.Path:
    """Where the throughput benches write their ``BENCH_*.json`` files.

    ``REPRO_BENCH_ARTIFACT_DIR`` when set (CI's ``benchmark-trajectory``
    job sets it and uploads the files as its ``bench-perf-trajectory``
    artifact); otherwise a directory in the pytest session's temp area,
    so a plain test run writes nothing into the checkout.
    Session-scoped, so benches that share one artifact read and update
    the same file (through :func:`write_bench_artifact`).
    """
    configured = os.environ.get("REPRO_BENCH_ARTIFACT_DIR")
    if configured:
        return pathlib.Path(configured)
    return tmp_path_factory.mktemp("bench-artifacts")


@pytest.fixture(scope="session")
def population():
    """The Monte-Carlo burst population shared by all figure benches."""
    return random_bursts(count=BENCH_SAMPLES, seed=0x0DB1)


def write_bench_artifact(directory: pathlib.Path, name: str,
                         sections: Mapping[str, object]) -> pathlib.Path:
    """Read-modify-write ``directory/name``: set the top-level *sections*
    and keep every other key, so benches sharing one file keep each
    other's sections.  Returns the path."""
    path = directory / name
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        payload = {}
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit(title: str, body: str) -> None:
    """Print a labelled block that survives pytest's capture with -s."""
    print(f"\n===== {title} =====")
    print(body)
