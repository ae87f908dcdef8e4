"""Fault-injection throughput — the batched fault engine's acceptance gate.

Injects ``REPRO_BENCH_FAULT_BURSTS`` x ``FAULTS_PER_BURST`` (default
10 000 x 10) uniform single-lane faults into DBI-OPT encoded bursts on
both backends:

* **reference** — :func:`repro.extensions.reliability.fault_sweep`: one
  Python decode per injected fault (timed on a fraction of the workload
  and extrapolated linearly — it is linear in faults by construction);
* **batched** — :func:`fault_sweep_batch`: the same fault draws and no
  encode.  The DBI bit always describes what was sent, so a data-lane
  fault decodes to one wrong bit and a DBI-lane fault to eight whatever
  the wire word; the sweep counts its DBI-lane draws.

The gate requires the batched engine, with NumPy installed as on
this CI job, to be **>= 10x faster**, with bit-identical statistics on
the parity prefix.  A coverage-curve row (multi-lane faults at the
default rate grid) is reported for context.

Every run persists its measurements to ``BENCH_reliability.json`` in
the ``artifact_dir`` of ``conftest.py`` (``REPRO_BENCH_ARTIFACT_DIR``,
which CI's ``benchmark-trajectory`` job sets and uploads, else a pytest
temp dir).
"""

import os
import time

import pytest

from conftest import emit, write_bench_artifact

from repro.core.schemes import get_scheme
from repro.extensions.reliability import (
    DEFAULT_FAULT_RATES,
    fault_coverage_curve,
    fault_sweep,
    fault_sweep_batch,
)
from repro.workloads.population import RandomPopulation

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

#: Workload size of the gate.
BENCH_BURSTS = int(os.environ.get("REPRO_BENCH_FAULT_BURSTS", "10000"))

FAULTS_PER_BURST = 10
SEED = 7

#: Required wall-clock advantage of the batched engine.
SPEEDUP_FLOOR = 10.0

#: The reference is timed on 1/N of the workload and extrapolated.
REFERENCE_FRACTION = 10

#: Both paths are timed best-of-N so one scheduler hiccup cannot flip
#: the gate (the standard guard for a wall-clock ratio assertion).
TIMING_REPS = 3

ARTIFACT_NAME = "BENCH_reliability.json"


def _best_of(reps, fn):
    """Minimum wall-clock seconds over *reps* calls of *fn*."""
    return min(_timed(fn) for _ in range(reps))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="the gate is set for the NumPy install")
def test_fault_injection_throughput_gate(artifact_dir):
    bursts = RandomPopulation(count=BENCH_BURSTS, seed=0x0DB1).bursts()
    scheme = get_scheme("dbi-opt")
    prefix = bursts[:BENCH_BURSTS // REFERENCE_FRACTION]

    reference_stats = fault_sweep(scheme, prefix,
                                  faults_per_burst=FAULTS_PER_BURST,
                                  seed=SEED)
    t_reference = REFERENCE_FRACTION * _best_of(
        TIMING_REPS,
        lambda: fault_sweep(scheme, prefix,
                            faults_per_burst=FAULTS_PER_BURST, seed=SEED))

    # Bit-identity on exactly the faults the reference injected.
    assert fault_sweep_batch(scheme, prefix,
                             faults_per_burst=FAULTS_PER_BURST,
                             seed=SEED) == reference_stats

    stats = fault_sweep_batch(scheme, bursts,
                              faults_per_burst=FAULTS_PER_BURST, seed=SEED)
    elapsed = _best_of(
        TIMING_REPS,
        lambda: fault_sweep_batch(scheme, bursts,
                                  faults_per_burst=FAULTS_PER_BURST,
                                  seed=SEED))
    assert stats.injected_faults == BENCH_BURSTS * FAULTS_PER_BURST
    row = {
        "batch_s": round(elapsed, 4),
        "speedup": round(t_reference / elapsed, 1),
        "faults_per_second": round(stats.injected_faults / elapsed),
        "mean_amplification": round(stats.mean_amplification, 4),
    }

    start = time.perf_counter()
    curve = fault_coverage_curve(scheme, bursts, rates=DEFAULT_FAULT_RATES,
                                 seed=SEED)
    t_curve = time.perf_counter() - start

    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME, {
        "schema": "repro.bench/reliability/1",
        "n_bursts": BENCH_BURSTS,
        "faults_per_burst": FAULTS_PER_BURST,
        "speedup_floor": SPEEDUP_FLOOR,
        "reference_s": round(t_reference, 4),
        "reference_extrapolated": True,
        "sweep": row,
        "coverage_curve": {
            "rates": list(DEFAULT_FAULT_RATES),
            "elapsed_s": round(t_curve, 4),
            "injected_faults": sum(point.injected_faults
                                   for point in curve),
        },
    })

    line = (f"| batched | {row['batch_s']:.3f}s "
            f"({row['speedup']:.0f}x, {row['faults_per_second']:,} "
            f"faults/s) | GATED >= {SPEEDUP_FLOOR}x |")
    emit(f"batched fault injection at {BENCH_BURSTS} bursts x "
         f"{FAULTS_PER_BURST} faults (artifact: {path})",
         f"reference {t_reference:.2f}s* \n" + line
         + f"\ncoverage curve ({len(DEFAULT_FAULT_RATES)} rates): "
         f"{t_curve:.3f}s"
         + "\n(* = reference time extrapolated from "
         f"1/{REFERENCE_FRACTION} of the workload)")

    assert row["speedup"] >= SPEEDUP_FLOOR, row
