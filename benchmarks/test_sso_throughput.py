"""SSO-tally throughput — the word-parallel phy layer's acceptance gate.

Tallies the per-beat switching statistics of ``REPRO_BENCH_SSO_BURSTS``
(default 10 000) DBI-OPT encoded bursts on both engines:

* **reference** — :func:`repro.analysis.sso.sso_of_scheme`: one Python
  XOR + popcount per beat (timed on a fraction of the workload and
  extrapolated linearly — it is linear in beats by construction);
* **word-parallel** — :func:`sso_of_scheme_batch`: one
  ``batch_flags`` encode, transition words packed into bit planes, the
  histogram read off carry-save counter planes with popcounts.

The gate requires the word-parallel engine, with NumPy installed as on
this CI job, to be **>= 10x faster**, with bit-identical statistics on
the parity prefix.  A batched :class:`repro.phy.bus.MemoryBus` write row
is reported for context: each lane's burst train is one chained vector
encode (two DBI-OPT solves of every burst and one chain scan), tallied
array-at-a-time into the per-wire counters.

Every run persists its measurements to ``BENCH_phy_sso.json`` in the
``artifact_dir`` of ``conftest.py`` (``REPRO_BENCH_ARTIFACT_DIR``, which
CI's ``benchmark-trajectory`` job sets and uploads, else a pytest temp
dir).
"""

import os
import time

import pytest

from conftest import emit, write_bench_artifact

from repro.analysis.sso import sso_of_scheme, sso_of_scheme_batch
from repro.core.schemes import get_scheme
from repro.phy.bus import MemoryBus
from repro.workloads.population import RandomPopulation

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

#: Workload size of the gate.
BENCH_BURSTS = int(os.environ.get("REPRO_BENCH_SSO_BURSTS", "10000"))

#: Required wall-clock advantage of the word-parallel engine.
SPEEDUP_FLOOR = 10.0

#: The reference is timed on 1/N of the workload and extrapolated.
REFERENCE_FRACTION = 10

#: Both paths are timed best-of-N so one scheduler hiccup cannot flip
#: the gate (the standard guard for a wall-clock ratio assertion).
TIMING_REPS = 3

ARTIFACT_NAME = "BENCH_phy_sso.json"


def _best_of(reps, fn):
    """Minimum wall-clock seconds over *reps* calls of *fn*."""
    return min(_timed(fn) for _ in range(reps))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="the gate is set for the NumPy install")
def test_sso_throughput_gate(artifact_dir):
    bursts = RandomPopulation(count=BENCH_BURSTS, seed=0x0DB1).bursts()
    scheme = get_scheme("dbi-opt")
    prefix = bursts[:BENCH_BURSTS // REFERENCE_FRACTION]

    reference_stats = sso_of_scheme(scheme, prefix)
    t_reference = REFERENCE_FRACTION * _best_of(
        TIMING_REPS, lambda: sso_of_scheme(scheme, prefix))

    # Bit-identity (histogram, max, total) on the parity prefix.
    assert sso_of_scheme_batch(scheme, prefix) == reference_stats

    stats = sso_of_scheme_batch(scheme, bursts)
    elapsed = _best_of(TIMING_REPS,
                       lambda: sso_of_scheme_batch(scheme, bursts))
    assert stats.beats == sum(len(burst) for burst in bursts)
    row = {
        "batch_s": round(elapsed, 4),
        "speedup": round(t_reference / elapsed, 1),
        "beats_per_second": round(stats.beats / elapsed),
        "max_switching": stats.max_switching,
        "mean_switching": round(stats.mean_switching, 4),
    }

    # Context row: the same word-parallel layer behind MemoryBus.write.
    payload = bytes(byte for burst in bursts for byte in burst)
    bus = MemoryBus(lambda: get_scheme("dbi-opt"), byte_lanes=4,
                    burst_length=8, backend="vector")
    t_bus = _best_of(TIMING_REPS, lambda: bus.write(payload))

    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME, {
        "schema": "repro.bench/phy_sso/1",
        "n_bursts": BENCH_BURSTS,
        "beats": reference_stats.beats * REFERENCE_FRACTION,
        "speedup_floor": SPEEDUP_FLOOR,
        "reference_s": round(t_reference, 4),
        "reference_extrapolated": True,
        "tally": row,
        "bus_write": {
            "payload_bytes": len(payload),
            "byte_lanes": 4,
            "elapsed_s": round(t_bus, 4),
        },
    })

    line = (f"| word-parallel | {row['batch_s']:.3f}s "
            f"({row['speedup']:.0f}x, {row['beats_per_second']:,} "
            f"beats/s) | GATED >= {SPEEDUP_FLOOR}x |")
    emit(f"word-parallel SSO tally at {BENCH_BURSTS} bursts "
         f"(artifact: {path})",
         f"reference {t_reference:.2f}s* \n" + line
         + f"\nbatched MemoryBus.write of {len(payload):,} bytes: "
         f"{t_bus:.3f}s"
         + "\n(* = reference time extrapolated from "
         f"1/{REFERENCE_FRACTION} of the workload)")

    assert row["speedup"] >= SPEEDUP_FLOOR, row
