"""Disk-cache warm path — the experiment service's acceptance gate.

Runs the paper's alpha sweep over ``REPRO_BENCH_SERVICE_SAMPLES``
(default 10 000) random bursts twice against one
:class:`~repro.service.diskcache.DiskActivityCache` directory:

* **cold** — an empty cache directory: every grid cell encodes the full
  population and publishes its totals to disk;
* **warm** — a *fresh* cache instance over the same directory (the
  memory tier starts empty, exactly like a new process — say, a daemon
  restart or another machine's run on a shared directory): every cell
  must come back from disk without a single encode.

The gate requires the warm run to be **>= 5x faster** in wall-clock
with bit-identical series and totals.  A third, ungated row reports the
same query served from the already-populated memory tier (the steady
state of a long-running ``repro serve`` daemon).

Every run persists its measurements to ``BENCH_service.json`` in the
``artifact_dir`` of ``conftest.py`` (``REPRO_BENCH_ARTIFACT_DIR``, which
CI's ``benchmark-trajectory`` job sets and uploads, else a pytest temp
dir).
"""

import os
import tempfile
import time

from conftest import emit, write_bench_artifact

from repro.service.diskcache import DiskActivityCache
from repro.service.faults import FaultPlan, FaultyCache
from repro.sim.experiments import alpha_experiment, run_experiment
from repro.workloads.population import RandomPopulation

#: Population size of the gate (the paper's figures use 10 000 bursts).
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SERVICE_SAMPLES", "10000"))

#: Alpha-sweep resolution (one OPT encode of the population per ratio).
BENCH_POINTS = int(os.environ.get("REPRO_BENCH_SERVICE_POINTS", "13"))

#: Required wall-clock advantage of the warm disk-cache path.
SPEEDUP_FLOOR = 5.0

#: Ceiling on what the fault-tolerance instrumentation (health counters,
#: degradation checks, an idle chaos wrapper) may add to the warm path.
OVERHEAD_CEILING = 0.05

#: Absolute slack under the relative ceiling — sub-millisecond timing
#: noise must not fail the gate on very fast warm runs.
OVERHEAD_SLACK_S = 0.002

ARTIFACT_NAME = "BENCH_service.json"

#: The keys both tests write into the shared service artifact.
ARTIFACT_HEADER = {"schema": "repro.bench/service_cache/1",
                   "samples": BENCH_SAMPLES, "points": BENCH_POINTS,
                   "speedup_floor": SPEEDUP_FLOOR}


def _timed_run(spec, cache):
    start = time.perf_counter()
    result = run_experiment(spec, cache=cache)
    return time.perf_counter() - start, result


def test_service_cache_warm_gate(artifact_dir):
    spec = alpha_experiment(
        RandomPopulation(count=BENCH_SAMPLES, seed=0x0DB1),
        points=BENCH_POINTS, include_fixed=True)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as scratch:
        cold_s, cold = _timed_run(spec, DiskActivityCache(scratch))
        assert cold.provenance["encodes"] > 0

        # A fresh instance simulates a new process sharing the directory.
        warm_cache = DiskActivityCache(scratch)
        warm_s, warm = _timed_run(spec, warm_cache)
        assert warm.provenance["encodes"] == 0
        assert warm.series == cold.series
        assert warm.totals == cold.totals

        # Steady state: the same instance now serves from memory.
        memory_s, memory = _timed_run(spec, warm_cache)
        assert memory.series == cold.series

        entries = len(warm_cache)

    speedup = cold_s / warm_s
    rows = [
        {"tier": "cold (encode + publish)", "seconds": round(cold_s, 4),
         "encodes": cold.provenance["encodes"], "gated": False},
        {"tier": "warm (disk, fresh process)", "seconds": round(warm_s, 4),
         "encodes": 0, "speedup": round(speedup, 1), "gated": True},
        {"tier": "warm (memory, steady state)", "seconds": round(memory_s, 4),
         "encodes": 0, "speedup": round(cold_s / memory_s, 1),
         "gated": False},
    ]
    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME,
                                {**ARTIFACT_HEADER, "runs": rows})

    lines = [
        f"| {row['tier']} | {row['seconds']:.3f}s "
        f"| {row.get('speedup', '-')}x "
        f"| {'GATED >= ' + str(SPEEDUP_FLOOR) + 'x' if row['gated'] else 'reported'} |"
        for row in rows
    ]
    emit(f"disk-cache alpha sweep at {BENCH_SAMPLES} bursts x "
         f"{BENCH_POINTS} ratios, {entries} cache entries "
         f"(artifact: {path})", "\n".join(lines))

    assert speedup >= SPEEDUP_FLOOR, (
        f"warm disk-cache run only {speedup:.1f}x faster than cold "
        f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s)")


def test_instrumentation_overhead_gate(artifact_dir):
    """Health counters + an idle chaos wrapper must stay under 5% warm.

    Times the warm (all cache hits) sweep twice, best-of-N each: once
    against the plain :class:`DiskActivityCache`, once against the same
    cache wrapped in a :class:`FaultyCache` with an *empty* fault plan —
    the full fault-tolerance bookkeeping with zero faults firing, i.e.
    the production steady state.  Gated at ``OVERHEAD_CEILING`` relative
    (plus a small absolute slack for timer noise).
    """
    spec = alpha_experiment(
        RandomPopulation(count=BENCH_SAMPLES, seed=0x0DB1),
        points=BENCH_POINTS, include_fixed=True)
    repeats = 5

    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as scratch:
        plain = DiskActivityCache(scratch)
        run_experiment(spec, cache=plain)  # populate disk + memory tiers

        plain_s = min(_timed_run(spec, plain)[0] for __ in range(repeats))
        wrapped_cache = FaultyCache(plain, FaultPlan({}, label="idle"))
        wrapped_runs = [_timed_run(spec, wrapped_cache)
                        for __ in range(repeats)]
        wrapped_s = min(seconds for seconds, __ in wrapped_runs)
        baseline = run_experiment(spec, cache=DiskActivityCache(scratch))
        for __, result in wrapped_runs:
            assert result.series == baseline.series
        assert wrapped_cache.injected == {}  # the idle plan fired nothing

    overhead = wrapped_s / plain_s - 1.0
    budget_s = plain_s * OVERHEAD_CEILING + OVERHEAD_SLACK_S
    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME, {
        **ARTIFACT_HEADER, "instrumentation": {
            "plain_warm_s": round(plain_s, 5),
            "instrumented_warm_s": round(wrapped_s, 5),
            "overhead_fraction": round(overhead, 4),
            "ceiling": OVERHEAD_CEILING,
            "slack_s": OVERHEAD_SLACK_S,
            "gated": True,
        }})
    emit(f"fault-tolerance instrumentation on the warm sweep "
         f"(best of {repeats}, artifact: {path})",
         f"| plain warm | {plain_s:.4f}s | baseline |\n"
         f"| instrumented warm | {wrapped_s:.4f}s "
         f"| {overhead * 100:+.1f}% (gated < {OVERHEAD_CEILING * 100:.0f}%) |")

    assert wrapped_s - plain_s <= budget_s, (
        f"instrumented warm sweep {wrapped_s:.4f}s vs plain {plain_s:.4f}s "
        f"({overhead * 100:+.1f}%) exceeds the "
        f"{OVERHEAD_CEILING * 100:.0f}% + {OVERHEAD_SLACK_S * 1000:.0f}ms "
        "budget")
