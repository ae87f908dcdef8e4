"""Controller write-path throughput — the batched path's acceptance gate.

Replays the same ``REPRO_BENCH_CTRL_TRANSACTIONS`` (default 10 000)
random cache-line transactions through :class:`MemoryController` on both
backends:

* **reference** — one per-byte :class:`StreamingOptimalEncoder` per
  (channel, lane): the executable specification (timed on a fraction of
  the workload and extrapolated linearly — it is linear in transactions
  by construction);
* **vector** — the batched write path: packed striping plus a
  window-parallel trellis that solves every lookahead window of a
  submitted batch at once.

The gate requires the vector path to be **>= 10x faster** at every
geometry, from the HBM-like 16-channel x 8-lane link down to the
GDDR-like 2-channel x 4-lane one, with bit-identical statistics on the
parity prefix.  Solving all windows at once keeps the arrays large even
on narrow links, so their speedup is of the same order as on wide ones.

Every run persists its measurements to ``BENCH_ctrl_throughput.json``
in the ``artifact_dir`` of ``conftest.py`` (``REPRO_BENCH_ARTIFACT_DIR``,
which CI's ``benchmark-trajectory`` job sets and uploads, else a pytest
temp dir).
"""

import os
import random
import time

import pytest

from conftest import emit, write_bench_artifact

from repro.core.costs import CostModel
from repro.ctrl.controller import CACHE_LINE_BYTES, MemoryController, WriteTransaction

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

#: Workload size of the gate.
BENCH_TRANSACTIONS = int(os.environ.get("REPRO_BENCH_CTRL_TRANSACTIONS",
                                        "10000"))

#: Required wall-clock advantage of the batched path at every geometry.
SPEEDUP_FLOOR = 10.0

#: The gated link geometries (channels, byte lanes).
GEOMETRIES = [
    (16, 8),  # HBM-like
    (8, 8),
    (2, 4),   # GDDR-like
]

#: Streaming-encoder lookahead used by both paths.
WINDOW = 16

#: The reference is timed on 1/N of the workload and extrapolated.
REFERENCE_FRACTION = 10

ARTIFACT_NAME = "BENCH_ctrl_throughput.json"


def _transactions(count):
    rng = random.Random(0x0DB1)
    return [WriteTransaction(
        index * CACHE_LINE_BYTES,
        bytes(rng.getrandbits(8) for _ in range(CACHE_LINE_BYTES)))
        for index in range(count)]


def _replay(backend, transactions, channels, byte_lanes):
    controller = MemoryController(channels=channels, byte_lanes=byte_lanes,
                                  model=CostModel.fixed(), window=WINDOW,
                                  backend=backend)
    start = time.perf_counter()
    controller.submit(transactions)
    stats = controller.flush()
    return time.perf_counter() - start, stats


def _measure(transactions, channels, byte_lanes):
    prefix = transactions[:len(transactions) // REFERENCE_FRACTION]
    t_reference, reference_stats = _replay("reference", prefix, channels,
                                           byte_lanes)
    t_reference *= REFERENCE_FRACTION
    t_vector, _stats = _replay("vector", transactions, channels, byte_lanes)
    # Bit-identity is checked on exactly the transactions the reference
    # replayed.
    _t, parity_stats = _replay("vector", prefix, channels, byte_lanes)
    assert (parity_stats.zeros, parity_stats.transitions,
            parity_stats.beats) == (reference_stats.zeros,
                                    reference_stats.transitions,
                                    reference_stats.beats)
    return {
        "channels": channels,
        "byte_lanes": byte_lanes,
        "n_transactions": len(transactions),
        "window": WINDOW,
        "reference_s": round(t_reference, 4),
        "reference_extrapolated": True,
        "vector_s": round(t_vector, 4),
        "speedup": round(t_reference / t_vector, 1),
    }


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="the batched write path requires NumPy")
def test_ctrl_throughput_gate(artifact_dir):
    transactions = _transactions(BENCH_TRANSACTIONS)
    rows = [_measure(transactions, channels, byte_lanes)
            for channels, byte_lanes in GEOMETRIES]
    # The streaming bench shares this artifact; its "streaming" section
    # survives this test rewriting its own keys.
    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME, {
        "schema": "repro.bench/ctrl_throughput/1",
        "n_transactions": BENCH_TRANSACTIONS,
        "speedup_floor": SPEEDUP_FLOOR,
        "geometries": rows,
    })

    lines = [
        f"| {row['channels']}ch x {row['byte_lanes']} lanes "
        f"| ref {row['reference_s']:.2f}s* "
        f"| vector {row['vector_s']:.3f}s ({row['speedup']:.0f}x) "
        f"| GATED >= {SPEEDUP_FLOOR}x |"
        for row in rows
    ]
    emit(f"controller write-path throughput at {BENCH_TRANSACTIONS} "
         f"transactions (artifact: {path})", "\n".join(lines)
         + "\n(* = reference time extrapolated from "
         f"1/{REFERENCE_FRACTION} of the workload)")

    for row in rows:
        assert row["speedup"] >= SPEEDUP_FLOOR, row
