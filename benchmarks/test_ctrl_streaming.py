"""Streaming write-path gate: sustained tx/s with trace-size-independent RSS.

Replays a ``REPRO_BENCH_STREAM_MIB`` MiB (default 64) synthetic trace
through :meth:`MemoryController.submit_source` at the gated HBM-like
16-channel x 8-lane geometry, plus a quarter-size control run.  Each
replay happens in a **fresh subprocess** (``python -m repro.ctrl.smoke``)
because ``ru_maxrss`` is a per-process high-water mark — only a clean
process gives a trustworthy peak for one trace size.

Two gates:

* **throughput** — the full-size replay must sustain at least
  ``TXS_FLOOR`` transactions/second (``python -m repro.ctrl.smoke --mib
  16`` measured 435k–671k tx/s in three runs on a 2-core Xeon host, and
  this gate's full replay 448k–584k tx/s in five runs; the floor is
  under a third of the slowest, room for noisy CI hosts that still
  fails a several-fold slowdown);
* **bounded memory** — peak RSS of the full run may exceed the
  quarter-size run's by at most ``RSS_MARGIN_MIB``.  A replay that
  materialised the trace would grow by at least the 3/4-trace size
  difference (48 MiB at the default), an order of magnitude above the
  margin.

Results extend ``BENCH_ctrl_throughput.json`` in ``conftest.py``'s
``artifact_dir`` under a ``"streaming"`` key (read-modify-write, so the
throughput bench's sections survive).
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import emit, write_bench_artifact

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

MIB = 1 << 20

#: Full-size trace of the gate, in MiB (CI runs the default 64).
STREAM_MIB = float(os.environ.get("REPRO_BENCH_STREAM_MIB", "64"))

#: Sustained throughput floor for the full-size replay.
TXS_FLOOR = float(os.environ.get("REPRO_BENCH_STREAM_TXS_FLOOR", "100000"))

#: Allowed peak-RSS growth between the quarter- and full-size replays.
RSS_MARGIN_MIB = 32.0

#: Absolute backstop — no streaming replay should ever come near this.
RSS_CEILING_MIB = 512.0

ARTIFACT_NAME = "BENCH_ctrl_throughput.json"


def _launch(mib):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.ctrl.smoke", "--mib", str(mib),
         "--rss-ceiling-mib", str(RSS_CEILING_MIB)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _collect(process):
    stdout, stderr = process.communicate(timeout=1800)
    assert process.returncode == 0, stderr
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="the batched write path requires NumPy")
def test_streaming_rss_and_throughput_gate(artifact_dir):
    # Both subprocesses run concurrently: wall time tracks the full-size
    # replay, and each still owns its ru_maxrss high-water mark.
    full_proc = _launch(STREAM_MIB)
    quarter_proc = _launch(STREAM_MIB / 4)
    full = _collect(full_proc)
    quarter = _collect(quarter_proc)

    rss_growth = full["max_rss_mib"] - quarter["max_rss_mib"]
    section = {
        "stream_mib": STREAM_MIB,
        "txs_floor": TXS_FLOOR,
        "rss_margin_mib": RSS_MARGIN_MIB,
        "rss_growth_mib": round(rss_growth, 1),
        "full": full,
        "quarter": quarter,
    }
    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME,
                                {"streaming": section})

    emit(f"streaming replay at {STREAM_MIB:g} MiB (artifact: {path})",
         f"| full | {full['transactions']} tx in {full['elapsed_s']}s "
         f"({full['tx_per_s']:.0f} tx/s) | RSS {full['max_rss_mib']} MiB "
         f"| {full['minor_faults']} minor faults |\n"
         f"| quarter | {quarter['transactions']} tx in "
         f"{quarter['elapsed_s']}s ({quarter['tx_per_s']:.0f} tx/s) "
         f"| RSS {quarter['max_rss_mib']} MiB "
         f"| {quarter['minor_faults']} minor faults |\n"
         f"RSS growth {rss_growth:+.1f} MiB over a "
         f"{STREAM_MIB * 3 / 4:g} MiB trace-size increase "
         f"(margin {RSS_MARGIN_MIB:g} MiB, floor {TXS_FLOOR:g} tx/s)")

    assert full["bytes_streamed"] == int(STREAM_MIB * MIB)
    assert full["tx_per_s"] >= TXS_FLOOR, section
    assert rss_growth < RSS_MARGIN_MIB, section
