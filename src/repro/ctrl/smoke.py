"""Streaming replay smoke harness: ``python -m repro.ctrl.smoke``.

Replays a chunk-stable :class:`~repro.workloads.source.SyntheticTraceSource`
of the requested size through :meth:`MemoryController.submit_source` and
reports one JSON line: bytes streamed, transactions, wall time, sustained
transactions/second, the replay's minor page faults and the peak RSS.

The point of being a *module* rather than test code: peak RSS
(``ru_maxrss``) is monotone over a process's lifetime, so a meaningful
"streaming stays flat" measurement needs a fresh process per trace size.
Both ``benchmarks/test_ctrl_streaming.py`` (RSS-independence and
throughput gates) and CI's ``streaming-smoke`` job (hard RSS ceiling on a
>= 64 MiB trace) run this module in a subprocess and parse the JSON.

``--rss-ceiling-mib`` turns the report into a gate: exit status 1 when
peak RSS exceeds the ceiling, which is how CI enforces bounded memory
without parsing anything.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from ..core.costs import CostModel
from ..workloads.source import DEFAULT_TRACE_CHUNK_BYTES, SyntheticTraceSource
from .controller import MemoryController

MIB = 1 << 20


def max_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / MIB
    return peak / 1024


def replay_stream(n_bytes: int, seed: int = 0x0DB1,
                  chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES,
                  channels: int = 16, byte_lanes: int = 8,
                  window: int = 16, backend: str = None) -> dict:
    """One bounded-memory replay; returns the measurement record."""
    source = SyntheticTraceSource(n_bytes, seed=seed,
                                  chunk_bytes=chunk_bytes)
    controller = MemoryController(channels=channels, byte_lanes=byte_lanes,
                                  model=CostModel.fixed(), window=window,
                                  backend=backend)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    controller.submit_source(source)
    stats = controller.flush()
    elapsed = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {
        "bytes_streamed": stats.bytes_written,
        "chunk_bytes": chunk_bytes,
        "transactions": stats.transactions,
        "beats": stats.beats,
        "channels": channels,
        "byte_lanes": byte_lanes,
        "window": window,
        "backend": controller.backend,
        "elapsed_s": round(elapsed, 3),
        "tx_per_s": round(stats.transactions / elapsed, 1),
        "minor_faults": faults,
        "max_rss_mib": round(max_rss_mib(), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ctrl.smoke",
        description="stream a synthetic trace through the write path and "
                    "report throughput + peak RSS as JSON")
    parser.add_argument("--mib", type=float, default=64.0,
                        help="trace size in MiB (default: 64)")
    parser.add_argument("--chunk-bytes", dest="chunk_bytes", type=int,
                        default=DEFAULT_TRACE_CHUNK_BYTES,
                        help="streaming chunk size "
                             f"(default: {DEFAULT_TRACE_CHUNK_BYTES})")
    parser.add_argument("--seed", type=int, default=0x0DB1)
    parser.add_argument("--channels", type=int, default=16)
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--window", type=int, default=16)
    parser.add_argument("--backend", default=None,
                        choices=["auto", "reference", "vector"])
    parser.add_argument("--rss-ceiling-mib", dest="rss_ceiling_mib",
                        type=float, default=None,
                        help="fail (exit 1) when peak RSS exceeds this")
    args = parser.parse_args(argv)

    record = replay_stream(int(args.mib * MIB), seed=args.seed,
                           chunk_bytes=args.chunk_bytes,
                           channels=args.channels, byte_lanes=args.lanes,
                           window=args.window, backend=args.backend)
    print(json.dumps(record, sort_keys=True))
    if (args.rss_ceiling_mib is not None
            and record["max_rss_mib"] > args.rss_ceiling_mib):
        print(f"peak RSS {record['max_rss_mib']} MiB exceeds the "
              f"{args.rss_ceiling_mib} MiB ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
