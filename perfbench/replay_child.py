"""One fresh-process streaming replay; writes its measurements as JSON.

Run by ``run.py`` as ``python perfbench/replay_child.py --workload W
--seed N --out FILE --tmp DIR --mode setup|timed|plain|traced``.
Set-up (imports, trace generation, controller construction) ends at the
``ready`` timestamp, where a ``setup`` run stops.  The replay itself
streams the trace through ``MemoryController.submit_source``.  A
``timed`` replay times every chunk from the moment the controller asks
for it to the moment it asks for the next one, with host-slowness
samples in between; ``plain`` and ``traced`` replays hand the source
over as it is, so neither the chunk timer nor its calibration work
lands in a span or in the overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import calib
import inputs
import spans

#: Modules a traced replay wraps (the CLI and service are not loaded).
TRACED_MODULES = ("repro.core.streaming", "repro.ctrl.controller",
                  "repro.ctrl.adaptive", "repro.workloads.source")


class ChunkTimer:
    """A trace source proxy that records the wall time of every chunk,
    with a host-slowness sample before the first chunk and after each."""

    def __init__(self, source) -> None:
        self.source = source
        self.ops = []
        self.slowness = [calib.loop_slowness()]

    def chunks(self):
        last = time.perf_counter()
        for chunk in self.source.chunks():
            yield chunk
            self.ops.append(time.perf_counter() - last)
            self.slowness.append(calib.loop_slowness())
            last = time.perf_counter()


def build(workload: str, seed: int, tmp: str, backend: str = "vector"):
    """``(controller, source, tracker)`` for one replay workload."""
    from repro.core.costs import CostModel
    from repro.ctrl.adaptive import OperatingPoint, TrackingConfig
    from repro.ctrl.controller import MemoryController
    from repro.phy.power import GBPS, PICOFARAD
    from repro.workloads.source import FileTraceSource, SyntheticTraceSource

    if workload == "replay-wide":
        params = inputs.WIDE
        source = SyntheticTraceSource(params["trace_bytes"],
                                      seed=inputs.wide_trace_seed(seed),
                                      chunk_bytes=params["chunk_bytes"])
        controller = MemoryController(
            channels=params["channels"], byte_lanes=params["byte_lanes"],
            model=CostModel.fixed(), window=params["window"],
            backend=backend)
        return controller, source, None
    params = inputs.NARROW
    path = os.path.join(tmp, f"narrow-{os.getpid()}.bin")
    with open(path, "wb") as handle:
        handle.write(inputs.phased_trace(seed))
    source = FileTraceSource(path, chunk_bytes=params["chunk_bytes"])
    tracker = TrackingConfig(points=tuple(
        OperatingPoint(interface=name, data_rate_hz=gbps * GBPS,
                       c_load_farads=params["c_load_pf"] * PICOFARAD)
        for name, gbps in params["points"])).build()
    controller = MemoryController(
        channels=params["channels"], byte_lanes=params["byte_lanes"],
        window=params["window"], backend=backend, tracker=tracker)
    return controller, source, tracker


MODES = ("setup", "timed", "plain", "traced")


def replay(workload: str, seed: int, tmp: str, mode: str = "plain",
           backend: str = "vector") -> dict:
    traced = mode == "traced"
    tracer = spans.Tracer()
    restore = spans.install(tracer, TRACED_MODULES) if traced else None
    controller, source, tracker = build(workload, seed, tmp, backend)
    ready = time.monotonic()
    if mode == "setup":
        return {"ready_monotonic": ready}
    timer = ChunkTimer(source) if mode == "timed" else None
    controller.submit_source(timer or source)
    stats = controller.flush()
    record = {
        "ready_monotonic": ready,
        "bytes": stats.bytes_written, "transactions": stats.transactions,
        "zeros": stats.zeros, "transitions": stats.transitions,
        "beats": stats.beats,
        "switches": ([list(entry) for entry in tracker.switches]
                     if tracker is not None else []),
    }
    if timer is not None:
        record["ops_s"] = timer.ops
        record["slowness"] = timer.slowness
    if traced:
        restore()
        layers = spans.layer_metrics(tracer.summary(), tracer.counts)
        if tracker is not None:
            layers["ctrl.AdaptiveCostTracker.switches"] = len(
                tracker.switches)
        record["layers"] = layers
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("replay-wide", "replay-narrow-tracked"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    args = parser.parse_args()
    record = replay(args.workload, args.seed, args.tmp, args.mode)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
