"""Deterministic workload inputs: the same seed always gives the same inputs.

The program only ever sees what these functions build.  Replay traces
depend on ``seed % VARIANTS`` so their output totals can be pinned per
variant in ``pins.json``; CLI populations and the service request
sequences use the seed itself.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

MIB = 1 << 20
KIB = 1 << 10

#: Replay inputs repeat with this period in the seed (one pin each).
VARIANTS = 8


def variant(seed: int) -> int:
    return seed % VARIANTS


# -- cli-cold ----------------------------------------------------------------

CLI_AXES = ("sweep-alpha", "sweep-rate", "sweep-load", "faults",
            "granularity", "sso", "ctrl", "table1")
CLI_BURSTS = 10_000


def cli_argv(axis: str, seed: int) -> List[str]:
    """``repro`` arguments of one axis at 10k bursts, seeded population."""
    population_seed = str(seed % (1 << 31))
    if axis == "table1":  # synthesis activity: fixed internal stimulus
        return [axis, "--bursts", str(CLI_BURSTS)]
    if axis == "ctrl":
        return [axis, "--bursts", str(CLI_BURSTS), "--seed", population_seed]
    return [axis, "--samples", str(CLI_BURSTS), "--seed", population_seed]


# -- replays -----------------------------------------------------------------

#: 16 channels x 8 lanes, fixed cost model, vector backend.
WIDE = {"channels": 16, "byte_lanes": 8, "window": 16,
        "trace_bytes": 6 * MIB, "chunk_bytes": 256 * KIB}

#: 2 channels x 4 lanes, tracked over three operating points.
NARROW = {"channels": 2, "byte_lanes": 4, "window": 16,
          "trace_bytes": 512 * KIB, "chunk_bytes": 32 * KIB,
          "segment_bytes": 64 * KIB,
          "classes": ("zero", "gpu", "text", "float"),
          "points": (("pod135", 12.0), ("pod12", 8.0), ("lvstl11", 4.0)),
          "c_load_pf": 3.0}


def wide_trace_seed(seed: int) -> int:
    return 0x5EED0000 + variant(seed)


def phased_trace(seed: int, n_bytes: int = NARROW["trace_bytes"],
                 segment_bytes: int = NARROW["segment_bytes"]) -> bytes:
    """Traffic classes in a fixed cycle, each segment seeded per variant.

    Zero-page, GPU, text and float phases have different toggle/zero
    rates, which is what makes the tracker re-select its operating point.
    """
    from repro.workloads.traces import trace_bytes

    classes = NARROW["classes"]
    base = 1000 * (variant(seed) + 1)
    parts = []
    for index in range(-(-n_bytes // segment_bytes)):
        parts.append(trace_bytes(classes[index % len(classes)],
                                 segment_bytes, seed=base + index))
    return b"".join(parts)[:n_bytes]


def replay_descriptor(workload: str) -> str:
    """Identity of a replay input shape; pins are bound to it."""
    params = WIDE if workload == "replay-wide" else NARROW
    return ";".join(f"{key}={params[key]}" for key in sorted(params))


# -- service-mixed -----------------------------------------------------------

SWEEP_SAMPLES = 2000
REPLAY_BURSTS = 2000
FIGURES = ("alpha", "rate", "load")
#: Every block of 20 requests client ``i`` sends holds exactly the kinds
#: of ``BLOCKS[i]``, shuffled: cold sweeps by figure, warm replays and
#: warm sweeps.  A cold ``alpha`` sweep encodes for ~100 ms; a cold
#: ``load`` sweep costs about as much as a warm one.  Only client 0 sends
#: the costly cold ``alpha`` sweeps, so two encodes never share the CPU
#: and their latencies stay in one narrow cluster; they are ~17% of all
#: requests, which puts p90 in the middle of that cluster.
BLOCKS = (("cold:alpha",) * 9 + ("cold:load",) + ("replay",) * 2
          + ("warm",) * 8,
          ("cold:load",) + ("replay",) * 3 + ("warm",) * 16)
CLIENTS = len(BLOCKS)


def warm_requests(seed: int) -> List[Dict[str, object]]:
    """The requests the daemon is pre-warmed with during set-up."""
    requests: List[Dict[str, object]] = []
    for figure in FIGURES:
        for k in range(2):
            requests.append({"op": "sweep", "figure": figure,
                             "samples": SWEEP_SAMPLES,
                             "seed": (seed % (1 << 20)) * 4 + k})
    for k in range(2):
        requests.append({"op": "replay", "bursts": REPLAY_BURSTS,
                         "seed": (seed % (1 << 20)) * 4 + k})
    return requests


def client_requests(seed: int, client: int) -> Iterator[Dict[str, object]]:
    """One client's endless, fixed request sequence.

    Warm sweeps, warm replays, and sweeps on never-seen seeds that
    encode and store to disk, mixed in fixed proportions per client;
    over both clients most requests are warm.
    """
    rng = random.Random(f"perfbench:service:{seed}:{client}")
    warm = warm_requests(seed)
    sweeps = [request for request in warm if request["op"] == "sweep"]
    replays = [request for request in warm if request["op"] == "replay"]
    cold_base = (1 << 40) + (seed % (1 << 20)) * (1 << 20) + client * (1 << 19)
    index = 0
    while True:
        block = list(BLOCKS[client])
        rng.shuffle(block)
        for kind in block:
            if kind.startswith("cold:"):
                yield {"op": "sweep", "figure": kind[len("cold:"):],
                       "samples": SWEEP_SAMPLES, "seed": cold_base + index}
            elif kind == "replay":
                yield dict(rng.choice(replays))
            else:
                yield dict(rng.choice(sweeps))
            index += 1


def request_kind(request: Dict[str, object],
                 warm_seeds: Tuple[int, ...]) -> str:
    """``warm``/``cold`` sweep, ``replay``, or ``other`` (ping, stats)."""
    if request["op"] == "sweep":
        return "warm" if request["seed"] in warm_seeds else "cold"
    return "replay" if request["op"] == "replay" else "other"
