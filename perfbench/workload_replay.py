"""``replay-wide`` and ``replay-narrow-tracked``: fresh-process replays.

Each replay process replays the same seeded trace; its totals (and, when
tracked, the tracker's switch log) must equal the values pinned for the
seed's variant in ``pins.json``.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Dict, List

import calib
import env
import inputs
from outcome import Outcome

PINS_PATH = os.path.join(env.HERE, "pins.json")

#: Set-up-only processes per run; ``setup_s`` is their median.
SETUPS = 8

#: Totals every replay pins (plus ``switches`` when tracked).
PINNED_KEYS = ("bytes", "transactions", "zeros", "transitions", "beats",
               "switches")


def load_pins() -> Dict[str, object]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_totals(workload: str, seed: int) -> Dict[str, object]:
    """The pinned totals of one seed, refusing pins of another input."""
    pins = load_pins()[workload]
    if pins["descriptor"] != inputs.replay_descriptor(workload):
        raise RuntimeError(f"{workload}: pins.json was made for other "
                           "inputs; regenerate it with pin.py")
    return pins["variants"][str(inputs.variant(seed))]


def spawn(workload: str, seed: int, tmp: str, index: int, mode: str):
    """Run one replay process; ``(child, record or None)``."""
    record_path = os.path.join(tmp, f"replay-{index}.json")
    args = [os.path.join(env.HERE, "replay_child.py"), "--workload",
            workload, "--seed", str(seed), "--out", record_path,
            "--tmp", tmp, "--mode", mode]
    child = env.run_python(args, timeout=150.0)
    if child.returncode != 0 or not os.path.exists(record_path):
        return child, None
    with open(record_path, encoding="utf-8") as handle:
        return child, json.load(handle)


def check(record, expected, out: Outcome, child: env.Child) -> bool:
    out.attempt()
    if record is None:
        out.fail(f"replay process exited {child.returncode}")
        return False
    wrong = [key for key in PINNED_KEYS if record[key] != expected[key]]
    if wrong:
        out.fail(f"replay totals differ from pins in {wrong}")
        return False
    return True


def set_up_times(workload: str, seed: int, tmp: str) -> List[float]:
    """Spawn-to-ready times of ``SETUPS`` set-up-only processes, each
    scaled by the process-level slowness sampled around it."""
    setups = []
    before = calib.host_slowness()
    for index in range(SETUPS):
        child, record = spawn(workload, seed, tmp, index, "setup")
        if record is None:
            raise RuntimeError(f"set-up process exited {child.returncode}")
        after = calib.host_slowness()
        setups.append(calib.scaled_between(
            record["ready_monotonic"] - child.start, before, after))
        before = after
    return setups


def run(workload: str, seed: int, seconds: float, tmp: str) -> Outcome:
    """Set-up-only processes, then replay processes back to back, all on
    the same trace.

    Times are scaled by ``calib``.  Every process replays the same
    chunks, so each chunk's cost is its fastest scaled time across the
    processes (noise only adds time); the op metrics describe those
    per-chunk costs.  ``setup_s`` is the median scaled set-up.
    """
    out = Outcome()
    expected = expected_totals(workload, seed)
    calib.pin_one_cpu()
    setups = set_up_times(workload, seed, tmp)
    processes: List[List[float]] = []
    raw_rates: List[float] = []
    rss: List[float] = []
    deadline = time.monotonic() + seconds
    index = 0
    while index == 0 or time.monotonic() < deadline:
        child, record = spawn(workload, seed, tmp, index, "timed")
        index += 1
        if not check(record, expected, out, child):
            continue
        slowness = record["slowness"]
        processes.append([calib.scaled(op, slowness[i:i + 2])
                          for i, op in enumerate(record["ops_s"])])
        raw_rates.append(len(record["ops_s"]) / sum(record["ops_s"]))
        rss.append(child.maxrss_mib)
    if not processes:
        return out
    chunks = [min(times) for times in zip(*processes)]
    out.metrics = {
        "setup_s": median(setups),
        "op_p50_ms": 1000 * median(chunks),
        "op_p90_ms": 1000 * env.quantile(chunks, 0.9),
        "ops_per_s": len(chunks) / sum(chunks),
        "peak_rss_mib": median(rss),
    }
    params = inputs.WIDE if workload == "replay-wide" else inputs.NARROW
    chunk_mib = params["chunk_bytes"] / inputs.MIB
    out.notes["replay_mib_s"] = out.metrics["ops_per_s"] * chunk_mib
    out.notes["unscaled_replay_mib_s"] = median(raw_rates) * chunk_mib
    out.notes["processes"] = index
    return out


def run_traced(workload: str, seed: int, tmp: str) -> Outcome:
    """One plain and one traced replay process of the same trace; neither
    runs the chunk timer, so the overhead is the spans' alone."""
    out = Outcome()
    expected = expected_totals(workload, seed)
    plain, plain_record = spawn(workload, seed, tmp, 0, "plain")
    check(plain_record, expected, out, plain)
    traced, record = spawn(workload, seed, tmp, 1, "traced")
    if check(record, expected, out, traced):
        out.metrics = dict(record["layers"])
    out.metrics["bench.trace_overhead_s"] = traced.wall_s - plain.wall_s
    return out
