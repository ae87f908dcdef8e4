"""``cli-cold``: every CLI axis as a fresh ``python -m repro`` process."""

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

IMPORT_SAMPLES = 5


def _axis_call(axis: str, seed: int, tmp: str, out: Outcome,
               traced: bool = False) -> env.Child:
    """Run one axis to completion and check it; returns the reaped child."""
    stdout_path = os.path.join(tmp, f"cli-{axis}.out")
    argv = inputs.cli_argv(axis, seed)
    if traced:
        spans_path = os.path.join(tmp, f"cli-{axis}.spans.json")
        args = [os.path.join(env.HERE, "cli_child.py"), spans_path, "--",
                *argv]
    else:
        args = ["-m", "repro", *argv]
    with open(stdout_path, "wb") as stdout:
        child = env.run_python(args, timeout=120.0, stdout=stdout)
    with open(stdout_path, "rb") as handle:
        printed = handle.read()
    out.attempt()
    if child.returncode != 0:
        out.fail(f"repro {axis} exited {child.returncode}")
    elif b"|" not in printed:
        out.fail(f"repro {axis} printed no table")
    return child


def run(seed: int, seconds: float, tmp: str) -> Outcome:
    """Rounds of two passes over every axis, at least one round.

    Times are scaled by ``calib.host_slowness`` sampled around each
    call.  An axis's cost is its fastest scaled call: noise only adds
    time, and a slow stretch of the host rarely covers both passes.
    ``setup_s`` is the median scaled import.
    """
    out = Outcome()
    calib.pin_one_cpu()
    before = calib.host_slowness()
    setups = []
    for __ in range(IMPORT_SAMPLES):
        wall = env.run_python(["-c", "import repro.cli"]).wall_s
        after = calib.host_slowness()
        setups.append(calib.scaled_between(wall, before, after))
        before = after
    walls: Dict[str, List[float]] = {axis: [] for axis in inputs.CLI_AXES}
    rss: Dict[str, List[float]] = {axis: [] for axis in inputs.CLI_AXES}
    raw_round = 0.0
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        for axis in inputs.CLI_AXES * 2:
            child = _axis_call(axis, seed, tmp, out)
            after = calib.host_slowness()
            walls[axis].append(calib.scaled_between(child.wall_s, before,
                                                    after))
            rss[axis].append(child.maxrss_mib)
            before = after
            if rounds == 0 and len(walls[axis]) == 1:
                raw_round += child.wall_s
        rounds += 1
    per_axis = [min(walls[axis]) for axis in inputs.CLI_AXES]
    out.metrics = {
        "setup_s": median(setups),
        "op_p50_ms": 1000 * median(per_axis),
        "op_p90_ms": 1000 * env.quantile(per_axis, 0.9),
        "ops_per_s": len(per_axis) / sum(per_axis),
        "peak_rss_mib": max(median(rss[axis])
                            for axis in inputs.CLI_AXES),
    }
    out.notes["rounds"] = rounds
    out.notes["unscaled_first_round_s"] = raw_round
    return out


def run_traced(seed: int, tmp: str) -> Outcome:
    """One untraced and one traced round; spans come from the traced one."""
    out = Outcome()
    layers: Dict[str, float] = {}
    untraced = traced = 0.0
    imports = []
    for axis in inputs.CLI_AXES:
        child = _axis_call(axis, seed, tmp, out)
        untraced += child.wall_s
        layers[f"cli.{axis}.wall_s"] = child.wall_s
    for axis in inputs.CLI_AXES:
        child = _axis_call(axis, seed, tmp, out, traced=True)
        traced += child.wall_s
        spans_path = os.path.join(tmp, f"cli-{axis}.spans.json")
        if child.returncode != 0 or not os.path.exists(spans_path):
            continue
        with open(spans_path, encoding="utf-8") as handle:
            child_layers = json.load(handle)
        imports.append(child_layers.pop("cli.import_s"))
        for name, value in child_layers.items():
            layers[name] = layers.get(name, 0) + value
    if imports:
        layers["cli.import_s"] = median(imports)
    layers["bench.trace_overhead_s"] = traced - untraced
    out.metrics = layers
    return out
