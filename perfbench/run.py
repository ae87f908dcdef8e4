"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see ``perfbench/README.md`` for why each exists):
``cli-cold``, ``replay-wide``, ``replay-narrow-tracked``,
``service-mixed``.  With ``--trace 0`` the last stdout line holds every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric, from spans the benchmark wraps around public calls.
Every run checks the program's outputs and exits 1 when a check fails;
it exits 2 without a result when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import env

WORKLOADS = ("cli-cold", "replay-wide", "replay-narrow-tracked",
             "service-mixed")


def load_declared():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tmp: str):
    import workload_cli
    import workload_replay
    import workload_service

    if name == "cli-cold":
        return (workload_cli.run_traced(seed, tmp) if traced
                else workload_cli.run(seed, seconds, tmp))
    if name.startswith("replay-"):
        return (workload_replay.run_traced(name, seed, tmp) if traced
                else workload_replay.run(name, seed, seconds, tmp))
    return (workload_service.run_traced(seed, tmp) if traced
            else workload_service.run(seed, seconds, tmp))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.have_program():
        print(f"no program to measure: {env.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    declared = load_declared()
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    from outcome import Outcome

    env.pin_process()
    stamp = env.stamp()
    tmp = env.make_tmp()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), tmp)
    except Exception:  # report the crash as a failed, unmeasured run
        traceback.print_exc()
        outcome = Outcome()
        outcome.attempt()
        outcome.fail("workload raised")
    finally:
        env.remove_tmp()

    metrics = {}
    for metric in wanted:
        value = outcome.metrics.get(metric["name"])
        if value is None:
            if not args.trace:
                outcome.fail(f"metric {metric['name']} was not measured")
                continue
            value = 0  # a layer this workload never calls
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if outcome.notes:
        print("notes " + json.dumps(outcome.notes, sort_keys=True))
    for reason in outcome.failures:
        print(f"FAILED: {reason}")
    correct = not outcome.failures
    print(json.dumps({"correct": correct,
                      "attempted": max(outcome.attempted, outcome.failed, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
