"""Regenerate ``pins.json``: the replay totals every benchmark run checks.

``python3 perfbench/pin.py`` replays every input variant of both replay
workloads on the vector backend and records zeros, transitions, beats,
transactions, bytes and the tracker's switch log.  It replays each
variant again on the per-byte reference backend (slow) and refuses to
write pins that differ from it; the variants checked that way are listed
under ``reference_checked``.
"""

from __future__ import annotations

import json

import env
import inputs
from workload_replay import PINNED_KEYS, PINS_PATH


def main() -> int:
    env.pin_process()
    import replay_child

    pins = {}
    tmp = env.make_tmp()
    try:
        for workload in ("replay-wide", "replay-narrow-tracked"):
            entry = {"descriptor": inputs.replay_descriptor(workload),
                     "variants": {}, "reference_checked": []}
            for variant in range(inputs.VARIANTS):
                record = replay_child.replay(workload, variant, tmp)
                totals = {key: record[key] for key in PINNED_KEYS}
                reference = replay_child.replay(workload, variant, tmp,
                                                backend="reference")
                if any(reference[key] != totals[key] for key in PINNED_KEYS):
                    print(f"{workload} variant {variant}: vector and "
                          "reference totals differ")
                    return 1
                entry["reference_checked"].append(variant)
                entry["variants"][str(variant)] = totals
                print(workload, variant, totals["zeros"],
                      totals["transitions"], len(totals["switches"]),
                      flush=True)
            pins[workload] = entry
    finally:
        env.remove_tmp()
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
