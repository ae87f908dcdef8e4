"""End-to-end smoke check for the experiment daemon.

``python -m repro.service.smoke`` exercises the whole service stack the
way CI does, with real processes:

1. start ``repro serve`` as a subprocess on an ephemeral port with a
   fresh (or given) cache directory;
2. issue the same ``sweep`` query twice — cold, then warm — and require
   the warm answer to hit the disk cache for every encode while staying
   canonically byte-identical to the cold one;
3. run the identical spec directly through
   :func:`repro.sim.experiments.run_experiment` in *this* process and
   require the daemon's artifact to be byte-identical
   (:func:`repro.analysis.artifacts.canonical_artifact_json`) to the
   direct result, and to ``python -m repro sweep-alpha ... --out``'s
   artifact for the same parameters.

Exit code 0 on success, 1 on any mismatch — suitable as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from typing import Optional, Sequence

from ..analysis.artifacts import canonical_artifact_json
from ..sim.experiments import result_to_json, run_experiment
from .client import ServiceClient
from .daemon import sweep_spec_from_params

#: The serve CLI prints this; the smoke driver (and scripts) parse it.
LISTENING_RE = re.compile(r"listening on (\S+):(\d+)")


def _start_daemon(cache_dir: str, timeout_s: float = 30.0):
    """Spawn ``repro serve`` and wait for its listening line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = LISTENING_RE.search(line)
        if match:
            return process, match.group(1), int(match.group(2))
    process.kill()
    raise RuntimeError("daemon did not report a listening address in time")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.smoke",
        description="cold/warm/direct equivalence check of the daemon")
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--points", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0x0DB1)
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="cache directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    params = {"figure": "alpha", "samples": args.samples,
              "points": args.points, "seed": args.seed}
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as scratch:
        cache_dir = args.cache_dir or os.path.join(scratch, "cache")
        process, host, port = _start_daemon(cache_dir)
        try:
            with ServiceClient(host, port) as client:
                client.ping()

                start = time.perf_counter()
                cold = client.sweep(**params)
                cold_s = time.perf_counter() - start

                start = time.perf_counter()
                warm = client.sweep(**params)
                warm_s = time.perf_counter() - start

                stats = client.stats()
        finally:
            process.terminate()
            process.wait(timeout=10)

        failures = []
        if cold["provenance"]["encodes"] == 0:
            failures.append("cold query executed no encodes — stale cache?")
        if warm["provenance"]["encodes"] != 0:
            failures.append(
                f"warm query re-encoded {warm['provenance']['encodes']} "
                "populations instead of hitting the disk cache")
        if canonical_artifact_json(cold) != canonical_artifact_json(warm):
            failures.append("warm response differs from cold response")

        direct = result_to_json(
            run_experiment(sweep_spec_from_params(params)))
        if canonical_artifact_json(cold) != canonical_artifact_json(direct):
            failures.append(
                "daemon response differs from direct run_experiment output")

        cli_path = os.path.join(scratch, "cli-alpha.json")
        subprocess.run([sys.executable, "-m", "repro", "sweep-alpha",
                        "--samples", str(args.samples), "--points",
                        str(args.points), "--seed", str(args.seed),
                        "--out", cli_path], check=True,
                       stdout=subprocess.DEVNULL)
        with open(cli_path, "r", encoding="utf-8") as handle:
            from_cli = json.load(handle)
        if canonical_artifact_json(cold) != canonical_artifact_json(from_cli):
            failures.append(
                "daemon response differs from repro sweep-alpha --out")

        print(f"cold sweep: {cold_s:.3f}s "
              f"({cold['provenance']['encodes']} encodes) | "
              f"warm sweep: {warm_s:.3f}s "
              f"({warm['provenance']['encodes']} encodes) | "
              f"cache entries: {stats['cache_entries']}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("service smoke OK: daemon output byte-identical to direct "
              "run and CLI; warm path served entirely from the disk cache")
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
