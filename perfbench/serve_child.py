"""Traced daemon launcher: ``python perfbench/serve_child.py OUT -- serve ...``.

Wraps the public calls of the service, cache and experiment layers,
then hands over to ``repro.cli.main(["serve", ...])``.  On SIGINT the
daemon shuts down through its own ``KeyboardInterrupt`` path, and the
launcher writes the span table to OUT before exiting.
"""

from __future__ import annotations

import json
import sys

import spans

#: The daemon never streams traces, so source/CLI-only targets are left
#: alone except ``repro.cli`` itself, which ``main`` needs loaded anyway.
TRACED_MODULES = ("repro.service.daemon", "repro.service.diskcache",
                  "repro.sim.experiments", "repro.core.vectorized",
                  "repro.core.streaming", "repro.ctrl.controller")


def main() -> int:
    out, separator, *argv = sys.argv[1:]
    if separator != "--" or not argv or argv[0] != "serve":
        raise SystemExit("usage: serve_child.py OUT -- serve <args>")
    import repro.cli

    tracer = spans.Tracer()
    restore = spans.install(tracer, TRACED_MODULES)
    try:
        status = repro.cli.main(argv)
    finally:
        restore()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(spans.layer_metrics(tracer.summary(), tracer.counts),
                  handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
