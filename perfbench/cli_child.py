"""One traced CLI axis: ``python perfbench/cli_child.py OUT -- <repro args>``.

Times ``import repro.cli``, wraps the public calls the axis makes, runs
``repro.cli.main`` with the given arguments and writes the span table
to OUT.  The untraced benchmark runs ``python -m repro`` instead.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    out, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_child.py OUT -- <repro args>")
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        status = repro.cli.main(argv)
    finally:
        restore()
    layers = spans.layer_metrics(tracer.summary(), tracer.counts)
    layers["cli.import_s"] = import_s
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(layers, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
