"""Gate-level activity throughput — the bit-parallel engine's acceptance gate.

Times :meth:`Netlist.simulate_activity` two ways over the same
10 000-vector random-burst workload:

* **reference** — the scalar per-vector, per-gate interpreter;
* **int** — the bit-parallel compiled engine over Python-int bit planes
  (with NumPy installed, NumPy packs them).

The gate requires the bit-parallel engine to be **>= 20x faster** than
the scalar interpreter on both the DBI DC encoder and the Fig. 5
fixed-coefficient OPT encoder at ``REPRO_BENCH_ACTIVITY_VECTORS``
vectors (default 10 000), with bit-identical toggle tallies.

Every run persists its measurements to ``BENCH_hw_activity.json`` in
the ``artifact_dir`` of ``conftest.py`` (``REPRO_BENCH_ARTIFACT_DIR``,
else a pytest temp dir), so CI keeps a perf trajectory of the
gate-level layer.
"""

import os
import time

from conftest import emit, write_bench_artifact

from repro.hw.bitsim import compile_netlist
from repro.hw.encoders import build_dc_encoder, build_opt_encoder
from repro.hw.netlist import Netlist
from repro.workloads.population import RandomPopulation

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

#: Workload size of the gate (Table I's default population is 10x this;
#: the scalar reference makes the full 100k unaffordable to *time*).
BENCH_VECTORS = int(os.environ.get("REPRO_BENCH_ACTIVITY_VECTORS", "10000"))

#: Required wall-clock advantage of the bit-parallel engine over the
#: scalar interpreter.
SPEEDUP_FLOOR = 20.0

#: The scalar interpreter is timed on this fraction of the workload for
#: the large OPT netlist and extrapolated linearly (it is linear in
#: vectors by construction); the small DC netlist is timed in full.
OPT_REFERENCE_FRACTION = 10

ARTIFACT_NAME = "BENCH_hw_activity.json"


def _vectors(count: int):
    from repro.hw.activity import vectors_from_bursts

    population = RandomPopulation(count=count, seed=0x0DB1)
    return vectors_from_bursts(population.bursts())


def _time(function):
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def _measure(netlist: Netlist, vectors, reference_fraction: int = 1):
    """Wall-clock one design across all engines; returns a result row."""
    compiled = compile_netlist(netlist)
    reference_vectors = vectors[:len(vectors) // reference_fraction]
    t_reference, reference = _time(
        lambda: netlist.simulate_activity(iter(reference_vectors),
                                          backend="reference"))
    t_reference *= reference_fraction
    t_int, report_int = _time(
        lambda: compiled.simulate_activity(iter(vectors)))
    # Bit-identity is checked on exactly the vectors the scalar engine
    # simulated: the timed run itself unless the reference was
    # subsampled for timing.
    if reference_fraction > 1:
        parity = compiled.simulate_activity(iter(reference_vectors))
    else:
        parity = report_int
    assert parity.gate_toggles == reference.gate_toggles
    row = {
        "design": netlist.name,
        "n_gates": netlist.n_gates,
        "n_vectors": len(vectors),
        "reference_s": round(t_reference, 4),
        "reference_extrapolated": reference_fraction > 1,
        "int_s": round(t_int, 4),
        "speedup_int": round(t_reference / t_int, 1),
    }
    return row


def test_activity_throughput_gate(artifact_dir):
    vectors = _vectors(BENCH_VECTORS)
    dc_row = _measure(build_dc_encoder(8), vectors)
    opt_row = _measure(build_opt_encoder(8), vectors,
                       reference_fraction=OPT_REFERENCE_FRACTION)
    rows = [dc_row, opt_row]
    path = write_bench_artifact(artifact_dir, ARTIFACT_NAME, {
        "schema": "repro.bench/hw_activity/1",
        "n_vectors": BENCH_VECTORS,
        "speedup_floor": SPEEDUP_FLOOR,
        "numpy": HAVE_NUMPY,
        "designs": rows,
    })

    lines = [
        f"| {row['design']} | {row['n_gates']} gates "
        f"| ref {row['reference_s']:.2f}s"
        f"{'*' if row['reference_extrapolated'] else ''} "
        f"| int {row['int_s']:.3f}s ({row['speedup_int']:.0f}x) |"
        for row in rows
    ]
    emit(f"gate-level activity throughput at {BENCH_VECTORS} vectors "
         f"(artifact: {path})", "\n".join(lines)
         + "\n(* = scalar time extrapolated from "
         f"1/{OPT_REFERENCE_FRACTION} of the workload)")

    # The acceptance gate: the bit-parallel engine clears 20x on both
    # designs.
    assert opt_row["speedup_int"] >= SPEEDUP_FLOOR, opt_row
    assert dc_row["speedup_int"] >= SPEEDUP_FLOOR, dc_row
