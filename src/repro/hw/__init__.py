"""Gate-level hardware models: cells, netlists, encoder RTL, synthesis.

Simulation backends
-------------------
The gate-level layer has two interchangeable simulation engines, selected
with the library-wide backend vocabulary (``backend="auto" | "reference"
| "vector"``, defaulting from ``REPRO_BACKEND`` /
:func:`repro.set_default_backend`):

* ``reference`` — the scalar interpreter in
  :meth:`~repro.hw.netlist.Netlist.simulate_activity` /
  :meth:`~repro.hw.netlist.Netlist.evaluate`: one vector at a time, one
  gate at a time, each cell evaluated through its boolean ``function``.
  This is the executable specification.
* ``vector`` — the bit-parallel compiled engine
  (:mod:`repro.hw.bitsim`): the netlist is lowered once into a
  straight-line program of bitwise word operations over the cells'
  ``word_function`` forms, W input vectors are packed per net into one
  arbitrary-precision Python int, and toggles are tallied with
  popcounts.  Unlike the encoding layer's vector backend, this works
  *without* NumPy: the word is an int on every install, and NumPy, when
  importable, only speeds up the packing
  (:func:`~repro.hw.bitsim.pack_planes`).

``auto`` therefore always resolves to the bit-parallel engine here.  The
two engines are bit-identical — same toggle tallies, same outputs — which
the differential suite in ``tests/hw/test_bitsim.py`` enforces over
hypothesis-generated netlists and every encoder design.
"""

from types import MappingProxyType

from .._lazy import lazy_exports

#: Encoding energy per burst in joules, per scheme: Table I's
#: ``energy_per_burst_j`` exactly as :func:`~repro.hw.synthesis.table_one`
#: computes it at its defaults (100k bursts of the default seed, the same
#: bytes on every install), plus RAW, which needs no encoder.  Fig. 8
#: adds these to each scheme's interface energy, so its specs read them
#: here without loading the synthesis engine;
#: ``tests/hw/test_synthesis.py`` recomputes the table and requires these
#: values, so a change to a netlist, a cell or a synthesis constant
#: re-pins them.
ENCODER_ENERGY_PER_BURST_J = MappingProxyType({
    "dbi-dc": float.fromhex("0x1.16bab2e8399dcp-42"),
    "dbi-ac": float.fromhex("0x1.b2969908a0396p-41"),
    "dbi-opt-fixed": float.fromhex("0x1.4101cacb6d5d6p-39"),
    "dbi-opt-q3": float.fromhex("0x1.01ee10179745fp-36"),
    "raw": 0.0,
})

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "activity": ("DEFAULT_ACTIVITY_BURSTS", "PackedPopulation",
                 "burst_to_vector", "encode_with_netlist", "iter_vectors",
                 "measure_activity", "netlist_invert_flags",
                 "vectors_from_bursts"),
    "bitsim": ("CompiledNetlist", "compile_netlist", "resolve_sim_backend",
               "word_function_from_truth_table"),
    "cells": ("DFF", "LIBRARY", "Cell", "get_cell"),
    "components": ("add_many", "carry_select_adder", "full_adder",
                   "half_adder", "less_than", "min_select", "multiply",
                   "mux_bus", "popcount", "ripple_adder",
                   "subtract_from_const", "xor_bus", "xor_with_bit"),
    "encoders": ("build_ac_encoder", "build_dc_encoder", "build_decoder",
                 "build_opt_encoder"),
    "netlist": ("ActivityReport", "Gate", "Netlist"),
    "pipeline": ("PipelinePlan", "plan_pipeline", "stages_for_frequency"),
    "synthesis": ("DesignSpec", "SynthesisResult", "TARGET_BURST_RATE_HZ",
                  "encoder_energy_per_burst", "synthesize", "table_one",
                  "table_one_markdown"),
})
__all__.append("ENCODER_ENERGY_PER_BURST_J")
