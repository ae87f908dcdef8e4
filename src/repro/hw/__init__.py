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

from .._lazy import lazy_exports

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
