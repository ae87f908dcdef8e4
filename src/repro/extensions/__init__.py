"""Extensions beyond the paper: design-space explorations enabled by the
library (DBI granularity, reliability under wire faults).

Backends
--------
Both extension engines follow the library-wide backend vocabulary
(``backend="auto" | "reference" | "vector"``, defaulting from
``REPRO_BACKEND`` / :func:`repro.set_default_backend`), each with a
scalar executable specification and a batched production engine that the
differential suites in ``tests/extensions/`` pin bit-identical:

* **granularity** (:mod:`repro.extensions.granularity`) — the scalar
  reference solves one two-state trellis per group lane per burst; the
  vector backend stripes the ``8 // g`` group lanes of a packed
  population along the batch axis and solves them in one group-width
  batch Viterbi call.  Requires NumPy (``auto`` falls back to the
  reference without it), like the encoding layer's vector kernels.
* **reliability** (:mod:`repro.extensions.reliability`) — the scalar
  reference re-decodes one corrupted burst per injected fault; the
  batched engine encodes nothing, because the DBI bit always describes
  what was sent, so a fault's decoded error depends on its mask alone.
  It counts DBI-lane draws, or tallies packed fault-mask planes (one
  Python int per wire) with popcounts.  Like the gate-level layer — and
  unlike the encoding layer — it works *without* NumPy, so ``auto``
  always resolves to it.

This module, like every ``repro`` package, imports without NumPy
installed; NumPy is consulted lazily inside the vector fast paths only.
"""

from .._lazy import lazy_exports

# The axes' defaults live here so specs and front ends read them without
# loading the engines.

#: Group sizes that tile a byte lane evenly.
VALID_GROUP_SIZES = (1, 2, 4, 8)

#: Default per-lane-beat fault rates for coverage curves (log-spaced).
DEFAULT_FAULT_RATES = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "granularity": ("GroupedDbiOptimal", "GroupedEncoding",
                    "granularity_table", "split_groups"),
    "reliability": ("FaultCoverageRow", "FaultStatistics",
                    "decode_with_faults", "draw_fault_masks",
                    "draw_fault_positions", "error_amplification",
                    "fault_coverage_curve", "fault_coverage_rows",
                    "fault_mask_planes", "fault_sweep", "fault_sweep_batch",
                    "wrong_decision_is_harmless"),
})
__all__ += ["DEFAULT_FAULT_RATES", "VALID_GROUP_SIZES"]
