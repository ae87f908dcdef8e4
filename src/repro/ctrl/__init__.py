"""Write-path memory-controller models with cross-burst DBI lookahead.

Backend selection
-----------------
:class:`MemoryController` accepts the library-wide ``backend`` vocabulary
(``"auto"`` / ``"reference"`` / ``"vector"``; process default via
``REPRO_BACKEND`` or :func:`repro.set_default_backend`):

* ``reference`` — :class:`~repro.core.streaming.PerLaneStreamingEncoder`:
  one pure-Python :class:`~repro.core.streaming.StreamingOptimalEncoder`
  per (channel, lane), fed byte by byte.  The executable specification;
  build it with ``MemoryController(..., backend="reference")``.
* ``vector`` (what ``auto`` resolves to with NumPy installed) — the
  batched write path: :meth:`MemoryController.submit` steers whole
  transaction batches and stripes them across channels × lanes, while
  :meth:`MemoryController.submit_source` turns each trace chunk into the
  channels × lanes byte matrix by address arithmetic, building no
  transaction.  Either way every lane goes to its twin
  :class:`~repro.core.streaming.BatchStreamingEncoder`, which solves all
  full lookahead windows of a batch at once; statistics are tallied per
  lane as integer arrays, never per byte.

Both backends are bit-identical — per-lane invert decisions and integer
(zeros, transitions, beats) tallies — enforced by
``tests/ctrl/test_batch_parity.py`` across POD/SSTL/LVSTL operating
points, and ``benchmarks/test_ctrl_throughput.py`` gates the batched
path at >= 10x the reference on a 10k-transaction replay at every
benchmarked link geometry, down to 2 channels × 4 lanes.  So ``auto``
picks ``vector`` whenever NumPy is installed, however small the link.

Streaming ingestion and adaptive operating points
-------------------------------------------------
:meth:`MemoryController.submit_source` streams any
:class:`~repro.workloads.source.TraceSource` (file, synthetic, registry
trace) one chunk at a time in bounded memory (on the reference backend
as :func:`transactions_from_source` batches), with chunk seams proven
invisible (bit-identical to a one-shot submit for every chunking).
:mod:`repro.ctrl.adaptive` makes a single pass price segments under
different operating points:
:class:`~repro.ctrl.adaptive.OperatingPointSchedule` switches the cost
model at planned transaction/address boundaries (DVFS point schedules),
and :class:`~repro.ctrl.adaptive.AdaptiveCostTracker` re-estimates
alpha/beta online from the committed batch planes (EWMA with a
configurable half-life) and re-prices the windowed trellis when the
measured statistics drift — the paper's OPT-tracking inside the batched
write path.  Per-segment tallies come back from
:meth:`MemoryController.segments`.

Energy accounting takes any :class:`~repro.phy.interface.Interface`
standard via :class:`~repro.phy.power.InterfaceEnergyModel`, including
the one-level DC term that POD-only accounting omits.
"""

from .._lazy import lazy_exports

#: Typical cache-line size; transactions default to this granularity.
#: Defined here so replay specs and front ends read it without loading
#: the controller.
CACHE_LINE_BYTES = 64

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive": ("DEFAULT_HALF_LIFE_BYTES", "AdaptiveCostTracker",
                 "OperatingPoint", "OperatingPointSchedule",
                 "TrackingConfig"),
    "controller": ("ControllerStatistics", "MemoryController",
                   "SegmentActivity", "WriteTransaction",
                   "compare_controllers", "transactions_from_bytes",
                   "transactions_from_source"),
})
__all__.append("CACHE_LINE_BYTES")
