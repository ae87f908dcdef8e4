"""repro — Optimal DC/AC Data Bus Inversion Coding.

A complete, self-contained reproduction of

    J. Lucas, S. Lal, B. Juurlink,
    "Optimal DC/AC Data Bus Inversion Coding", DATE 2018.

The package provides:

* :mod:`repro.core` — the optimal trellis/shortest-path DBI encoder
  (the paper's contribution) and the shared burst/cost substrate,
* :mod:`repro.baselines` — RAW, DBI DC, DBI AC, DBI ACDC, greedy-weighted
  and classic bus-invert baselines,
* :mod:`repro.phy` — POD-interface electrical and CACTI-IO-derived energy
  models plus a stateful multi-lane bus simulator,
* :mod:`repro.hw` — a gate-level model of the paper's encoder hardware with
  a synthesis-style area/power/timing estimator (Table I),
* :mod:`repro.workloads` — random, patterned and trace-like workload
  generators plus the chunked, content-addressed burst population
  protocol (:mod:`repro.workloads.population`),
* :mod:`repro.sim` / :mod:`repro.analysis` — the declarative experiment
  engine (:mod:`repro.sim.experiments`: specs, shared activity cache,
  process-pool execution, persisted JSON artifacts), the figure sweeps
  built on it, and the reporting used by the benchmarks that regenerate
  every figure and table.

Quickstart::

    from repro import Burst, CostModel, DbiOptimal, get_scheme

    burst = Burst([0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4])
    encoded = DbiOptimal(CostModel.fixed()).encode(burst)
    print(encoded.invert_flags, encoded.activity())

Backends
--------
Two interchangeable execution backends produce bit-identical results:

* ``reference`` — the pure-Python per-burst path above (the executable
  specification; always available).
* ``vector`` — a NumPy batch backend (:mod:`repro.core.vectorized`) that
  encodes whole ``(batch, n)`` populations array-at-a-time; this is what
  makes million-burst sweeps practical.

Every population tally gets its wire words from one encoder,
``DbiScheme.wire_words``, and one chunked tally,
``sim.experiments.population_metrics``, sits on top of it.  Both, and
the entry points built on them (``DbiScheme.encode_batch``,
``sim.runner.evaluate`` and the figure sweeps), accept
``backend="auto" | "reference" | "vector"``; ``auto`` (default) uses
``vector`` whenever NumPy is importable.  The process-wide default can be
set with :func:`repro.set_default_backend` or the ``REPRO_BACKEND``
environment variable.  NumPy is optional — the ``backend="auto"`` entry
points transparently fall back to the reference path without it (only
the raw array API :func:`repro.solve_batch` requires NumPy outright)::

    from repro import Burst, CostModel, DbiOptimal, solve_batch

    scheme = DbiOptimal(CostModel.fixed())
    encoded = scheme.encode_batch([Burst([0x00] * 8)] * 1000)     # any env
    flags, costs = solve_batch([[0x00] * 8] * 1000, scheme.model)  # NumPy only
"""

# Importing these registers every scheme, whatever else is imported.
from . import baselines as _baselines  # noqa: F401
from .core import encoder as _encoder  # noqa: F401
from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": ("BusInvert", "DbiAc", "DbiAcDc", "DbiDc",
                  "DbiGreedyWeighted", "Raw"),
    "core.bitops": ("ALL_ONES_WORD",),
    "core.burst": ("Burst", "DEFAULT_BURST_LENGTH", "PAPER_FIG2_BURST",
                   "chunk_bytes"),
    "core.costs": ("CostModel", "QuantizedCostModel"),
    "core.encoder": ("DbiOptimal", "DbiOptimalFixed", "DbiOptimalQuantized"),
    "core.schemes": ("DbiScheme", "EncodedBurst", "available_schemes",
                     "get_scheme", "register_scheme"),
    "core.trellis": ("brute_force", "solve"),
    "core.vectorized": ("HAVE_NUMPY", "available_backends",
                        "get_default_backend", "resolve_backend",
                        "set_default_backend", "solve_batch"),
})
__all__.append("__version__")
