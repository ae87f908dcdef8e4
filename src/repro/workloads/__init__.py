"""Workload generators: random bursts, directed patterns, synthetic traces.

The population protocol (:mod:`repro.workloads.population`), the
directed patterns, and the streaming trace sources
(:mod:`repro.workloads.source`) are dependency-free; the random/trace
generators require NumPy and are skipped from the package namespace when
it is missing (the experiment engine and CLI then fall back to the
pure-Python population sources, whose random stream is NumPy's).
"""

from .._lazy import lazy_exports

#: Default streaming chunk size (1 MiB) — large enough that per-chunk
#: Python overhead is negligible against the encode cost, small enough
#: that peak memory stays flat at any trace size.  Defined here so
#: replay specs and front ends read it without loading the sources.
DEFAULT_TRACE_CHUNK_BYTES = 1 << 20

_EXPORTS = {
    "patterns": ("PATTERN_NAMES", "PATTERNS", "all_ones", "all_zeros",
                 "checkerboard", "get_pattern", "pattern_population",
                 "pattern_suite", "ramp", "static_checkerboard",
                 "walking_ones", "walking_zeros"),
    "population": ("DEFAULT_CHUNK_SIZE", "BurstPopulation",
                   "ExplicitPopulation", "OpaquePopulation",
                   "RandomPopulation", "as_population"),
    "source": ("BytesTraceSource", "FileTraceSource", "RegistryTraceSource",
               "SyntheticTraceSource", "TraceSource", "as_trace_source",
               "source_from_json"),
}

# The guard is on NumPy itself (not a blanket except around the imports)
# so genuine import errors inside the generator modules still surface.
try:
    import numpy as _np  # noqa: F401 - availability probe only
except ImportError:  # pragma: no cover - NumPy missing
    pass
else:
    _EXPORTS.update({
        "generator": ("Workload", "make_workload", "workload_names"),
        "random_data": ("DEFAULT_SEED", "PAPER_SAMPLE_COUNT",
                        "biased_bursts", "burst_stream", "correlated_bursts",
                        "random_bursts", "random_payload"),
        "traces": ("TRACES", "available_traces", "float_trace",
                   "gpu_frame_trace", "image_trace", "pointer_trace",
                   "text_trace", "trace_bytes", "zero_run_trace"),
    })

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__.append("DEFAULT_TRACE_CHUNK_BYTES")
