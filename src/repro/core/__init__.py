"""Core DBI machinery: bursts, cost models, trellis search, optimal encoders.

This subpackage implements the paper's primary contribution — optimal
DC/AC data bus inversion as a shortest-path problem — plus the shared
substrate (bit conventions, burst container, scheme interface) every other
subpackage builds on.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bitops": ("ALL_ONES_WORD", "BYTE_MASK", "BYTE_WIDTH", "DBI_BIT",
               "WORD_MASK", "WORD_WIDTH", "decode_word", "format_bits",
               "make_word", "parse_bits", "popcount", "transitions",
               "zeros_in_byte", "zeros_in_word"),
    "burst": ("DEFAULT_BURST_LENGTH", "PAPER_FIG2_BURST", "Burst",
              "chunk_bytes"),
    "costs": ("CostModel", "QuantizedCostModel"),
    "decoder": ("decode_words", "verify_round_trip", "verify_stream"),
    "encoder": ("DbiOptimal", "DbiOptimalFixed", "DbiOptimalQuantized"),
    "pareto": ("EncodingPoint", "convex_hull_lower", "enumerate_encodings",
               "pareto_front", "supported_points"),
    "streaming": ("BatchStreamingEncoder", "PerLaneStreamingEncoder",
                  "StreamingOptimalEncoder", "solve_stream", "stream_cost",
                  "windowed_stream_cost"),
    "schemes": ("DbiScheme", "EncodedBurst", "available_schemes",
                "get_scheme", "register_scheme"),
    "trellis": ("TrellisGraph", "TrellisSolution", "brute_force", "solve"),
    "vectorized": ("HAVE_NUMPY", "available_backends", "get_default_backend",
                   "pack_bursts", "resolve_backend", "set_default_backend",
                   "solve_batch"),
})
