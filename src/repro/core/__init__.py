"""Core DBI machinery: bursts, cost models, trellis search, optimal encoders.

This subpackage implements the paper's primary contribution — optimal
DC/AC data bus inversion as a shortest-path problem — plus the shared
substrate (bit conventions, burst container, scheme interface) every other
subpackage builds on.
"""

from .bitops import (
    ALL_ONES_WORD,
    BYTE_MASK,
    BYTE_WIDTH,
    DBI_BIT,
    WORD_MASK,
    WORD_WIDTH,
    decode_word,
    format_bits,
    make_word,
    parse_bits,
    popcount,
    transitions,
    zeros_in_byte,
    zeros_in_word,
)
from .burst import DEFAULT_BURST_LENGTH, PAPER_FIG2_BURST, Burst, chunk_bytes
from .costs import CostModel, QuantizedCostModel
from .decoder import decode_words, verify_round_trip, verify_stream
from .encoder import DbiOptimal, DbiOptimalFixed, DbiOptimalQuantized
from .pareto import (
    EncodingPoint,
    convex_hull_lower,
    enumerate_encodings,
    pareto_front,
    supported_points,
)
from .streaming import (
    BatchStreamingEncoder,
    StreamingOptimalEncoder,
    solve_stream,
    stream_cost,
    windowed_stream_cost,
)
from .schemes import (
    DbiScheme,
    EncodedBurst,
    available_schemes,
    get_scheme,
    register_scheme,
)
from .trellis import TrellisGraph, TrellisSolution, brute_force, solve
from .vectorized import (
    HAVE_NUMPY,
    available_backends,
    get_default_backend,
    pack_bursts,
    resolve_backend,
    set_default_backend,
    solve_batch,
)

__all__ = [
    "ALL_ONES_WORD",
    "BYTE_MASK",
    "BYTE_WIDTH",
    "Burst",
    "CostModel",
    "HAVE_NUMPY",
    "available_backends",
    "get_default_backend",
    "pack_bursts",
    "resolve_backend",
    "set_default_backend",
    "solve_batch",
    "DBI_BIT",
    "DEFAULT_BURST_LENGTH",
    "DbiOptimal",
    "DbiOptimalFixed",
    "DbiOptimalQuantized",
    "DbiScheme",
    "EncodedBurst",
    "EncodingPoint",
    "PAPER_FIG2_BURST",
    "QuantizedCostModel",
    "StreamingOptimalEncoder",
    "TrellisGraph",
    "TrellisSolution",
    "WORD_MASK",
    "WORD_WIDTH",
    "available_schemes",
    "brute_force",
    "chunk_bytes",
    "convex_hull_lower",
    "decode_word",
    "decode_words",
    "enumerate_encodings",
    "format_bits",
    "get_scheme",
    "make_word",
    "pareto_front",
    "parse_bits",
    "popcount",
    "register_scheme",
    "solve",
    "solve_stream",
    "stream_cost",
    "supported_points",
    "windowed_stream_cost",
    "transitions",
    "verify_round_trip",
    "verify_stream",
    "zeros_in_byte",
    "zeros_in_word",
]
