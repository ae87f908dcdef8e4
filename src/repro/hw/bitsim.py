"""Bit-parallel compiled netlist simulation (the gate-level fast path).

:meth:`~repro.hw.netlist.Netlist.simulate_activity` interprets the gate
list one vector and one gate at a time — a faithful executable
specification, but every Table I activity run pays Python call overhead
per gate *per vector*.  This module is the hardware-layer analogue of
:mod:`repro.core.vectorized`: a :class:`CompiledNetlist` lowers a
:class:`~repro.hw.netlist.Netlist` once into a straight-line program of
bitwise word operations (the gate list is already levelized — gates can
only reference earlier nets — so the topological order *is* the program
order), packs W input vectors per net into one arbitrary-precision
Python int, and evaluates every gate once per W vectors using the cells'
lane-wise ``word_function`` forms.  Toggle tallies come from popcounts
of ``word ^ (word >> 1)`` transition words, so an activity run touches
each gate ``ceil(n_vectors / W)`` times instead of ``n_vectors`` times;
CPython's bignum kernels do the work 64 bits per machine word.

Such a word is a *bit plane*: bit *i* holds vector *i*.  The same planes
carry the repo's other popcount engines — the fault injection of
:mod:`repro.extensions.reliability`, the SSO tally of
:mod:`repro.analysis.sso` and the per-wire statistics of
:mod:`repro.phy.lane` — and they all build them with one packer,
:func:`pack_planes`, and read them with :func:`popcount`,
:func:`transition_count` and :func:`unpack_bits`.  The word type is
``int`` on every install; NumPy, when importable, only speeds up the
packing.

The compiled engine is *bit-identical* to the scalar interpreter: every
gate computes the same boolean function on the same operand order, and
toggle counts are exact integers (``tests/hw/test_bitsim.py`` holds the
differential parity suite).

Backend selection mirrors the encoding layer: entry points accept
``backend="auto" | "reference" | "vector"`` (default from
:func:`repro.set_default_backend` / ``REPRO_BACKEND``).  Unlike the
encoding layer, ``auto`` resolves to the bit-parallel engine even
without NumPy, because packing into Python ints is itself a large win
over the scalar interpreter.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, product
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .cells import Cell
from .netlist import ActivityReport, CONST1, Netlist

try:  # pragma: no cover - trivially true/false per environment
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Vectors packed per bit plane of assignment dicts.  16384-bit integers
#: keep per-gate bignum operations ~2 KiB — large enough to amortise the
#: per-gate Python dispatch, small enough that a whole netlist's live
#: words stay cache-resident (packed populations use
#: :data:`repro.hw.activity.ACTIVITY_CHUNK_VECTORS`).
CHUNK_VECTORS = 16384

_VALIDATION_MESSAGE = "activity simulation needs at least 2 vectors"


def resolve_sim_backend(backend: Optional[str] = None) -> str:
    """Resolve a gate-level simulation backend name.

    Accepts the library-wide backend vocabulary (``auto`` / ``reference``
    / ``vector``; ``None`` defers to :func:`repro.get_default_backend`,
    i.e. ``REPRO_BACKEND``).  Returns ``"reference"`` (scalar per-vector
    interpreter) or ``"vector"`` (bit-parallel compiled engine).  The
    gate-level ``vector`` backend does **not** require NumPy: its words
    are Python ints on every install.
    """
    from ..core.vectorized import BACKENDS, get_default_backend

    name = get_default_backend() if backend is None else backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    return "vector" if name == "auto" else name


# -- cell word forms ----------------------------------------------------------

@lru_cache(maxsize=None)
def word_function_from_truth_table(cell: Cell) -> Callable[..., int]:
    """Synthesise a lane-wise word function from a cell's scalar function.

    Fallback for :class:`~repro.hw.cells.Cell` instances without a
    hand-written ``word_function``: enumerates the 2^n-row truth table and
    builds the sum-of-products over its minterms with bitwise AND/OR and
    ``x ^ mask`` complements.
    """
    if cell.n_inputs < 1:
        raise ValueError(f"cell {cell.name!r} has no inputs")
    minterms = [combo for combo in product((0, 1), repeat=cell.n_inputs)
                if cell.function(*combo)]

    def word_function(mask, *words):
        accumulator = None
        for combo in minterms:
            term = None
            for bit, word in zip(combo, words):
                literal = word if bit else word ^ mask
                term = literal if term is None else term & literal
            accumulator = term if accumulator is None else accumulator | term
        if accumulator is None:  # constant-0 cell
            return words[0] ^ words[0]
        return accumulator

    return word_function


def word_function_for(cell: Cell) -> Callable[..., int]:
    """The cell's lane-wise word form (hand-written or synthesised)."""
    if cell.word_function is not None:
        return cell.word_function
    return word_function_from_truth_table(cell)


# -- bit planes ---------------------------------------------------------------

if hasattr(int, "bit_count"):  # Python >= 3.10
    popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9
    def popcount(word: int) -> int:
        """Set bits of one word."""
        return bin(word).count("1")


#: ``_BIT_DIGITS[p]`` translates a byte into the ASCII digit of its bit *p*.
_BIT_DIGITS = tuple(bytes(0x30 | ((value >> position) & 1)
                          for value in range(256))
                    for position in range(8))


def pack_planes(values, width: int) -> List[int]:
    """Transpose *values* into one bit-plane int per bit position.

    Bit *i* of plane *p* is bit *p* of ``values[i]``, for every
    ``p < width``; bits at or above *width* are ignored.  *values* is a
    sequence of non-negative ints, a ``bytes`` object or an integer
    array.  With NumPy, every input is packed through it (one
    ``np.packbits`` per plane, on ``uint8`` bit columns, which pack
    several times faster than wider ones).  Without it, the values are
    cut into byte columns, and each byte column, reversed so value 0
    lands in the low bit, is translated into one base-2 digit string per
    bit.  Both give the same planes.
    """
    if _np is not None:
        if isinstance(values, (bytes, bytearray)):
            array = _np.frombuffer(values, dtype=_np.uint8)
        elif isinstance(values, _np.ndarray):
            array = values
        else:
            array = _np.asarray(values, dtype=_np.int64)
        planes = []
        for position in range(width):
            bits = ((array >> position) & 1).astype(_np.uint8, copy=False)
            packed = _np.packbits(bits, bitorder="little")
            planes.append(int.from_bytes(packed.tobytes(), "little"))
        return planes
    if isinstance(values, (bytes, bytearray)):
        columns = [values[::-1]]
    else:
        if hasattr(values, "tolist"):  # an array, while NumPy is hidden
            values = values.tolist()
        columns = [bytes([(value >> shift) & 0xFF
                          for value in reversed(values)])
                   for shift in range(0, width, 8)]
    planes = [0] * width
    if columns[0]:
        for position in range(min(width, 8 * len(columns))):
            digits = columns[position >> 3].translate(
                _BIT_DIGITS[position & 7])
            planes[position] = int(digits, 2)
    return planes


def transition_count(word: int, n_vectors: int) -> int:
    """Toggles between consecutive vectors of one ``n_vectors``-bit plane.

    A plane holds no bits above its ``n_vectors`` lanes, so the top set
    bit ``word ^ (word >> 1)`` can gain is the last lane itself:
    subtract it instead of masking.
    """
    return popcount(word ^ (word >> 1)) - (word >> (n_vectors - 1))


def unpack_bits(word: int, n_vectors: int) -> List[int]:
    """Per-vector bit values of one ``n_vectors``-bit plane."""
    raw = word.to_bytes((n_vectors + 7) >> 3, "little")
    return [(raw[i >> 3] >> (i & 7)) & 1 for i in range(n_vectors)]


# -- the compiled program -----------------------------------------------------

def _compile_op(word_function: Callable[..., int], inputs: Tuple[int, ...],
                output: int):
    """Bind one gate into a closure over net indices (arity-specialised
    to keep the hot loop free of tuple unpacking)."""
    if len(inputs) == 1:
        in0, = inputs

        def op(values, mask):
            values[output] = word_function(mask, values[in0])
    elif len(inputs) == 2:
        in0, in1 = inputs

        def op(values, mask):
            values[output] = word_function(mask, values[in0], values[in1])
    elif len(inputs) == 3:
        in0, in1, in2 = inputs

        def op(values, mask):
            values[output] = word_function(mask, values[in0], values[in1],
                                           values[in2])
    else:
        def op(values, mask):
            values[output] = word_function(
                mask, *[values[net] for net in inputs])
    return op


def _chunked(iterable: Iterable, size: int) -> Iterator[List]:
    iterator = iter(iterable)
    while True:
        block = list(islice(iterator, size))
        if not block:
            return
        yield block


class CompiledNetlist:
    """A netlist lowered to a straight-line bitwise word program.

    Compilation walks the (already topological) gate list once, resolving
    each cell to its lane-wise word function and binding the net indices
    into per-gate closures.  The result is reusable across runs; build via
    :func:`compile_netlist`, which caches on the netlist instance.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.n_nets = netlist._n_nets
        self.gate_output_nets: List[int] = [gate.output
                                            for gate in netlist.gates]
        self._ops = [
            _compile_op(word_function_for(gate.cell), gate.inputs,
                        gate.output)
            for gate in netlist.gates
        ]

    # -- execution ------------------------------------------------------------
    def new_values(self, n_vectors: int) -> List[int]:
        """Fresh per-net planes for one block (constants seeded)."""
        values = [0] * self.n_nets
        values[CONST1] = (1 << n_vectors) - 1
        return values

    def run(self, values: List[int], mask: int) -> None:
        """Execute the straight-line program in place."""
        for op in self._ops:
            op(values, mask)

    # -- block assembly from assignment mappings ------------------------------
    def _pack_assignments(self, block: List[Mapping[str, int]]) -> List[int]:
        values = self.new_values(len(block))
        for name, nets in self.netlist.inputs.items():
            width = len(nets)
            column: List[int] = []
            for assignment in block:
                try:
                    value = assignment[name]
                except KeyError:
                    raise KeyError(f"missing input {name!r}") from None
                if value < 0 or value >> width:
                    raise ValueError(
                        f"input {name!r}={value} does not fit in "
                        f"{width} bits")
                column.append(value)
            for net, word in zip(nets, pack_planes(column, width)):
                values[net] = word
        return values

    def _blocks_from_assignments(self, vectors: Iterable[Mapping[str, int]],
                                 chunk_vectors: Optional[int]):
        chunk = chunk_vectors or CHUNK_VECTORS
        if chunk < 1:
            raise ValueError(f"chunk_vectors must be >= 1, got {chunk}")
        return ((len(block), self._pack_assignments(block))
                for block in _chunked(vectors, chunk))

    # -- activity -------------------------------------------------------------
    def activity_from_blocks(self, blocks) -> ActivityReport:
        """Tally per-gate toggles over pre-packed ``(n_vectors, values)``
        blocks (the low-level entry used by the packed-population fast
        path of :mod:`repro.hw.activity`)."""
        gate_nets = self.gate_output_nets
        toggles = [0] * len(gate_nets)
        tails: Optional[List[int]] = None
        total_vectors = 0
        for n_vectors, values in blocks:
            if n_vectors == 0:
                continue
            self.run(values, (1 << n_vectors) - 1)
            last = n_vectors - 1
            new_tails = [0] * len(gate_nets)
            if tails is None:
                for index, net in enumerate(gate_nets):
                    word = values[net]
                    toggles[index] += transition_count(word, n_vectors)
                    new_tails[index] = (word >> last) & 1
            else:
                for index, net in enumerate(gate_nets):
                    word = values[net]
                    toggles[index] += (transition_count(word, n_vectors)
                                       + ((word & 1) ^ tails[index]))
                    new_tails[index] = (word >> last) & 1
            tails = new_tails
            total_vectors += n_vectors
        if total_vectors < 2:
            raise ValueError(_VALIDATION_MESSAGE)
        return ActivityReport(netlist=self.netlist, gate_toggles=toggles,
                              n_cycles=total_vectors - 1)

    def simulate_activity(self, vectors: Iterable[Mapping[str, int]],
                          chunk_vectors: Optional[int] = None
                          ) -> ActivityReport:
        """Bit-parallel equivalent of :meth:`Netlist.simulate_activity`."""
        iterator = iter(vectors)
        head = list(islice(iterator, 2))
        blocks = self._blocks_from_assignments(chain(head, iterator),
                                               chunk_vectors)
        if len(head) < 2:
            raise ValueError(_VALIDATION_MESSAGE)
        return self.activity_from_blocks(blocks)

    # -- functional evaluation ------------------------------------------------
    def evaluate_batch(self, assignments: Sequence[Mapping[str, int]],
                       chunk_vectors: Optional[int] = None
                       ) -> List[Dict[str, int]]:
        """Bit-parallel equivalent of per-vector :meth:`Netlist.evaluate`."""
        results: List[Dict[str, int]] = []
        outputs = self.netlist.outputs
        for n_vectors, values in self._blocks_from_assignments(
                assignments, chunk_vectors):
            self.run(values, (1 << n_vectors) - 1)
            block_results = [dict() for _ in range(n_vectors)]
            for name, nets in outputs.items():
                columns = [unpack_bits(values[net], n_vectors)
                           for net in nets]
                for vector_index in range(n_vectors):
                    word = 0
                    for position, column in enumerate(columns):
                        word |= column[vector_index] << position
                    block_results[vector_index][name] = word
            results.extend(block_results)
        return results


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile (or fetch the cached compilation of) a netlist.

    The compiled program is cached on the netlist instance and
    invalidated when gates or nets are added afterwards.
    """
    key = (len(netlist.gates), netlist._n_nets)
    cached = getattr(netlist, "_bitsim_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    compiled = CompiledNetlist(netlist)
    netlist._bitsim_cache = (key, compiled)
    return compiled
