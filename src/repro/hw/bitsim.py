"""Bit-parallel compiled netlist simulation (the gate-level fast path).

:meth:`~repro.hw.netlist.Netlist.simulate_activity` interprets the gate
list one vector and one gate at a time — a faithful executable
specification, but every Table I activity run pays Python call overhead
per gate *per vector*.  This module is the hardware-layer analogue of
:mod:`repro.core.vectorized`: a :class:`CompiledNetlist` lowers a
:class:`~repro.hw.netlist.Netlist` once into a straight-line program of
bitwise word operations (the gate list is already levelized — gates can
only reference earlier nets — so the topological order *is* the program
order), packs W input vectors per net into one machine word, and
evaluates every gate once per W vectors using the cells' lane-wise
``word_function`` forms.  Toggle tallies come from popcounts of
``word ^ (word >> 1)`` transition words, so an activity run touches each
gate ``ceil(n_vectors / W)`` times instead of ``n_vectors`` times.

Two word implementations share the engine:

* ``"int"`` — arbitrary-precision Python integers, W = :data:`INT_CHUNK_VECTORS`
  bits per word for assignment dicts (packed populations use
  :data:`repro.hw.activity.ACTIVITY_CHUNK_VECTORS`).  Dependency-free;
  CPython's bignum kernels do the heavy lifting 64 bits per machine word.
* ``"uint64"`` — NumPy ``uint64`` lane arrays, W = 64 bits per array
  element over :data:`UINT64_CHUNK_VECTORS`-vector chunks.

Both are *bit-identical* to the scalar interpreter: every gate computes
the same boolean function on the same operand order, and toggle counts
are exact integers (``tests/hw/test_bitsim.py`` holds the differential
parity suite).

Backend selection mirrors the encoding layer: entry points accept
``backend="auto" | "reference" | "vector"`` (default from
:func:`repro.set_default_backend` / ``REPRO_BACKEND``).  Unlike the
encoding layer, ``auto`` resolves to the bit-parallel engine even
without NumPy, because the pure-Python ``int`` packing is itself a large
win over the scalar interpreter; NumPy only selects the faster word
implementation for assignment dicts, while packed populations run on
ints on every install (:func:`repro.hw.activity.measure_activity`).
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

#: Vectors packed per big-int word in the pure-Python implementation.
#: 16384-bit integers keep per-gate bignum operations ~2 KiB — large
#: enough to amortise the per-gate Python dispatch, small enough that a
#: whole netlist's live words stay cache-resident.
INT_CHUNK_VECTORS = 16384

#: Vectors per chunk in the NumPy implementation (1024 uint64 lanes per
#: net — one contiguous 8 KiB array per net value).
UINT64_CHUNK_VECTORS = 65536

#: Recognised word implementations (``auto`` = ``uint64`` when NumPy is
#: importable, else ``int``).
WORD_IMPLS = ("auto", "int", "uint64")

_VALIDATION_MESSAGE = "activity simulation needs at least 2 vectors"


def resolve_sim_backend(backend: Optional[str] = None) -> str:
    """Resolve a gate-level simulation backend name.

    Accepts the library-wide backend vocabulary (``auto`` / ``reference``
    / ``vector``; ``None`` defers to :func:`repro.get_default_backend`,
    i.e. ``REPRO_BACKEND``).  Returns ``"reference"`` (scalar per-vector
    interpreter) or ``"vector"`` (bit-parallel compiled engine).  The
    gate-level ``vector`` backend does **not** require NumPy — without it
    the engine packs into Python ints instead of ``uint64`` arrays.
    """
    from ..core.vectorized import BACKENDS, get_default_backend

    name = get_default_backend() if backend is None else backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    return "vector" if name == "auto" else name


def resolve_word_impl(word_impl: str = "auto") -> str:
    """Resolve ``auto`` to the fastest available word implementation."""
    if word_impl not in WORD_IMPLS:
        raise ValueError(
            f"unknown word_impl {word_impl!r}; choose from {WORD_IMPLS}")
    if word_impl == "auto":
        return "int" if _np is None else "uint64"
    if word_impl == "uint64" and _np is None:
        raise RuntimeError("word_impl='uint64' requires NumPy")
    return word_impl


# -- cell word forms ----------------------------------------------------------

@lru_cache(maxsize=None)
def word_function_from_truth_table(cell: Cell) -> Callable[..., int]:
    """Synthesise a lane-wise word function from a cell's scalar function.

    Fallback for :class:`~repro.hw.cells.Cell` instances without a
    hand-written ``word_function``: enumerates the 2^n-row truth table and
    builds the sum-of-products over its minterms with bitwise AND/OR and
    ``x ^ mask`` complements — valid for Python ints and NumPy words
    alike.
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


# -- word kernels -------------------------------------------------------------

class _IntKernel:
    """Word operations over arbitrary-precision Python integers."""

    name = "int"
    default_chunk = INT_CHUNK_VECTORS

    @staticmethod
    def mask(n_vectors: int) -> int:
        return (1 << n_vectors) - 1

    @staticmethod
    def valid_mask(n_vectors: int) -> int:
        """A word with exactly the ``n_vectors`` valid lanes set.

        For this kernel identical to :meth:`mask`; kept as a separate
        method because callers that popcount whole words (the
        mask-parallel fault engine in
        :mod:`repro.extensions.reliability`) must not see garbage above
        the valid range, which :meth:`mask` does permit in the ``uint64``
        kernel.
        """
        return (1 << n_vectors) - 1

    @staticmethod
    def popcount(word: int) -> int:
        """Total set bits of one word (exact, all vector lanes)."""
        return _popcount_int(word)

    @staticmethod
    def zero_word(n_vectors: int) -> int:
        return 0

    def ones_word(self, n_vectors: int) -> int:
        return self.mask(n_vectors)

    def constant_word(self, bit: int, n_vectors: int) -> int:
        return self.mask(n_vectors) if bit else 0

    @staticmethod
    def pack_bus(values: Sequence[int], width: int,
                 n_vectors: int) -> List[int]:
        """Transpose per-vector bus values into one word per bit lane."""
        n_bytes = (n_vectors + 7) >> 3
        words: List[int] = []
        for position in range(width):
            column = bytearray(n_bytes)
            for index, value in enumerate(values):
                if (value >> position) & 1:
                    column[index >> 3] |= 1 << (index & 7)
            words.append(int.from_bytes(column, "little"))
        return words

    @staticmethod
    def transition_count(word: int, n_vectors: int) -> int:
        """Toggles between consecutive vectors within one word.

        An int word holds no bits above its ``n_vectors`` lanes, so the
        top set bit ``word ^ (word >> 1)`` can gain is the last lane
        itself: subtract it instead of building a mask per call.
        """
        return _popcount_int(word ^ (word >> 1)) - (word >> (n_vectors - 1))

    @staticmethod
    def first_bit(word: int) -> int:
        return word & 1

    @staticmethod
    def last_bit(word: int, n_vectors: int) -> int:
        return (word >> (n_vectors - 1)) & 1

    @staticmethod
    def unpack_bits(word: int, n_vectors: int) -> Sequence[int]:
        """Per-vector bit values of one net word."""
        raw = word.to_bytes((n_vectors + 7) >> 3, "little")
        return [(raw[i >> 3] >> (i & 7)) & 1 for i in range(n_vectors)]


if hasattr(int, "bit_count"):  # Python >= 3.10
    _popcount_int = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9
    def _popcount_int(value: int) -> int:
        return bin(value).count("1")


class _Uint64Kernel:
    """Word operations over NumPy ``uint64`` lane arrays."""

    name = "uint64"
    default_chunk = UINT64_CHUNK_VECTORS

    def __init__(self) -> None:
        self._ones = _np.uint64(0xFFFFFFFFFFFFFFFF)
        self._u1 = _np.uint64(1)
        self._u63 = _np.uint64(63)
        if hasattr(_np, "bitwise_count"):
            self._popcount = lambda a: int(_np.bitwise_count(a).sum())
        else:  # pragma: no cover - NumPy < 2.0
            table = _np.array([bin(i).count("1") for i in range(256)],
                              dtype=_np.uint16)
            self._popcount = lambda a: int(table[a.view(_np.uint8)].sum())
        self._transition_masks: Dict[Tuple[int, int], object] = {}

    @staticmethod
    def _n_words(n_vectors: int) -> int:
        return (n_vectors + 63) >> 6

    def mask(self, n_vectors: int):
        # Lane garbage above ``n_vectors`` is harmless: gates operate
        # lane-wise and both toggle counting and unpacking mask to the
        # valid vector range.
        return self._ones

    def valid_mask(self, n_vectors: int):
        """A lane array with exactly the ``n_vectors`` valid bits set.

        Unlike :meth:`mask` (which tolerates garbage above the valid
        range), this is safe to popcount whole — the contract the
        mask-parallel fault engine relies on.
        """
        n_words = self._n_words(n_vectors)
        out = _np.zeros(n_words, dtype=_np.uint64)
        full, remainder = divmod(n_vectors, 64)
        out[:full] = self._ones
        if remainder:
            out[full] = _np.uint64((1 << remainder) - 1)
        return out

    def popcount(self, word) -> int:
        """Total set bits of one lane array (exact, all vector lanes)."""
        return self._popcount(word)

    def zero_word(self, n_vectors: int):
        return _np.zeros(self._n_words(n_vectors), dtype=_np.uint64)

    def ones_word(self, n_vectors: int):
        return _np.full(self._n_words(n_vectors), self._ones,
                        dtype=_np.uint64)

    def constant_word(self, bit: int, n_vectors: int):
        return self.ones_word(n_vectors) if bit else self.zero_word(n_vectors)

    def pack_bus(self, values, width: int, n_vectors: int) -> List[object]:
        array = _np.asarray(values, dtype=_np.int64)
        n_words = self._n_words(n_vectors)
        words: List[object] = []
        for position in range(width):
            plane = ((array >> position) & 1).astype(_np.uint8)
            packed = _np.packbits(plane, bitorder="little")
            padded = _np.zeros(n_words * 8, dtype=_np.uint8)
            padded[:packed.size] = packed
            words.append(padded.view("<u8").astype(_np.uint64, copy=False))
        return words

    def _transition_mask(self, n_vectors: int):
        n_words = self._n_words(n_vectors)
        key = (n_vectors, n_words)
        cached = self._transition_masks.get(key)
        if cached is None:
            bits = n_vectors - 1
            cached = _np.zeros(n_words, dtype=_np.uint64)
            full, remainder = divmod(bits, 64)
            cached[:full] = self._ones
            if remainder:
                cached[full] = _np.uint64((1 << remainder) - 1)
            self._transition_masks[key] = cached
        return cached

    def transition_count(self, word, n_vectors: int) -> int:
        shifted = word >> self._u1
        if word.size > 1:
            shifted[:-1] |= word[1:] << self._u63
        transitions = (word ^ shifted) & self._transition_mask(n_vectors)
        return self._popcount(transitions)

    @staticmethod
    def first_bit(word) -> int:
        return int(word[0]) & 1

    @staticmethod
    def last_bit(word, n_vectors: int) -> int:
        index = n_vectors - 1
        return (int(word[index >> 6]) >> (index & 63)) & 1

    @staticmethod
    def unpack_bits(word, n_vectors: int):
        raw = word.astype("<u8", copy=False).view(_np.uint8)
        return _np.unpackbits(raw, bitorder="little", count=n_vectors)


_KERNELS: Dict[str, object] = {"int": _IntKernel()}
if _np is not None:
    _KERNELS["uint64"] = _Uint64Kernel()


def get_kernel(word_impl: str = "auto"):
    """The word-operation kernel for a (resolved) word implementation."""
    return _KERNELS[resolve_word_impl(word_impl)]


_kernel = get_kernel


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
    into per-gate closures.  The result is reusable across runs and
    word implementations; build via :func:`compile_netlist`, which caches
    on the netlist instance.
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
    def new_values(self, kernel, n_vectors: int) -> List:
        """Fresh per-net word storage for one block (constants seeded)."""
        values = [kernel.zero_word(n_vectors)] * self.n_nets
        values[CONST1] = kernel.ones_word(n_vectors)
        return values

    def run(self, values: List, mask) -> None:
        """Execute the straight-line program in place."""
        for op in self._ops:
            op(values, mask)

    # -- block assembly from assignment mappings ------------------------------
    def _pack_assignments(self, kernel, block: List[Mapping[str, int]]):
        n_vectors = len(block)
        values = self.new_values(kernel, n_vectors)
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
            for net, word in zip(nets, kernel.pack_bus(column, width,
                                                       n_vectors)):
                values[net] = word
        return values

    def _blocks_from_assignments(self, kernel,
                                 vectors: Iterable[Mapping[str, int]],
                                 chunk_vectors: int):
        for block in _chunked(vectors, chunk_vectors):
            yield len(block), self._pack_assignments(kernel, block)

    # -- activity -------------------------------------------------------------
    def activity_from_blocks(self, kernel, blocks) -> ActivityReport:
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
            self.run(values, kernel.mask(n_vectors))
            new_tails = [0] * len(gate_nets)
            if tails is None:
                for index, net in enumerate(gate_nets):
                    word = values[net]
                    toggles[index] += kernel.transition_count(word, n_vectors)
                    new_tails[index] = kernel.last_bit(word, n_vectors)
            else:
                for index, net in enumerate(gate_nets):
                    word = values[net]
                    toggles[index] += (
                        kernel.transition_count(word, n_vectors)
                        + (kernel.first_bit(word) ^ tails[index]))
                    new_tails[index] = kernel.last_bit(word, n_vectors)
            tails = new_tails
            total_vectors += n_vectors
        if total_vectors < 2:
            raise ValueError(_VALIDATION_MESSAGE)
        return ActivityReport(netlist=self.netlist, gate_toggles=toggles,
                              n_cycles=total_vectors - 1)

    def simulate_activity(self, vectors: Iterable[Mapping[str, int]],
                          word_impl: str = "auto",
                          chunk_vectors: Optional[int] = None
                          ) -> ActivityReport:
        """Bit-parallel equivalent of :meth:`Netlist.simulate_activity`."""
        kernel = _kernel(word_impl)
        chunk = chunk_vectors or kernel.default_chunk
        if chunk < 1:
            raise ValueError(f"chunk_vectors must be >= 1, got {chunk}")
        iterator = iter(vectors)
        head = list(islice(iterator, 2))
        if len(head) < 2:
            raise ValueError(_VALIDATION_MESSAGE)
        stream = chain(head, iterator)
        return self.activity_from_blocks(
            kernel, self._blocks_from_assignments(kernel, stream, chunk))

    # -- functional evaluation ------------------------------------------------
    def evaluate_batch(self, assignments: Sequence[Mapping[str, int]],
                       word_impl: str = "auto",
                       chunk_vectors: Optional[int] = None
                       ) -> List[Dict[str, int]]:
        """Bit-parallel equivalent of per-vector :meth:`Netlist.evaluate`."""
        kernel = _kernel(word_impl)
        chunk = chunk_vectors or kernel.default_chunk
        if chunk < 1:
            raise ValueError(f"chunk_vectors must be >= 1, got {chunk}")
        results: List[Dict[str, int]] = []
        outputs = self.netlist.outputs
        for n_vectors, values in self._blocks_from_assignments(
                kernel, assignments, chunk):
            self.run(values, kernel.mask(n_vectors))
            block_results = [dict() for _ in range(n_vectors)]
            for name, nets in outputs.items():
                columns = [kernel.unpack_bits(values[net], n_vectors)
                           for net in nets]
                for vector_index in range(n_vectors):
                    word = 0
                    for position, column in enumerate(columns):
                        word |= int(column[vector_index]) << position
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
