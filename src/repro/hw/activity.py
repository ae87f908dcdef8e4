"""Switching-activity stimulus for the encoder netlists.

Builds input-vector sequences from burst workloads (matching the netlist
I/O contract of :mod:`repro.hw.encoders`) and runs them through
:meth:`~repro.hw.netlist.Netlist.simulate_activity` to obtain realistic
per-design dynamic energy — the basis of Table I's dynamic-power column.

:func:`measure_activity` accepts any :class:`~repro.workloads.population.
BurstPopulation` (or an explicit burst sequence), so Table I numbers can
be driven by the trace and patterned workloads of :mod:`repro.workloads`
as well as the default seeded uniform-random population.  On the
bit-parallel backend, rectangular populations take a packed path on
every install: each chunk's byte lanes are transposed in bulk into one
Python-int bit plane per input bit (:func:`repro.hw.bitsim.pack_planes`),
without ever materialising per-vector assignment dicts, and the
compiled netlist runs straight on those planes.
:class:`PackedPopulation` lets several designs share one draw and
packing (Table I's four).
"""

from __future__ import annotations

from itertools import chain
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.bitops import ALL_ONES_WORD
from ..core.burst import Burst
from ..workloads.population import (
    DEFAULT_CHUNK_SIZE,
    BurstPopulation,
    RandomPopulation,
    as_population,
)
from . import bitsim
from .netlist import ActivityReport, Netlist

#: Default population size for Table I activity measurement.  The paper's
#: software figures are simulated over 10k-burst populations; the
#: bit-parallel engine makes a 100k-burst gate-level run cheap enough to
#: be the default, replacing the token 200-burst workload the scalar
#: interpreter could afford.
DEFAULT_ACTIVITY_BURSTS = 100_000

#: Seed of the default random activity workload (matches the encoding
#: quality evaluation).
DEFAULT_ACTIVITY_SEED = 0x0DB1


def burst_to_vector(burst: Burst, prev_word: int = ALL_ONES_WORD,
                    alpha: Optional[int] = None,
                    beta: Optional[int] = None) -> Dict[str, int]:
    """Map one burst onto the encoder netlist input contract."""
    vector: Dict[str, int] = {
        f"byte{i}": byte for i, byte in enumerate(burst)
    }
    vector["prev_word"] = prev_word
    if alpha is not None:
        vector["alpha"] = alpha
    if beta is not None:
        vector["beta"] = beta
    return vector


def vectors_from_bursts(bursts: Iterable[Burst],
                        prev_word: int = ALL_ONES_WORD,
                        alpha: Optional[int] = None,
                        beta: Optional[int] = None) -> List[Dict[str, int]]:
    """Vector list for a whole burst population."""
    return [burst_to_vector(burst, prev_word, alpha, beta) for burst in bursts]


def iter_vectors(bursts: Iterable[Burst],
                 prev_word: int = ALL_ONES_WORD,
                 alpha: Optional[int] = None,
                 beta: Optional[int] = None) -> Iterator[Dict[str, int]]:
    """Lazy :func:`vectors_from_bursts` — one vector dict at a time, so
    large populations stream through the simulator without an up-front
    list of 100k dicts."""
    for burst in bursts:
        yield burst_to_vector(burst, prev_word, alpha, beta)


#: Vectors per chunk of the packed path: every input bit of a chunk is one
#: Python int this wide.  Wide ints amortise the per-gate dispatch and
#: tally (16,384- and 131,072-vector chunks were both slower on Table I).
ACTIVITY_CHUNK_VECTORS = 65536

#: One packed chunk: ``(n_vectors, planes)``, where ``planes[j][p]`` is the
#: int whose bit *i* is bit *p* of byte *j* of vector *i*.
PackedChunk = Tuple[int, List[List[int]]]


def _lane_planes(batch) -> List[List[int]]:
    """The bit planes of one batch, as :data:`PackedChunk` describes, one
    :func:`~repro.hw.bitsim.pack_planes` call per byte lane: a column of
    a packed ``uint8`` array, or a stride of a burst list's bytes."""
    if isinstance(batch, list):
        width = len(batch[0])
        data = bytes(chain.from_iterable(burst.data for burst in batch))
        columns = [data[lane::width] for lane in range(width)]
    else:
        columns = batch.T.copy()
    return [bitsim.pack_planes(column, 8) for column in columns]


def _iter_planes(population: BurstPopulation) -> Iterator[PackedChunk]:
    """A rectangular population as :data:`PackedChunk` s, one per
    :data:`ACTIVITY_CHUNK_VECTORS` vectors, from batches in the source's
    own form (no :class:`~repro.core.burst.Burst` is built for a random
    population with NumPy)."""
    for batch in population.iter_batches(ACTIVITY_CHUNK_VECTORS):
        yield len(batch), _lane_planes(batch)


class PackedPopulation(BurstPopulation):
    """A rectangular population drawn and packed once, however many
    designs :func:`measure_activity` simulates over it (the four of
    :func:`repro.hw.synthesis.table_one`).

    It is the population it wraps — same size, digest and bursts — and
    packs its bit planes on the first bit-parallel measurement.
    """

    def __init__(self, population: BurstPopulation):
        if population.burst_length is None:
            raise ValueError("ragged population cannot be packed")
        self.population = population
        self._planes: Optional[List[PackedChunk]] = None

    @property
    def burst_length(self) -> int:
        return self.population.burst_length

    def __len__(self) -> int:
        return len(self.population)

    def digest(self) -> str:
        return self.population.digest()

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator[List[Burst]]:
        return self.population.iter_chunks(chunk_size)

    def planes(self) -> List[PackedChunk]:
        """Every packed chunk, drawn and packed on the first call."""
        if self._planes is None:
            self._planes = list(_iter_planes(self.population))
        return self._planes


def _packed_activity(netlist: Netlist, packed_chunks: Iterable[PackedChunk],
                     burst_length: int, prev_word: int,
                     alpha: Optional[int],
                     beta: Optional[int]) -> ActivityReport:
    """Bit-parallel activity straight from packed bit planes.

    Bypasses assignment-dict construction entirely: each byte lane's
    planes drive its input nets as they are, and the
    ``prev_word``/coefficient buses (constant across the workload)
    become constant words.
    """
    compiled = bitsim.compile_netlist(netlist)
    inputs = netlist.inputs

    # Mirror the per-vector contract of burst_to_vector exactly: any
    # input bus the workload does not drive is a missing input, just as
    # it would be in the scalar assignment path.
    provided = {"prev_word": prev_word}
    if alpha is not None:
        provided["alpha"] = alpha
    if beta is not None:
        provided["beta"] = beta
    constant_buses: List[tuple] = []
    byte_buses: List[tuple] = []
    for name, nets in inputs.items():
        if name.startswith("byte") and name[4:].isdigit():
            byte_buses.append((int(name[4:]), nets))
            continue
        try:
            value = provided[name]
        except KeyError:
            raise KeyError(f"missing input {name!r}") from None
        if value < 0 or value >> len(nets):
            raise ValueError(
                f"input {name!r}={value} does not fit in {len(nets)} bits")
        constant_buses.append((value, nets))

    for index, _nets in byte_buses:
        if index >= burst_length:
            raise KeyError(f"missing input {f'byte{index}'!r}")

    def blocks():
        for n_vectors, planes in packed_chunks:
            values = compiled.new_values(n_vectors)
            ones = (1 << n_vectors) - 1
            for value, nets in constant_buses:
                for position, net in enumerate(nets):
                    values[net] = ones if (value >> position) & 1 else 0
            for index, nets in byte_buses:
                lane = planes[index]
                width = len(nets)
                # Mirror the scalar overflow check: a byte lane narrower
                # than 8 bits must reject values that do not fit instead
                # of silently truncating.
                overflow = 0
                for plane in lane[width:]:
                    overflow |= plane
                if overflow:
                    first = (overflow & -overflow).bit_length() - 1
                    value = sum(((plane >> first) & 1) << position
                                for position, plane in enumerate(lane))
                    raise ValueError(
                        f"input 'byte{index}'={value} does not fit in "
                        f"{width} bits")
                for position, net in enumerate(nets):
                    values[net] = lane[position] if position < 8 else 0
            yield n_vectors, values

    return compiled.activity_from_blocks(blocks())


def measure_activity(netlist: Netlist, n_bursts: Optional[int] = None,
                     burst_length: int = 8, seed: int = DEFAULT_ACTIVITY_SEED,
                     alpha: Optional[int] = None,
                     beta: Optional[int] = None,
                     population: Optional[BurstPopulation] = None,
                     bursts: Optional[Iterable[Burst]] = None,
                     backend: Optional[str] = None) -> ActivityReport:
    """Burst-workload activity of an encoder netlist.

    The workload is, in order of precedence: ``population`` (any
    :class:`~repro.workloads.population.BurstPopulation` — random, trace
    or patterned), ``bursts`` (an explicit burst sequence), or a seeded
    uniform-random population of ``n_bursts`` bursts (default
    :data:`DEFAULT_ACTIVITY_BURSTS` — the same nominal-traffic model as
    the paper's encoding quality evaluation).

    ``backend`` selects the simulation engine exactly as in
    :meth:`~repro.hw.netlist.Netlist.simulate_activity`; workload
    validation (at least two bursts) lives in the simulator, not here.
    """
    if population is not None and bursts is not None:
        raise ValueError("pass either population= or bursts=, not both")
    if bursts is not None:
        population = as_population(bursts)
    if population is None:
        # RandomPopulation matches random_bursts byte-for-byte with or
        # without NumPy (a standard-library copy of NumPy's stream
        # without it), so Table I is available, and the same, in any
        # environment.
        population = RandomPopulation(
            count=DEFAULT_ACTIVITY_BURSTS if n_bursts is None else n_bursts,
            burst_length=burst_length, seed=seed)
    elif n_bursts is not None and n_bursts != len(population):
        raise ValueError(
            f"n_bursts={n_bursts} conflicts with population of "
            f"{len(population)} bursts")

    resolved = bitsim.resolve_sim_backend(backend)
    if resolved == "vector" and population.burst_length is not None:
        chunks = (population.planes()
                  if isinstance(population, PackedPopulation)
                  else _iter_planes(population))
        return _packed_activity(netlist, chunks, population.burst_length,
                                ALL_ONES_WORD, alpha, beta)
    return netlist.simulate_activity(
        iter_vectors(population, alpha=alpha, beta=beta), backend=backend)


def encode_with_netlist(netlist: Netlist, burst: Burst,
                        prev_word: int = ALL_ONES_WORD,
                        alpha: Optional[int] = None,
                        beta: Optional[int] = None) -> Mapping[str, int]:
    """Evaluate an encoder netlist on one burst (functional use).

    Returns the raw output map (``flags`` plus ``word0..``); see
    :func:`netlist_invert_flags` for the decoded flag tuple.
    """
    return netlist.evaluate(burst_to_vector(burst, prev_word, alpha, beta))


def netlist_invert_flags(netlist: Netlist, burst: Burst,
                         prev_word: int = ALL_ONES_WORD,
                         alpha: Optional[int] = None,
                         beta: Optional[int] = None) -> Sequence[bool]:
    """The invert-flag tuple an encoder netlist chooses for *burst*."""
    outputs = encode_with_netlist(netlist, burst, prev_word, alpha, beta)
    flags = outputs["flags"]
    return tuple(bool((flags >> i) & 1) for i in range(len(burst)))
