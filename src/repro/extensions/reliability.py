"""Reliability of DBI links under wire faults and encoder errors.

Two very different failure modes matter for DBI, and the paper's remark
about analog encoder implementations ("rare inaccurate encoding decisions
are unlikely to cause application errors") rests on the distinction:

* A **wrong encoding decision** (the encoder picks a suboptimal invert
  flag) is *harmless for correctness*: the DBI bit transmitted alongside
  the data always describes what was done, so the receiver still decodes
  the exact payload — only energy is wasted.
  :func:`wrong_decision_is_harmless` demonstrates this exhaustively.

* A **wire fault** (a lane sampled wrongly) corrupts data, and DBI
  *amplifies* faults on the DBI lane: flipping it complements the entire
  byte (8 wrong bits), whereas a data-lane fault stays a single-bit error.
  :func:`error_amplification` and :func:`fault_sweep` quantify this —
  the hidden reliability cost of any inversion code.

Backend selection
-----------------
The Monte Carlo sweeps come in two forms.  :func:`fault_sweep` and the
``reference`` branch of :func:`fault_coverage_rows` are the
specification: they encode every burst with its scheme, XOR the fault
masks into the wire words and decode them one word at a time.  The
batched engines, :func:`fault_sweep_batch` and
:func:`fault_coverage_curve`, rest on the fact stated by
:func:`_error_planes`: the DBI bit always describes what was sent, so a
fault mask changes the decoded byte of every wire word by the same
amount.  Decoded errors therefore depend on the masks alone, never on
the scheme or the data, and the batched engines encode nothing: a
single-lane sweep counts its DBI-lane draws, and a coverage row is
tallied by popcounts of its rate's mask planes, once for every scheme
that asks for that rate.  Entry points accept ``backend="auto" |
"reference" | "vector"``; like the gate-level layer
(:func:`repro.hw.bitsim.resolve_sim_backend`), ``auto`` resolves to the
batched engines even without NumPy.  Each fault rate's masks come from
one ``random.Random`` stream, drawn per lane by :func:`draw_fault_masks`
and, with NumPy, decoded in bulk by :func:`fault_mask_planes`, so
statistics are bit-identical across backends and the CI NumPy matrix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.bitops import (
    BYTE_WIDTH,
    WORD_WIDTH,
    decode_word,
    popcount,
)
from ..core.burst import Burst, as_bursts
from ..core.schemes import DbiScheme, EncodedBurst
from ..core.vectorized import pack_bursts
from ..hw import bitsim
from ..hw.bitsim import resolve_sim_backend
from ..workloads.population import BurstPopulation
from . import DEFAULT_FAULT_RATES


def decode_with_faults(words: Sequence[int],
                       fault_masks: Sequence[int]) -> Burst:
    """Decode wire words after XOR-ing each with its fault mask.

    ``fault_masks[i]`` has a 1 in every lane sampled wrongly during beat
    *i* (bit 8 = the DBI lane).

    >>> from repro.core.bitops import make_word
    >>> decode_with_faults([make_word(0x0F, False)], [0x100]).data
    (240,)
    """
    if len(words) != len(fault_masks):
        raise ValueError(f"{len(fault_masks)} masks for {len(words)} words")
    corrupted = []
    for word, mask in zip(words, fault_masks):
        if not 0 <= mask < (1 << WORD_WIDTH):
            raise ValueError(f"fault mask out of range: {mask}")
        corrupted.append(word ^ mask)
    return Burst(decode_word(word) for word in corrupted)


def error_amplification(encoded: EncodedBurst, beat: int,
                        lane: int) -> int:
    """Decoded bit errors caused by one single-lane fault.

    *lane* 0-7 are data lanes, lane 8 is the DBI lane.

    >>> from repro.baselines import Raw
    >>> from repro.core.burst import Burst
    >>> enc = Raw().encode(Burst([0x55]))
    >>> error_amplification(enc, beat=0, lane=8)
    8
    """
    if not 0 <= lane < WORD_WIDTH:
        raise ValueError(f"lane must be in [0, {WORD_WIDTH}), got {lane}")
    if not 0 <= beat < len(encoded):
        raise IndexError(f"beat {beat} out of range")
    masks = [0] * len(encoded)
    masks[beat] = 1 << lane
    decoded = decode_with_faults(encoded.words, masks)
    return sum(popcount(a ^ b) for a, b in zip(decoded, encoded.burst))


def wrong_decision_is_harmless(burst: Burst, scheme: DbiScheme) -> bool:
    """True iff flipping any single *encoding decision* still round-trips.

    This is the property behind the paper's analog-implementation remark:
    a mis-decided invert flag changes what is on the wire *and* the DBI
    bit together, so the receiver always recovers the payload.
    """
    baseline = scheme.encode(burst)
    for index in range(len(burst)):
        flags = list(baseline.invert_flags)
        flags[index] = not flags[index]
        perturbed = EncodedBurst(burst=burst, invert_flags=tuple(flags),
                                 prev_word=baseline.prev_word)
        if perturbed.decode().data != burst.data:
            return False
    return True


@dataclass(frozen=True)
class FaultStatistics:
    """Aggregate decoded-error statistics from a random-fault sweep."""

    injected_faults: int
    total_bit_errors: int
    dbi_lane_faults: int
    dbi_lane_bit_errors: int

    @property
    def mean_amplification(self) -> float:
        """Decoded bit errors per injected single-lane fault."""
        return (self.total_bit_errors / self.injected_faults
                if self.injected_faults else 0.0)

    @property
    def dbi_amplification(self) -> float:
        """Decoded bit errors per DBI-lane fault (always the byte width)."""
        return (self.dbi_lane_bit_errors / self.dbi_lane_faults
                if self.dbi_lane_faults else 0.0)


def draw_fault_positions(lengths: Sequence[int], faults_per_burst: int,
                         seed: int) -> List[List[Tuple[int, int]]]:
    """Per-burst uniform ``(beat, lane)`` fault draws, burst-major order.

    The single RNG draw path shared by :func:`fault_sweep` and
    :func:`fault_sweep_batch`: a pure-Python ``random.Random(seed)``
    stream (no NumPy), consuming two uniform variates per fault —
    ``int(random() * length)`` for the beat, then ``int(random() * 9)``
    for the lane — for each fault of each burst in population order.
    Sharing the draws is what makes the two sweeps bit-identical on the
    same seed.  (The multiply draw is exact for these tiny ranges and
    several times faster than ``randrange``, which matters because the
    draw is all the batched sweep does.)
    """
    if faults_per_burst < 1:
        raise ValueError("faults_per_burst must be >= 1")
    uniform = random.Random(seed).random
    return [
        [(int(uniform() * length), int(uniform() * WORD_WIDTH))
         for _ in range(faults_per_burst)]
        for length in lengths
    ]


def fault_sweep(scheme: DbiScheme, bursts: Sequence[Burst],
                faults_per_burst: int = 1, seed: int = 7) -> FaultStatistics:
    """Inject uniform single-lane faults and tally decoded bit errors.

    Each fault picks a uniform (beat, lane) in the encoded burst.  A
    data-lane fault contributes exactly 1 wrong decoded bit and a
    DBI-lane fault complements the whole byte (8 wrong bits), so with 8
    data lanes and 1 DBI lane the expected amplification per fault is
    ``(8·1 + 1·8) / 9 = 16/9 ≈ 1.78`` — versus exactly 1.0 for a bus
    without DBI.  A small exhaustive sweep confirms the expectation:

    >>> from repro.baselines import Raw
    >>> from repro.core.burst import Burst
    >>> encoded = Raw().encode(Burst([0xA5]))
    >>> total = sum(error_amplification(encoded, beat=0, lane=lane)
    ...             for lane in range(WORD_WIDTH))
    >>> total, total / WORD_WIDTH == 16 / 9
    (16, True)

    This is the per-burst reference implementation (one Python decode
    per fault); :func:`fault_sweep_batch` computes identical statistics
    without encoding.
    """
    bursts = list(as_bursts(bursts))
    positions = draw_fault_positions([len(burst) for burst in bursts],
                                     faults_per_burst, seed)
    injected = 0
    total_errors = 0
    dbi_faults = 0
    dbi_errors = 0
    for burst, faults in zip(bursts, positions):
        encoded = scheme.encode(burst)
        for beat, lane in faults:
            errors = error_amplification(encoded, beat, lane)
            injected += 1
            total_errors += errors
            if lane == BYTE_WIDTH:
                dbi_faults += 1
                dbi_errors += errors
    return FaultStatistics(injected_faults=injected,
                           total_bit_errors=total_errors,
                           dbi_lane_faults=dbi_faults,
                           dbi_lane_bit_errors=dbi_errors)


# -- the batched fault engine ----------------------------------------------

def _error_planes(mask_planes: List[int]) -> List[int]:
    """Per data lane, the decoded bits that the fault *mask_planes* (one
    per wire lane, one bit per wire word) corrupt.

    The batched engines' one statement of the DBI decode.  The DBI bit
    says whether the byte was sent inverted, so flipping it complements
    the decoded byte whatever the wire word *w* held, and for every fault
    mask *m*: ``decode_word(w ^ m) ^ decode_word(w) == (m & 0xFF) ^ (0xFF
    if m & 0x100 else 0)``.  Data lane *l*'s error plane is its mask
    plane XOR the DBI lane's.
    """
    dbi = mask_planes[BYTE_WIDTH]
    return [mask_planes[lane] ^ dbi for lane in range(BYTE_WIDTH)]


def _beat_counts(bursts) -> List[int]:
    """Beats per burst, each burst checked as encoding it would be (a
    ``ValueError`` for an empty burst or a byte out of range): a packed
    ``(batch, n)`` array by its shape, anything else burst by burst."""
    if hasattr(bursts, "shape"):
        batch, length = pack_bursts(bursts).shape
        return [length] * batch
    return [len(burst) for burst in as_bursts(bursts)]


def _beat_total(bursts) -> int:
    """Beats in *bursts*: a rectangular population's from its shape, so
    none of its bursts is drawn, anything else by :func:`_beat_counts`."""
    if isinstance(bursts, BurstPopulation) and bursts.burst_length is not None:
        return len(bursts) * bursts.burst_length
    return sum(_beat_counts(bursts))


def fault_sweep_batch(scheme: DbiScheme, bursts: Sequence[Burst],
                      faults_per_burst: int = 1, seed: int = 7,
                      backend: Optional[str] = None) -> FaultStatistics:
    """Batched :func:`fault_sweep`: identical statistics, no encode.

    Draws the same ``(beat, lane)`` faults as :func:`fault_sweep` (the
    shared :func:`draw_fault_positions` stream) and counts the DBI-lane
    draws: by :func:`_error_planes`, a single-lane fault decodes to one
    wrong bit on a data lane and to eight on the DBI lane, whatever the
    scheme put on the wire.  The result is bit-identical to
    :func:`fault_sweep` on the same seed, at millions of faults per
    second instead of thousands.

    ``backend`` follows :func:`repro.hw.bitsim.resolve_sim_backend`
    (``auto`` picks the batched engine even without NumPy;
    ``reference`` delegates to the per-burst sweep).
    """
    if faults_per_burst < 1:
        raise ValueError("faults_per_burst must be >= 1")
    if resolve_sim_backend(backend) == "reference":
        return fault_sweep(scheme, bursts, faults_per_burst, seed)
    positions = draw_fault_positions(_beat_counts(bursts), faults_per_burst,
                                     seed)
    lanes = [lane for faults in positions for _beat, lane in faults]
    dbi_faults = lanes.count(BYTE_WIDTH)
    return FaultStatistics(
        injected_faults=len(lanes),
        total_bit_errors=len(lanes) - dbi_faults + BYTE_WIDTH * dbi_faults,
        dbi_lane_faults=dbi_faults,
        dbi_lane_bit_errors=BYTE_WIDTH * dbi_faults)


def _mask_stream(rate: float, seed: int) -> random.Random:
    """The ``(seed, rate)`` mask stream, after validating the rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    return random.Random(f"{seed}:{float(rate).hex()}")


def draw_fault_masks(n_words: int, rate: float, seed: int) -> List[int]:
    """Multi-lane fault masks: each of the 9 lanes of each of ``n_words``
    wire words flips independently with probability *rate*.

    The stream is seeded per ``(seed, rate)`` through a string key (str
    seeds hash deterministically in ``random.Random``, unaffected by
    ``PYTHONHASHSEED``), so a rate's masks do not depend on which other
    rates a sweep includes — the property that makes coverage rows
    individually cacheable by the experiment engine.  This per-lane loop
    is the reference (and the NumPy-free path) of
    :func:`fault_mask_planes`.
    """
    rng = _mask_stream(rate, seed)
    masks: List[int] = []
    for _ in range(n_words):
        mask = 0
        for lane in range(WORD_WIDTH):
            if rng.random() < rate:
                mask |= 1 << lane
        masks.append(mask)
    return masks


#: Wire words per block of the bulk mask draw: a multiple of 8, so each
#: block fills whole plane bytes, and ~1 MiB of generator output per
#: block bounds the draw's memory.
MASK_DRAW_BLOCK_WORDS = 1 << 14


def fault_mask_planes(n_words: int, rate: float, seed: int) -> List[int]:
    """:func:`draw_fault_masks` packed into one plane per wire lane.

    Always equal to ``bitsim.pack_planes(draw_fault_masks(n_words, rate,
    seed), WORD_WIDTH)``, which is what it computes without NumPy.  With
    NumPy it decodes the same ``random.Random`` stream in bulk instead of
    calling ``random()`` per lane.  Each ``random()`` value is ``((a >>
    5) * 2**26 + (b >> 6)) * 2**-53`` for two consecutive 32-bit Mersenne
    Twister outputs *a*, *b*, and ``getrandbits`` returns those same
    outputs, least significant word first, on every platform — so one
    ``getrandbits(64 * 9 * count)`` block, read as little-endian
    ``uint32`` words, yields the next ``9 * count`` values.  They are
    formed and compared with the rate by the same (exact) float64
    operations, and each lane column is bit-packed straight into its
    plane.
    """
    try:
        import numpy as np
    except ImportError:
        return bitsim.pack_planes(draw_fault_masks(n_words, rate, seed),
                                  WORD_WIDTH)
    rng = _mask_stream(rate, seed)
    columns = np.zeros((WORD_WIDTH, (n_words + 7) >> 3), dtype=np.uint8)
    for start in range(0, n_words, MASK_DRAW_BLOCK_WORDS):
        count = min(MASK_DRAW_BLOCK_WORDS, n_words - start)
        n_bytes = 8 * WORD_WIDTH * count  # two outputs per random()
        outputs = np.frombuffer(
            rng.getrandbits(8 * n_bytes).to_bytes(n_bytes, "little"),
            dtype="<u4")
        uniform = (((outputs[0::2] >> 5).astype(np.float64) * 67108864.0
                    + (outputs[1::2] >> 6))
                   * (1.0 / 9007199254740992.0))
        hits = (uniform < rate).reshape(count, WORD_WIDTH)
        packed = np.packbits(hits, axis=0, bitorder="little")
        first = start >> 3
        columns[:, first:first + packed.shape[0]] = packed.T
    return [int.from_bytes(column.tobytes(), "little") for column in columns]


@dataclass(frozen=True)
class FaultCoverageRow:
    """One fault-rate point of a coverage curve.

    ``injected_faults`` counts lane-beat flips actually injected,
    ``bit_errors`` the wrong decoded data bits they caused,
    ``corrupted_beats`` the beats decoding to a wrong byte.
    """

    rate: float
    injected_faults: int
    total_beats: int
    bit_errors: int
    corrupted_beats: int
    dbi_lane_faults: int

    @property
    def bit_error_rate(self) -> float:
        """Wrong decoded data bits per transmitted data bit."""
        total_bits = BYTE_WIDTH * self.total_beats
        return self.bit_errors / total_bits if total_bits else 0.0

    @property
    def beat_error_rate(self) -> float:
        """Fraction of beats whose decoded byte is wrong."""
        return (self.corrupted_beats / self.total_beats
                if self.total_beats else 0.0)

    @property
    def amplification(self) -> float:
        """Decoded bit errors per injected lane fault."""
        return (self.bit_errors / self.injected_faults
                if self.injected_faults else 0.0)


def fault_coverage_curve(scheme: DbiScheme, bursts: Sequence[Burst],
                         rates: Sequence[float] = DEFAULT_FAULT_RATES,
                         seed: int = 7, backend: Optional[str] = None
                         ) -> List[FaultCoverageRow]:
    """Decoded-error statistics versus raw fault rate, one row per rate.

    Every lane-beat of the population's wire words flips independently
    with probability ``rate`` (so beats can take multi-lane faults,
    unlike the single-lane sweeps), from fresh :func:`draw_fault_masks`
    per rate.  Under ``reference`` the population is encoded once and
    every corrupted word decoded; the batched engine tallies the masks
    alone (:func:`_error_planes`), so the rows, bit-identical either
    way, are the same for every scheme.
    """
    return list(fault_coverage_rows([(scheme, rate) for rate in rates],
                                    bursts, seed, backend))


def fault_coverage_rows(tasks: Iterable[Tuple[DbiScheme, float]],
                        bursts: Sequence[Burst], seed: int = 7,
                        backend: Optional[str] = None
                        ) -> Iterator[FaultCoverageRow]:
    """:func:`fault_coverage_curve` rows of ``(scheme, rate)`` tasks, in
    task order; *bursts* may also be a population.

    A row depends only on the seed, the rate and the beat count.  The
    batched engine tallies each distinct rate once, from its
    :func:`fault_mask_planes`, and yields that row for every task that
    asks for the rate; it counts a rectangular population's beats
    without drawing its bursts.  The ``reference`` branch, the
    specification, encodes the bursts once per run of consecutive tasks
    with one scheme and draws each rate's masks once per call.
    """
    if resolve_sim_backend(backend) == "vector":
        total = _beat_total(bursts)
        rows: Dict[float, FaultCoverageRow] = {}
        for __, rate in tasks:
            if rate not in rows:
                rows[rate] = _masked_coverage_row(
                    fault_mask_planes(total, rate, seed), rate, total)
            yield rows[rate]
        return
    if iter(bursts) is bursts or isinstance(bursts, BurstPopulation):
        bursts = list(bursts)
    draws: Dict[float, List[int]] = {}
    for scheme, group in itertools.groupby(tasks, key=lambda task: task[0]):
        # Flattened burst-major, beat-minor: the order of the draw.
        values = [word for row in scheme.wire_words(bursts,
                                                    backend="reference")
                  for word in row]
        for __, rate in group:
            if rate not in draws:
                draws[rate] = draw_fault_masks(len(values), rate, seed)
            yield _reference_coverage_row(values, draws[rate], rate)


def _masked_coverage_row(mask_planes: List[int], rate: float,
                         total: int) -> FaultCoverageRow:
    """One coverage row from a rate's mask planes alone, by popcounts."""
    bit_errors = 0
    union = 0
    for diff in _error_planes(mask_planes):
        bit_errors += bitsim.popcount(diff)
        union |= diff
    return FaultCoverageRow(
        rate=float(rate),
        injected_faults=sum(bitsim.popcount(plane) for plane in mask_planes),
        total_beats=total,
        bit_errors=bit_errors,
        corrupted_beats=bitsim.popcount(union),
        dbi_lane_faults=bitsim.popcount(mask_planes[BYTE_WIDTH]))


def _reference_coverage_row(values: Sequence[int], masks: Sequence[int],
                            rate: float) -> FaultCoverageRow:
    """One coverage row, one decode per wire word."""
    injected = 0
    bit_errors = 0
    corrupted = 0
    dbi_faults = 0
    for word, mask in zip(values, masks):
        injected += popcount(mask)
        dbi_faults += (mask >> BYTE_WIDTH) & 1
        diff = decode_word(word ^ mask) ^ decode_word(word)
        errors = popcount(diff)
        bit_errors += errors
        corrupted += 1 if errors else 0
    return FaultCoverageRow(
        rate=float(rate), injected_faults=injected, total_beats=len(values),
        bit_errors=bit_errors, corrupted_beats=corrupted,
        dbi_lane_faults=dbi_faults)
