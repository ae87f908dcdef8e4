"""Burst population sources for the experiment engine.

A :class:`BurstPopulation` is a *deterministic, content-addressed* source
of bursts: it knows its size, yields bursts in fixed-size chunks (so
million-burst experiments never hold a whole population in memory), and
exposes a :meth:`~BurstPopulation.digest` that identifies its exact
content — the population half of the experiment engine's activity-cache
key (:class:`repro.sim.experiments.ActivityCache`).

Two concrete sources cover the paper's experiments:

* :class:`RandomPopulation` — the declarative form of
  :func:`repro.workloads.random_data.random_bursts`: it regenerates
  byte-for-byte the same bursts from ``(count, burst_length, seed)`` on
  every install, without ever being serialised, so a process-pool
  worker can rebuild it from a tiny pickle.  With NumPy the bytes come
  from ``default_rng``; without it, from :class:`_Pcg64Bytes`, a
  standard-library copy of the same generator, so one seed gives one
  population and one set of printed numbers on both installs.
* :class:`ExplicitPopulation` — wraps an in-memory ``Sequence[Burst]``
  (the legacy sweep-function inputs); its digest hashes the burst bytes.

Chunked iteration is exact: for every source, the concatenation of
``iter_chunks()`` equals ``bursts()`` equals the monolithic generation
(for :class:`RandomPopulation` this relies on NumPy's bit-stream
generators filling bounded-integer draws sequentially, and on the
standard-library stream carrying its state from chunk to chunk, which
the test suite pins).
"""

from __future__ import annotations

import abc
import hashlib
import numbers
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..core.burst import DEFAULT_BURST_LENGTH, Burst

try:  # pragma: no cover - trivially true/false per environment
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Bursts per chunk when streaming a population (512 KiB of payload at
#: the JEDEC burst length — small enough to stay cache-friendly, large
#: enough that the vector backend amortises its per-call overhead).
DEFAULT_CHUNK_SIZE = 65536

#: Fixed RNG draw granularity (rows) for random populations.  NumPy's
#: bounded-integer sampling discards a partially consumed buffer word at
#: the end of every call, so draws must happen at a chunk-size-independent
#: granularity for the byte stream to be invariant to how a consumer
#: chunks it.  65536 rows × any burst length is a multiple of 4 bytes
#: (one 32-bit buffer word), so consecutive whole blocks concatenate
#: bit-identically to a single monolithic draw.
GENERATION_BLOCK = 65536

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> List[int]:
    """NumPy's ``SeedSequence(seed).generate_state(8)``: the seed's
    little-endian 32-bit words hashed into a four-word pool, every pool
    word mixed into every other, then eight words hashed out of it."""
    entropy = [seed >> shift & _MASK32
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


class _Pcg64Bytes:
    """``np.random.default_rng(seed).integers(0, 256, dtype=np.uint8)``
    as one byte stream, in the standard library.

    ``default_rng`` seeds PCG64, a 128-bit LCG with XSL-RR output, from
    :func:`_seed_sequence_words`, and a uint8 draw hands out the
    little-endian bytes of each 64-bit output in turn.  :meth:`read`
    continues the stream: an output's unread bytes open the next read.
    """

    def __init__(self, seed: int):
        # ``generate_state(4, np.uint64)`` pairs the words little-endian;
        # PCG64 reads the first pair as its state and the second as its
        # stream, high word first.
        words = _seed_sequence_words(seed)
        seeded = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((seeded[2] << 64 | seeded[3]) << 1 | 1) & _MASK128
        # Step from zero, add the seeded state, step again.
        self._state = ((self._inc + (seeded[0] << 64 | seeded[1]))
                       * _PCG64_MULTIPLIER + self._inc) & _MASK128
        self._spill = b""

    def read(self, size: int) -> bytes:
        """The next *size* bytes of the stream."""
        count = max(0, -((len(self._spill) - size) // 8))
        state, inc = self._state, self._inc
        outputs = [0] * count
        for k in range(count):
            state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
            folded = (state >> 64 ^ state) & _MASK64
            outputs[k] = (folded << 64 | folded) >> (state >> 122) & _MASK64
        self._state = state
        data = self._spill + struct.pack(f"<{count}Q", *outputs)
        self._spill = data[size:]
        return data[:size]


class BurstPopulation(abc.ABC):
    """Deterministic burst source consumed chunk-by-chunk by the engine."""

    @property
    @abc.abstractmethod
    def burst_length(self) -> Optional[int]:
        """Common burst length, or ``None`` when the population is ragged
        (ragged populations always take the per-burst reference path)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of bursts."""

    @abc.abstractmethod
    def digest(self) -> str:
        """Stable content identifier (equal digests ⇒ equal bursts)."""

    @abc.abstractmethod
    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator[List[Burst]]:
        """Yield the population as consecutive lists of ≤ *chunk_size*."""

    def iter_packed(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        """Yield packed ``(chunk, burst_length)`` ``uint8`` arrays.

        The fast lane of the vector backend: sources that can produce
        arrays directly (e.g. :class:`RandomPopulation`) override this to
        skip :class:`~repro.core.burst.Burst` object construction
        entirely.  Requires NumPy and a rectangular population.
        """
        from ..core.vectorized import pack_bursts

        if self.burst_length is None:
            raise ValueError("ragged population cannot be packed")
        for chunk in self.iter_chunks(chunk_size):
            yield pack_bursts(chunk)

    def iter_batches(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator:
        """Yield chunks of ≤ *chunk_size* in the source's own form: burst
        lists, or packed arrays from :class:`RandomPopulation` with
        NumPy (:meth:`~repro.core.schemes.DbiScheme.wire_words` takes
        either)."""
        return self.iter_chunks(chunk_size)

    def to_bytes(self) -> bytes:
        """Every burst's bytes, back to back (a replay payload); packed
        chunks whenever NumPy can pack the population, so no
        :class:`~repro.core.burst.Burst` objects are built."""
        if _np is not None and self.burst_length is not None:
            return b"".join(data.tobytes() for data in self.iter_packed())
        return b"".join(bytes(burst.data) for burst in self)

    def bursts(self) -> List[Burst]:
        """Materialise the whole population as a list."""
        out: List[Burst] = []
        for chunk in self.iter_chunks():
            out.extend(chunk)
        return out

    def __iter__(self) -> Iterator[Burst]:
        for chunk in self.iter_chunks():
            yield from chunk


@dataclass(frozen=True)
class RandomPopulation(BurstPopulation):
    """Declarative iid uniform-random population (Fig. 3/4 workload).

    Reproduces :func:`repro.workloads.random_data.random_bursts`
    byte-for-byte on every install: NumPy's ``default_rng`` draws the
    bytes when it is installed, :class:`_Pcg64Bytes` draws the same
    bytes when it is not.  The digest's ``np`` tag names that generator;
    artifacts from older NumPy-free runs, whose ``random.Random`` stream
    was tagged ``py``, load render-only.
    """

    count: int
    burst_length: int = DEFAULT_BURST_LENGTH
    seed: int = 0x0DB1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.burst_length < 1:
            raise ValueError(
                f"burst_length must be >= 1, got {self.burst_length}")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")

    def __len__(self) -> int:
        return self.count

    def digest(self) -> str:
        return (f"random:{self.count}x{self.burst_length}"
                f":seed={self.seed}:np")

    def _chunk_sizes(self, chunk_size: int) -> Iterator[int]:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        remaining = self.count
        while remaining:
            step = min(chunk_size, remaining)
            yield step
            remaining -= step

    def _generation_blocks(self):
        """RNG draws at the fixed :data:`GENERATION_BLOCK` granularity,
        so the produced byte stream never depends on the consumer's
        chunk size (see the constant's docstring)."""
        rng = _np.random.default_rng(self.seed)
        remaining = self.count
        while remaining:
            step = min(GENERATION_BLOCK, remaining)
            yield rng.integers(0, 256, size=(step, self.burst_length),
                               dtype=_np.uint8)
            remaining -= step

    def iter_packed(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if _np is None:
            raise RuntimeError("iter_packed requires NumPy")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        carry = None
        for block in self._generation_blocks():
            if carry is not None and len(carry):
                block = _np.concatenate([carry, block])
            start = 0
            while len(block) - start >= chunk_size:
                yield block[start:start + chunk_size]
                start += chunk_size
            carry = block[start:]
        if carry is not None and len(carry):
            yield carry

    def iter_batches(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator:
        if _np is None:
            return self.iter_chunks(chunk_size)
        return self.iter_packed(chunk_size)

    def to_bytes(self) -> bytes:
        """Without NumPy, the bytes read straight from the stream."""
        if _np is None:
            return _Pcg64Bytes(self.seed).read(self.count * self.burst_length)
        return super().to_bytes()

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator[List[Burst]]:
        if _np is not None:
            for data in self.iter_packed(chunk_size):
                yield [Burst(row.tolist()) for row in data]
            return
        stream = _Pcg64Bytes(self.seed)
        width = self.burst_length
        for step in self._chunk_sizes(chunk_size):
            data = stream.read(step * width)
            yield [Burst(data[start:start + width])
                   for start in range(0, len(data), width)]


class ExplicitPopulation(BurstPopulation):
    """An in-memory burst sequence (the legacy sweep-function input)."""

    def __init__(self, bursts: Sequence[Burst]):
        burst_list = [burst if isinstance(burst, Burst) else Burst(burst)
                      for burst in bursts]
        if not burst_list:
            raise ValueError("burst population is empty")
        self._bursts = tuple(burst_list)
        lengths = {len(burst) for burst in self._bursts}
        self._burst_length = lengths.pop() if len(lengths) == 1 else None
        self._digest: Optional[str] = None

    @property
    def burst_length(self) -> Optional[int]:
        return self._burst_length

    def __len__(self) -> int:
        return len(self._bursts)

    def digest(self) -> str:
        if self._digest is None:
            blake = hashlib.sha256()
            for burst in self._bursts:
                blake.update(len(burst).to_bytes(4, "little"))
                blake.update(bytes(burst.data))
            self._digest = f"sha256:{blake.hexdigest()[:32]}"
        return self._digest

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator[List[Burst]]:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self._bursts), chunk_size):
            yield list(self._bursts[start:start + chunk_size])

    def bursts(self) -> List[Burst]:
        return list(self._bursts)


class OpaquePopulation(BurstPopulation):
    """Placeholder for a population that cannot be regenerated.

    Produced when loading an artifact whose population was explicit (or
    was drawn by another generator, such as the ``random.Random`` stream
    of older NumPy-free runs): the digest, size and shape are known —
    enough to re-render and to match cache entries — but the bursts
    themselves are gone, so iteration raises.
    """

    def __init__(self, digest: str, count: int,
                 burst_length: Optional[int] = None):
        self._stored_digest = digest
        self._count = count
        self._burst_length = burst_length

    @property
    def burst_length(self) -> Optional[int]:
        return self._burst_length

    def __len__(self) -> int:
        return self._count

    def digest(self) -> str:
        return self._stored_digest

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator[List[Burst]]:
        raise RuntimeError(
            "population is not reconstructible from the artifact "
            f"(digest {self._stored_digest}); re-render only")


def as_population(bursts) -> BurstPopulation:
    """Coerce a burst source to a :class:`BurstPopulation`.

    Populations pass through; any other iterable of bursts is wrapped in
    an :class:`ExplicitPopulation`.
    """
    if isinstance(bursts, BurstPopulation):
        return bursts
    return ExplicitPopulation(list(bursts))
