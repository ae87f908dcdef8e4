"""Burst representation.

A *burst* is the unit of DBI encoding: the sequence of bytes that one byte
lane transmits back-to-back (burst length 8 for GDDR5/DDR4 reads/writes,
but any length ≥ 1 is supported — the trellis search is length-agnostic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .bitops import (
    BYTE_MASK,
    check_byte,
    format_bits,
    parse_bits,
    zeros_in_byte,
)

#: JEDEC burst length for GDDR5/GDDR5X/DDR4 — the paper's setting.
DEFAULT_BURST_LENGTH = 8


@dataclass(frozen=True)
class Burst:
    """An immutable sequence of data bytes to be DBI-encoded.

    Parameters
    ----------
    data:
        The bytes, most-significant bit = DQ7, transmitted in order.

    >>> burst = Burst.from_bit_strings(["10001110", "10000110"])
    >>> burst.data
    (142, 134)
    >>> len(burst)
    2
    """

    data: Tuple[int, ...]

    def __init__(self, data: Iterable[int]):
        values = tuple(check_byte(byte) for byte in data)
        if not values:
            raise ValueError("a burst must contain at least one byte")
        object.__setattr__(self, "data", values)

    @classmethod
    def from_bit_strings(cls, strings: Sequence[str]) -> "Burst":
        """Build a burst from MSB-first bit strings (paper-figure style)."""
        return cls(parse_bits(text) for text in strings)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Burst":
        """Build a burst from a ``bytes`` object."""
        return cls(raw)

    @classmethod
    def from_int(cls, value: int, length: int = DEFAULT_BURST_LENGTH) -> "Burst":
        """Split a wide little-endian integer into *length* bytes.

        >>> Burst.from_int(0x0201, length=2).data
        (1, 2)
        """
        if value < 0:
            raise ValueError("value must be non-negative")
        if value >> (8 * length):
            raise ValueError(f"value does not fit in {length} bytes")
        return cls((value >> (8 * i)) & BYTE_MASK for i in range(length))

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __getitem__(self, index: int) -> int:
        return self.data[index]

    def to_bytes(self) -> bytes:
        """Return the burst payload as a ``bytes`` object."""
        return bytes(self.data)

    def bit_strings(self) -> List[str]:
        """MSB-first bit strings, matching the paper's figures."""
        return [format_bits(byte) for byte in self.data]

    def zeros(self) -> int:
        """Total zero bits in the raw (unencoded) payload."""
        return sum(zeros_in_byte(byte) for byte in self.data)

    def inverted(self) -> "Burst":
        """Burst with every byte complemented (diagnostic helper)."""
        return Burst(byte ^ BYTE_MASK for byte in self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = " ".join(self.bit_strings())
        return f"Burst({bits})"


#: The worked example of the paper's Fig. 2, transcribed MSB-first.
PAPER_FIG2_BURST = Burst.from_bit_strings(
    [
        "10001110",
        "10000110",
        "10010110",
        "11101001",
        "01111101",
        "10110111",
        "01010111",
        "11000100",
    ]
)


def as_bursts(batch) -> Iterator[Burst]:
    """*batch* as bursts for a per-burst loop: each row of a packed
    ``(batch, n)`` array, and each item that is not a :class:`Burst`
    (a ``bytes`` row, say), becomes one."""
    rows = batch.tolist() if hasattr(batch, "tolist") else batch
    return (row if isinstance(row, Burst) else Burst(row) for row in rows)


def chunk_bytes(payload: Sequence[int], burst_length: int = DEFAULT_BURST_LENGTH,
                pad_byte: int = 0xFF) -> List[Burst]:
    """Split a long byte stream into bursts, padding the tail with *pad_byte*.

    Padding with 0xFF models an idle-high bus: padded beats add no zeros and
    no transitions, so statistics of the real payload are unaffected.

    >>> [len(b) for b in chunk_bytes(range(10), burst_length=4)]
    [4, 4, 4]
    """
    if burst_length < 1:
        raise ValueError("burst_length must be >= 1")
    check_byte(pad_byte)
    bursts: List[Burst] = []
    buffer: List[int] = []
    for byte in payload:
        buffer.append(check_byte(byte))
        if len(buffer) == burst_length:
            bursts.append(Burst(buffer))
            buffer = []
    if buffer:
        buffer.extend([pad_byte] * (burst_length - len(buffer)))
        bursts.append(Burst(buffer))
    return bursts
