"""DBI DC: minimise the number of transmitted zeros (paper §I).

The JEDEC-standard scheme for POD interfaces (GDDR4/5/5X, DDR4 writes):
count the zeros in each byte; transmit non-inverted when there are 4 or
fewer, inverted when there are 5 or more.  After encoding, no 9-bit word
ever carries more than 4 zeros (a byte with 5 zeros is sent as 3 data zeros
plus the zero on the DBI lane).

The decision is purely per-byte — no inter-byte state — which is what makes
DBI DC so cheap in hardware (one POPCNT and one comparator per byte, see
Table I) but also what leaves the transition count uncontrolled.
"""

from __future__ import annotations

from ..core.bitops import ALL_ONES_WORD, BYTE_WIDTH, zeros_in_byte
from ..core.burst import Burst
from ..core.schemes import DbiScheme, EncodedBurst, register_scheme

#: Invert when a byte contains strictly more than this many zeros.
DC_THRESHOLD = BYTE_WIDTH // 2


def should_invert_dc(byte: int) -> bool:
    """The DBI DC decision for one byte: invert iff it has ≥ 5 zeros.

    >>> should_invert_dc(0b00000111)
    True
    >>> should_invert_dc(0b00001111)
    False
    """
    return zeros_in_byte(byte) > DC_THRESHOLD


class DbiDc(DbiScheme):
    """Zero-minimising DBI (the GDDR5/DDR4 standard write encoding)."""

    name = "dbi-dc"

    def encode(self, burst: Burst, prev_word: int = ALL_ONES_WORD) -> EncodedBurst:
        flags = tuple(should_invert_dc(byte) for byte in burst)
        return EncodedBurst(burst=burst, invert_flags=flags, prev_word=prev_word)

    def batch_flags(self, data, prev_words):
        from ..core.vectorized import dc_flags

        return dc_flags(data, prev_words)


register_scheme("dbi-dc", DbiDc)
