"""Unencoded (RAW) transmission baseline.

Every byte is sent non-inverted with the DBI lane held high; this is the
normalisation reference of the paper's Figs. 3 and 7.  Keeping the DBI lane
at one means RAW pays no DBI-lane zeros or toggles, exactly like a bus that
has the DBI feature disabled.
"""

from __future__ import annotations

from ..core.bitops import ALL_ONES_WORD
from ..core.burst import Burst
from ..core.schemes import DbiScheme, EncodedBurst, register_scheme


class Raw(DbiScheme):
    """Pass-through scheme: never invert.

    >>> Raw().encode(Burst([0xA5, 0x5A])).invert_flags
    (False, False)
    """

    name = "raw"

    def encode(self, burst: Burst, prev_word: int = ALL_ONES_WORD) -> EncodedBurst:
        return EncodedBurst(burst=burst,
                            invert_flags=(False,) * len(burst),
                            prev_word=prev_word)

    def batch_flags(self, data, prev_words):
        from ..core.vectorized import raw_flags

        return raw_flags(data, prev_words)


register_scheme("raw", Raw)
