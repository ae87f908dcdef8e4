"""DBI ACDC: Hollis's mode-switching combination (paper §II, ref. [8]).

Hollis proposed encoding the *first* byte of a group with DBI DC (so the
group starts from a zero-lean word) and the remaining bytes with DBI AC.
The paper notes that under its boundary condition — all lanes idle high
before the burst — DBI AC's first-byte decision coincides with DBI DC's,
so DBI ACDC and DBI AC produce identical encodings; the test-suite asserts
this equivalence.  The scheme is still implemented separately because the
equivalence breaks for other boundary states (e.g. back-to-back bursts),
where ACDC's explicit DC first byte genuinely differs.
"""

from __future__ import annotations

from ..core.bitops import ALL_ONES_WORD, make_word
from ..core.burst import Burst
from ..core.schemes import DbiScheme, EncodedBurst, register_scheme
from .dbi_ac import should_invert_ac
from .dbi_dc import should_invert_dc


class DbiAcDc(DbiScheme):
    """First byte DBI DC, remaining bytes DBI AC (Hollis 2009)."""

    name = "dbi-acdc"

    def encode(self, burst: Burst, prev_word: int = ALL_ONES_WORD) -> EncodedBurst:
        flags = []
        first_inverted = should_invert_dc(burst[0])
        flags.append(first_inverted)
        last = make_word(burst[0], first_inverted)
        for byte in burst.data[1:]:
            inverted = should_invert_ac(byte, last)
            flags.append(inverted)
            last = make_word(byte, inverted)
        return EncodedBurst(burst=burst, invert_flags=tuple(flags),
                            prev_word=prev_word)

    def batch_flags(self, data, prev_words):
        from ..core.vectorized import acdc_flags

        return acdc_flags(data, prev_words)


register_scheme("dbi-acdc", DbiAcDc)
