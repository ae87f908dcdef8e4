"""Simultaneous-switching-output (SSO) analysis.

Kim et al. (paper ref. [14]) show that DBI DC reduces SSO noise in
graphics memory systems: the fewer lanes toggle in the same beat, the
smaller the di/dt glitch on the power-delivery network.  This module
quantifies per-beat switching statistics for any scheme so the SSO side
benefit of each DBI policy can be compared alongside energy.

Backend selection
-----------------
Two interchangeable engines produce the statistics, selected with the
library-wide backend vocabulary (``backend="auto" | "reference" |
"vector"``, defaulting from ``REPRO_BACKEND`` /
:func:`repro.set_default_backend`):

* ``reference`` — :func:`sso_of_words` / :func:`sso_of_scheme`: one
  Python popcount and one histogram update per beat.  This is the
  executable specification.
* ``vector`` — :func:`sso_of_words_batch` / :func:`sso_of_scheme_batch`:
  the burst population is encoded by
  :meth:`~repro.core.schemes.DbiScheme.wire_words` (the scheme's NumPy
  batch kernel where available), the per-beat transition words are
  packed into bit planes (one Python int per wire, one bit per beat,
  by :func:`repro.hw.bitsim.pack_planes` — the gate-level trick applied
  to the phy layer), the nine planes are summed with carry-save adders
  into per-beat switching counts, and the histogram falls out of ten
  popcounts.  Like the gate-level engine this works *without* NumPy;
  with it, NumPy forms the transition words and packs the planes.

``auto`` therefore always resolves to the batched engine here.  The two
engines are bit-identical — same histogram, same max, same total,
including the chained-state path — which the differential suite in
``tests/analysis/test_sso_batch.py`` enforces over hypothesis-generated
word streams and every registered scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..core.bitops import (
    ALL_ONES_WORD,
    WORD_MASK,
    WORD_WIDTH,
    check_word,
    popcount,
)
from ..core.burst import Burst
from ..core.schemes import DbiScheme
from ..hw import bitsim
from ..hw.bitsim import resolve_sim_backend

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-NumPy CI leg
    _np = None

#: Default line impedance for the peak-current proxy (single-ended 50 Ω).
DEFAULT_LINE_IMPEDANCE_OHMS = 50.0


@dataclass(frozen=True)
class SsoStatistics:
    """Per-beat switching statistics of one word stream."""

    beats: int
    max_switching: int
    total_switching: int
    #: histogram[k] = number of beats in which exactly k lanes toggled.
    histogram: Dict[int, int]

    @property
    def mean_switching(self) -> float:
        """Average lanes toggling per beat."""
        return self.total_switching / self.beats if self.beats else 0.0

    def exceed_fraction(self, threshold: int) -> float:
        """Fraction of beats with more than *threshold* toggling lanes."""
        if not self.beats:
            return 0.0
        over = sum(count for k, count in self.histogram.items()
                   if k > threshold)
        return over / self.beats

    # -- peak-current proxies ------------------------------------------------
    def peak_current_amps(self, interface,
                          line_impedance_ohms: float =
                          DEFAULT_LINE_IMPEDANCE_OHMS) -> float:
        """Worst-case simultaneous di/dt proxy in amperes.

        Every toggling lane slews one full signal swing into its line
        impedance, so the instantaneous supply-current step of the worst
        beat is ``max_switching · v_swing / Z_line`` — the figure of
        merit Kim et al. bound with DBI DC.
        """
        return self.max_switching * interface.v_swing / line_impedance_ohms

    def mean_current_amps(self, interface,
                          line_impedance_ohms: float =
                          DEFAULT_LINE_IMPEDANCE_OHMS) -> float:
        """Average per-beat switching current under the same proxy."""
        return self.mean_switching * interface.v_swing / line_impedance_ohms


_EMPTY = SsoStatistics(beats=0, max_switching=0, total_switching=0,
                       histogram={})


def sso_of_words(words: Sequence[int],
                 prev_word: int = ALL_ONES_WORD) -> SsoStatistics:
    """SSO statistics of a concrete wire-word sequence (reference path).

    >>> sso_of_words([0x000]).max_switching
    9
    """
    check_word(prev_word)
    histogram: Dict[int, int] = {}
    worst = 0
    total = 0
    last = prev_word
    for word in words:
        check_word(word)
        switching = popcount(last ^ word)
        histogram[switching] = histogram.get(switching, 0) + 1
        worst = max(worst, switching)
        total += switching
        last = word
    return SsoStatistics(beats=len(words), max_switching=worst,
                         total_switching=total, histogram=histogram)


def sso_of_scheme(scheme: DbiScheme, bursts: Sequence[Burst],
                  chained: bool = False) -> SsoStatistics:
    """SSO statistics of a scheme over a burst population (reference
    path: the words of :meth:`~repro.core.schemes.DbiScheme.wire_words`'
    per-burst loop, one popcount per beat)."""
    rows = scheme.wire_words(bursts, chained=chained, backend="reference")
    if chained:
        return sso_of_words([word for row in rows for word in row])
    histogram: Dict[int, int] = {}
    worst = 0
    total = 0
    for row in rows:
        stats = sso_of_words(row)
        for k, count in stats.histogram.items():
            histogram[k] = histogram.get(k, 0) + count
        worst = max(worst, stats.max_switching)
        total += stats.total_switching
    return SsoStatistics(beats=sum(len(row) for row in rows),
                         max_switching=worst, total_switching=total,
                         histogram=histogram)


# -- the word-parallel engine -------------------------------------------------

def _switching_statistics(trans_values, beats: int) -> SsoStatistics:
    """Tally per-beat switching counts from packed transition words.

    *trans_values* holds one 9-bit transition word (``prev ^ word``) per
    beat.  The nine bit planes are summed position-wise with carry-save
    adders into a 4-bit per-beat counter, and ``histogram[k]`` is the
    popcount of the plane where that counter equals *k* — exact integer
    arithmetic, bit-identical to the scalar walk.
    """
    planes = bitsim.pack_planes(trans_values, WORD_WIDTH)
    valid = (1 << beats) - 1
    s0 = s1 = s2 = s3 = 0
    for plane in planes:
        carry0 = s0 & plane
        s0 = s0 ^ plane
        carry1 = s1 & carry0
        s1 = s1 ^ carry0
        carry2 = s2 & carry1
        s2 = s2 ^ carry1
        s3 = s3 ^ carry2  # counts <= 9 < 16: no carry out of bit 3
    counter_bits = (s0, s1, s2, s3)
    histogram: Dict[int, int] = {}
    worst = 0
    total = 0
    for k in range(WORD_WIDTH + 1):
        indicator = valid
        for position, bit_plane in enumerate(counter_bits):
            if (k >> position) & 1:
                indicator = indicator & bit_plane
            else:
                indicator = indicator & (bit_plane ^ valid)
        count = bitsim.popcount(indicator)
        if count:
            histogram[k] = count
            worst = k
            total += k * count
    return SsoStatistics(beats=beats, max_switching=worst,
                         total_switching=total, histogram=histogram)


def _check_matrix(matrix) -> None:
    """Range-validate an int64 word matrix (the array twin of check_word)."""
    if matrix.size and (matrix.min() < 0 or matrix.max() > WORD_MASK):
        raise ValueError(f"word out of range [0, {WORD_MASK}]")


def _transition_values_array(matrix, prev_words, chained: bool):
    """Flat per-beat transition words for a ``(batch, n)`` word matrix."""
    from ..core.vectorized import _as_prev_words, chain_boundaries

    matrix = _np.asarray(matrix, dtype=_np.int64)
    _check_matrix(matrix)
    prev = (chain_boundaries(prev_words, matrix[:, -1]) if chained
            else _as_prev_words(prev_words, matrix.shape[0]))
    shifted = _np.empty_like(matrix)
    shifted[:, 0] = prev
    if matrix.shape[1] > 1:
        shifted[:, 1:] = matrix[:, :-1]
    return (matrix ^ shifted).ravel()


def _transition_values_list(rows, prev_words, chained: bool) -> List[int]:
    """Flat per-beat transition words for row sequences of Python ints."""
    trans: List[int] = []
    if chained:
        last = check_word(int(prev_words))
        for row in rows:
            for word in row:
                check_word(word)
                trans.append(last ^ word)
                last = word
        return trans
    if isinstance(prev_words, int):
        prevs: Sequence[int] = [check_word(prev_words)] * len(rows)
    else:
        prevs = [check_word(int(word)) for word in prev_words]
        if len(prevs) != len(rows):
            raise ValueError(f"{len(prevs)} boundary words for "
                             f"{len(rows)} word rows")
    for row, prev in zip(rows, prevs):
        last = prev
        for word in row:
            check_word(word)
            trans.append(last ^ word)
            last = word
    return trans


def sso_of_words_batch(rows,
                       prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD,
                       chained: bool = False) -> SsoStatistics:
    """SSO statistics of many word rows, tallied word-parallel.

    *rows* is a sequence of wire-word sequences (or a packed ``(batch,
    n)`` integer array).  In independent mode every row is measured from
    its own boundary (*prev_words* broadcasts a scalar or supplies one
    word per row); with ``chained=True`` the rows are treated as one
    back-to-back stream starting from the scalar *prev_words* — exactly
    the two modes of :func:`sso_of_scheme`.  The aggregate is
    bit-identical to merging :func:`sso_of_words` over the rows.

    >>> sso_of_words_batch([[0x000], [0x1FF]]).histogram
    {0: 1, 9: 1}
    """
    if chained and not isinstance(prev_words, int):
        raise ValueError("chained mode takes a single scalar boundary word")
    if _np is not None and isinstance(rows, _np.ndarray):
        if rows.ndim != 2:
            raise ValueError(f"packed word rows must be 2-D, "
                             f"got shape {rows.shape}")
        if isinstance(prev_words, int):
            check_word(prev_words)
        if rows.size:
            trans = _transition_values_array(rows, prev_words, chained)
            return _switching_statistics(trans, len(trans))
        rows = rows.tolist()  # no beat: the list form checks the boundaries
    trans = _transition_values_list([list(row) for row in rows], prev_words,
                                    chained)
    if not trans:
        return _EMPTY
    return _switching_statistics(trans, len(trans))


def sso_of_scheme_batch(scheme: DbiScheme, bursts: Sequence[Burst],
                        chained: bool = False,
                        backend: Optional[str] = None) -> SsoStatistics:
    """SSO statistics of a scheme over a population, batched.

    Bit-identical to :func:`sso_of_scheme` on every scheme in both
    transmission modes.  With the ``vector`` backend the wire words come
    from :meth:`~repro.core.schemes.DbiScheme.wire_words` on NumPy's
    batch kernel wherever it applies, and the tally always runs
    word-parallel.  ``backend`` follows
    :func:`repro.hw.bitsim.resolve_sim_backend`: ``auto`` resolves to
    the batched tally even without NumPy.
    """
    if resolve_sim_backend(backend) == "reference":
        return sso_of_scheme(scheme, bursts, chained=chained)
    rows = scheme.wire_words(bursts, chained=chained, backend="auto")
    return sso_of_words_batch(rows, prev_words=ALL_ONES_WORD,
                              chained=chained)


def sso_comparison(schemes: Dict[str, DbiScheme],
                   bursts: Sequence[Burst],
                   chained: bool = False,
                   backend: Optional[str] = None) -> List[List[object]]:
    """Rows (scheme, max, mean, fraction of beats > half the lanes) for a
    markdown table, in either transmission mode (``chained=``)."""
    rows: List[List[object]] = []
    half = WORD_WIDTH // 2
    for name, scheme in schemes.items():
        stats = sso_of_scheme_batch(scheme, bursts, chained=chained,
                                    backend=backend)
        rows.append([
            name,
            stats.max_switching,
            f"{stats.mean_switching:.2f}",
            f"{100 * stats.exceed_fraction(half):.1f}%",
        ])
    return rows


#: Per-beat toggle bound of DBI DC *within* a burst: toggling lanes are the
#: symmetric difference of the two words' zero sets, and DBI DC caps each
#: word at 4 zeros, so at most 4 + 4 = 8 lanes can toggle (RAW can hit 9).
DBI_DC_TOGGLE_BOUND = 8

#: First-beat bound from the idle-high bus: every toggling lane is a zero of
#: the first word, and DBI DC caps those at 4 — plus the DBI lane itself.
DBI_DC_IDLE_FIRST_BEAT_BOUND = 5
