"""Per-lane signal state tracking.

:class:`Lane` models one physical wire of the interface: it remembers its
current logic level and accumulates zero-beats and transition counts as
words are clocked through.  :class:`LaneGroup` bundles the nine wires of a
byte lane (DQ0–DQ7 + DBI) and applies 9-bit words beat by beat, yielding
exactly the same totals as the word-level tallies in :mod:`repro.core`
(cross-checked by the test-suite) while additionally exposing *per-wire*
statistics — useful for studying simultaneous-switching-output patterns
and lane imbalance that the aggregate counts hide.

Word sequences can be clocked two ways: :meth:`LaneGroup.drive_words`
walks beat by beat (one :meth:`Lane.drive` per wire per beat — the
differential reference), while :meth:`LaneGroup.drive_words_batch` packs
the stream into one Python-int bit plane per wire
(:func:`repro.hw.bitsim.pack_planes`) and tallies zero-beats and
transitions with popcounts — bit-identical counters, one pass per wire
instead of one call per beat, with or without NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from ..core.bitops import WORD_WIDTH, check_word, popcount


@dataclass
class Lane:
    """One wire with activity counters.

    >>> lane = Lane(name="DQ0")
    >>> lane.drive(0); lane.drive(0); lane.drive(1)
    >>> (lane.zero_beats, lane.transitions)
    (2, 2)
    """

    name: str = "lane"
    level: int = 1  # idle high, matching the paper's boundary condition
    zero_beats: int = 0
    transitions: int = 0
    beats: int = 0

    def drive(self, level: int) -> None:
        """Clock one beat with the wire driven to *level* (0 or 1)."""
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level}")
        if level != self.level:
            self.transitions += 1
        if level == 0:
            self.zero_beats += 1
        self.level = level
        self.beats += 1

    @property
    def zero_fraction(self) -> float:
        """Fraction of beats spent driving a zero."""
        return self.zero_beats / self.beats if self.beats else 0.0

    @property
    def toggle_rate(self) -> float:
        """Transitions per beat (0..1)."""
        return self.transitions / self.beats if self.beats else 0.0

    def reset(self, level: int = 1) -> None:
        """Clear counters and return the wire to *level*."""
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level}")
        self.level = level
        self.zero_beats = 0
        self.transitions = 0
        self.beats = 0


@dataclass
class LaneGroup:
    """The nine wires of one byte lane: DQ0..DQ7 plus DBI.

    >>> group = LaneGroup()
    >>> group.drive_word(0x1FF)
    >>> group.total_transitions
    0
    """

    lanes: List[Lane] = field(default_factory=lambda: (
        [Lane(name=f"DQ{i}") for i in range(WORD_WIDTH - 1)] + [Lane(name="DBI")]))

    def __post_init__(self) -> None:
        if len(self.lanes) != WORD_WIDTH:
            raise ValueError(f"a lane group needs {WORD_WIDTH} lanes, got {len(self.lanes)}")

    def drive_word(self, word: int) -> None:
        """Clock one 9-bit word onto the wires (bit i -> lane i)."""
        check_word(word)
        for position, lane in enumerate(self.lanes):
            lane.drive((word >> position) & 1)

    def drive_words(self, words: Iterable[int]) -> None:
        """Clock a whole word sequence (scalar reference path)."""
        for word in words:
            self.drive_word(word)

    def drive_words_batch(self, words: Sequence[int]) -> None:
        """Clock a whole word sequence via bit-plane popcounts.

        Packs the stream into one bit plane per wire (bit *t* of plane
        *i* = lane *i* at beat *t*) with
        :func:`repro.hw.bitsim.pack_planes`, then reads each wire's
        zero-beats off one popcount and its transitions off one
        shifted-XOR popcount plus the boundary toggle from the wire's
        current level.  Counters, levels and :attr:`state_word` end up
        bit-identical to :meth:`drive_words` (the differential suite in
        ``tests/phy/test_lane.py`` enforces it).
        """
        from ..hw import bitsim

        word_list = list(words)
        beats = len(word_list)
        if not beats:
            return
        for word in word_list:
            check_word(word)
        planes = bitsim.pack_planes(word_list, WORD_WIDTH)
        for position, lane in enumerate(self.lanes):
            plane = planes[position]
            transitions = bitsim.transition_count(plane, beats)
            if plane & 1 != lane.level:
                transitions += 1
            lane.zero_beats += beats - bitsim.popcount(plane)
            lane.transitions += transitions
            lane.level = (plane >> (beats - 1)) & 1
            lane.beats += beats

    # -- aggregates ---------------------------------------------------------
    @property
    def total_zero_beats(self) -> int:
        """Sum of zero-beats over all nine wires."""
        return sum(lane.zero_beats for lane in self.lanes)

    @property
    def total_transitions(self) -> int:
        """Sum of transitions over all nine wires."""
        return sum(lane.transitions for lane in self.lanes)

    @property
    def state_word(self) -> int:
        """Current 9-bit level pattern on the wires."""
        word = 0
        for position, lane in enumerate(self.lanes):
            word |= lane.level << position
        return word

    def per_lane_stats(self) -> List[Tuple[str, int, int]]:
        """``(name, zero_beats, transitions)`` per wire, DQ0..DBI order."""
        return [(lane.name, lane.zero_beats, lane.transitions) for lane in self.lanes]

    def max_simultaneous_switching(self, words: Iterable[int]) -> int:
        """Worst-case lanes toggling in a single beat over *words*.

        The SSO figure of merit of Kim et al. (paper ref. [14]): DBI DC
        bounds this at 5 per byte lane, RAW can hit 9.  Uses the same
        :func:`~repro.core.bitops.popcount` as the word-level tallies in
        :func:`repro.analysis.sso.sso_of_words`, so the two SSO counts
        cannot drift (the parity test in ``tests/phy/test_lane.py``
        enforces it).
        """
        worst = 0
        level = self.state_word
        for word in words:
            check_word(word)
            worst = max(worst, popcount(level ^ word))
            level = word
        return worst

    def reset(self, word: int = (1 << WORD_WIDTH) - 1) -> None:
        """Reset all wires to the bit pattern of *word*."""
        check_word(word)
        for position, lane in enumerate(self.lanes):
            lane.reset((word >> position) & 1)
