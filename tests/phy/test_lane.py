"""Unit tests for per-lane state tracking."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.sso import sso_of_words
from repro.core.bitops import total_transitions, total_zeros
from repro.hw import bitsim
from repro.phy.lane import Lane, LaneGroup

word_lists = st.lists(st.integers(min_value=0, max_value=0x1FF),
                      min_size=1, max_size=32)


class TestLane:
    def test_initial_state_idle_high(self):
        assert Lane().level == 1

    def test_drive_counts(self):
        lane = Lane()
        for level in (0, 0, 1, 0):
            lane.drive(level)
        assert lane.zero_beats == 3
        assert lane.transitions == 3  # 1->0, 0->1, 1->0
        assert lane.beats == 4

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            Lane().drive(2)

    def test_fractions(self):
        lane = Lane()
        lane.drive(0)
        lane.drive(1)
        assert lane.zero_fraction == pytest.approx(0.5)
        assert lane.toggle_rate == pytest.approx(1.0)

    def test_empty_fractions(self):
        lane = Lane()
        assert lane.zero_fraction == 0.0
        assert lane.toggle_rate == 0.0

    def test_reset(self):
        lane = Lane()
        lane.drive(0)
        lane.reset()
        assert (lane.level, lane.zero_beats, lane.transitions, lane.beats) == (1, 0, 0, 0)


class TestLaneGroup:
    def test_needs_nine_lanes(self):
        with pytest.raises(ValueError):
            LaneGroup(lanes=[Lane() for _ in range(8)])

    def test_lane_names(self):
        names = [lane.name for lane in LaneGroup().lanes]
        assert names == [f"DQ{i}" for i in range(8)] + ["DBI"]

    @given(word_lists)
    def test_matches_word_level_tallies(self, words):
        """Per-wire accounting must agree with the aggregate word-level
        counts used by the encoders."""
        group = LaneGroup()
        group.drive_words(words)
        assert group.total_zero_beats == total_zeros(words)
        assert group.total_transitions == total_transitions(words)

    @given(word_lists)
    def test_state_word_tracks_last(self, words):
        group = LaneGroup()
        group.drive_words(words)
        assert group.state_word == words[-1]

    def test_per_lane_stats_structure(self):
        group = LaneGroup()
        group.drive_word(0x000)
        stats = group.per_lane_stats()
        assert len(stats) == 9
        assert all(zeros == 1 for _name, zeros, _trans in stats)

    def test_max_simultaneous_switching(self):
        group = LaneGroup()
        # From idle-high, 0x000 toggles all nine lanes at once.
        assert group.max_simultaneous_switching([0x000, 0x1FF]) == 9

    def test_sso_reduced_by_dbi_dc(self):
        """Kim et al.'s point (paper ref. [14]): DBI DC bounds worst-case
        simultaneous switching."""
        from repro.baselines import DbiDc, Raw
        from repro.core.burst import Burst
        burst = Burst([0x00, 0xFF] * 4)
        raw_words = Raw().encode(burst).words
        dc_words = DbiDc().encode(burst).words
        group = LaneGroup()
        assert group.max_simultaneous_switching(raw_words) == 8
        assert group.max_simultaneous_switching(dc_words) <= 5

    @given(word_lists)
    def test_max_switching_matches_sso_analysis(self, words):
        """LaneGroup and the SSO analysis module count identical worst
        cases: both popcount XORs from the idle-high boundary, so the two
        SSO figures can never drift apart."""
        assert (LaneGroup().max_simultaneous_switching(words)
                == sso_of_words(words).max_switching)

    @given(word_lists, st.integers(min_value=0, max_value=0x1FF))
    def test_max_switching_matches_sso_from_any_state(self, words, start):
        group = LaneGroup()
        group.reset(start)
        assert (group.max_simultaneous_switching(words)
                == sso_of_words(words, prev_word=start).max_switching)

    def test_reset_to_pattern(self):
        group = LaneGroup()
        group.drive_word(0x000)
        group.reset(0x155)
        assert group.state_word == 0x155
        assert group.total_transitions == 0


try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: The :func:`~repro.hw.bitsim.pack_planes` branches testable here, by the
#: ids these legs have always had: ``int`` hides NumPy from the packer (its
#: ``bytes.translate`` branch), ``uint64`` packs through NumPy.
PACKERS = ("int", "uint64") if HAVE_NUMPY else ("int",)


def packed_on(packer):
    """A context running the packed engines on one packer branch."""
    hidden = None if packer == "int" else bitsim._np
    return mock.patch.object(bitsim, "_np", hidden)


class TestDriveWordsBatch:
    """drive_words_batch must be bit-identical to the scalar path."""

    @staticmethod
    def snapshot(group):
        return ([(lane.level, lane.zero_beats, lane.transitions, lane.beats)
                 for lane in group.lanes], group.state_word)

    @pytest.mark.parametrize("packer", PACKERS)
    @given(words=word_lists,
           start=st.integers(min_value=0, max_value=0x1FF))
    def test_matches_scalar_path(self, words, start, packer):
        scalar = LaneGroup()
        batched = LaneGroup()
        scalar.reset(start)
        batched.reset(start)
        scalar.drive_words(words)
        with packed_on(packer):
            batched.drive_words_batch(words)
        assert self.snapshot(batched) == self.snapshot(scalar)

    @pytest.mark.parametrize("packer", PACKERS)
    @given(first=word_lists, second=word_lists)
    def test_accumulates_across_calls(self, first, second, packer):
        scalar = LaneGroup()
        batched = LaneGroup()
        scalar.drive_words(first + second)
        with packed_on(packer):
            batched.drive_words_batch(first)
            batched.drive_words_batch(second)
        assert self.snapshot(batched) == self.snapshot(scalar)

    def test_empty_is_noop(self):
        group = LaneGroup()
        group.drive_words_batch([])
        assert self.snapshot(group) == self.snapshot(LaneGroup())

    def test_rejects_out_of_range_words(self):
        with pytest.raises(ValueError):
            LaneGroup().drive_words_batch([0x200])
