"""Differential tests: batched SSO engine vs the scalar reference.

Runs on the no-NumPy CI leg too: every case packs its planes without
NumPy there, and the NumPy-packer and ndarray legs skip themselves.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sso import (
    SsoStatistics,
    sso_comparison,
    sso_of_scheme,
    sso_of_scheme_batch,
    sso_of_words,
    sso_of_words_batch,
)
from repro.core.bitops import ALL_ONES_WORD
from repro.core.burst import Burst
from repro.core.schemes import available_schemes, get_scheme
from repro.hw import bitsim

try:
    import numpy
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

word_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=0x1FF),
             min_size=1, max_size=12),
    min_size=0, max_size=8)

burst_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=0xFF),
             min_size=1, max_size=8).map(lambda data: Burst(data)),
    min_size=0, max_size=12)


def merged_reference(rows, prev_words, chained):
    """Fold the scalar engine over *rows* the way the batch engine does."""
    beats = 0
    worst = 0
    total = 0
    histogram = {}
    prev = prev_words
    for index, row in enumerate(rows):
        if chained:
            boundary = prev
        elif isinstance(prev_words, int):
            boundary = prev_words
        else:
            boundary = prev_words[index]
        stats = sso_of_words(row, prev_word=boundary)
        beats += stats.beats
        worst = max(worst, stats.max_switching)
        total += stats.total_switching
        for k, count in stats.histogram.items():
            histogram[k] = histogram.get(k, 0) + count
        if chained and row:
            prev = row[-1]
    return SsoStatistics(beats=beats, max_switching=worst,
                         total_switching=total, histogram=histogram)


class TestSsoOfWordsBatch:
    @pytest.mark.parametrize("packer", PACKERS)
    @settings(max_examples=60, deadline=None)
    @given(rows=word_rows, chained=st.booleans())
    def test_matches_merged_scalar(self, rows, chained, packer):
        with packed_on(packer):
            batch = sso_of_words_batch(rows, chained=chained)
        assert batch == merged_reference(rows, ALL_ONES_WORD, chained)

    @pytest.mark.parametrize("packer", PACKERS)
    @settings(max_examples=40, deadline=None)
    @given(rows=word_rows, prev=st.integers(min_value=0, max_value=0x1FF))
    def test_scalar_prev_broadcast(self, rows, prev, packer):
        with packed_on(packer):
            batch = sso_of_words_batch(rows, prev_words=prev)
        assert batch == merged_reference(rows, prev, chained=False)

    @pytest.mark.parametrize("packer", PACKERS)
    def test_per_row_prev_words(self, packer):
        rows = [[0x000, 0x0FF], [0x1FF], [0x155, 0x0AA]]
        prevs = [0x1FF, 0x000, 0x155]
        with packed_on(packer):
            batch = sso_of_words_batch(rows, prev_words=prevs)
        assert batch == merged_reference(rows, prevs, chained=False)

    def test_prev_words_length_mismatch(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x1FF]], prev_words=[0x1FF, 0x000])

    def test_chained_rejects_per_row_prev(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x1FF]], prev_words=[0x1FF], chained=True)

    def test_empty_input(self):
        stats = sso_of_words_batch([])
        assert stats == SsoStatistics(beats=0, max_switching=0,
                                      total_switching=0, histogram={})

    @pytest.mark.skipif(not HAVE_NUMPY, reason="ndarray input requires NumPy")
    @pytest.mark.parametrize("shape, chained", [
        ((3, 0), False), ((0, 8), False), ((0, 8), True), ((2, 0), True)],
        ids=["3x0", "0x8", "0x8-chained", "2x0-chained"])
    def test_empty_ndarray_like_its_rows(self, shape, chained):
        """A zero-size matrix gives what its rows as lists give."""
        matrix = numpy.zeros(shape, dtype=numpy.int64)
        assert (sso_of_words_batch(matrix, chained=chained)
                == sso_of_words_batch(matrix.tolist(), chained=chained)
                == SsoStatistics(beats=0, max_switching=0,
                                 total_switching=0, histogram={}))
        if not chained:
            with pytest.raises(ValueError):
                sso_of_words_batch(matrix, prev_words=[0x1FF] * 5)

    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x200]])

    def test_doc_example(self):
        assert sso_of_words_batch([[0x000], [0x1FF]]).histogram == {0: 1, 9: 1}

    @pytest.mark.skipif(not HAVE_NUMPY, reason="ndarray input requires NumPy")
    @pytest.mark.parametrize("packer", PACKERS)
    def test_ndarray_input(self, packer):
        rng = numpy.random.default_rng(11)
        matrix = rng.integers(0, 0x200, size=(7, 8), dtype=numpy.int64)
        rows = [list(map(int, row)) for row in matrix]
        for chained in (False, True):
            with packed_on(packer):
                batch = sso_of_words_batch(matrix, chained=chained)
            assert batch == merged_reference(rows, ALL_ONES_WORD, chained)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="ndarray input requires NumPy")
    def test_ndarray_must_be_2d(self):
        with pytest.raises(ValueError):
            sso_of_words_batch(numpy.zeros(4, dtype=numpy.int64))


class TestSsoOfSchemeBatch:
    @pytest.mark.parametrize("scheme_name", available_schemes())
    @pytest.mark.parametrize("chained", (False, True))
    @pytest.mark.parametrize("packer", PACKERS)
    @settings(max_examples=12, deadline=None)
    @given(bursts=burst_lists)
    def test_matches_scalar_engine(self, bursts, scheme_name, chained,
                                   packer):
        reference = sso_of_scheme(get_scheme(scheme_name), bursts,
                                  chained=chained)
        with packed_on(packer):
            batch = sso_of_scheme_batch(get_scheme(scheme_name), bursts,
                                        chained=chained)
        assert batch == reference

    @pytest.mark.parametrize("scheme_name", ("raw", "dbi-dc", "dbi-opt"))
    def test_reference_backend_delegates(self, scheme_name):
        bursts = [Burst(range(index, index + 8)) for index in range(6)]
        scheme = get_scheme(scheme_name)
        assert (sso_of_scheme_batch(scheme, bursts, backend="reference")
                == sso_of_scheme(scheme, bursts))

    def test_empty_population(self):
        stats = sso_of_scheme_batch(get_scheme("raw"), [])
        assert stats.beats == 0 and stats.histogram == {}

    def test_accepts_iterator(self):
        bursts = [Burst(range(8))] * 3
        assert (sso_of_scheme_batch(get_scheme("dbi-dc"), iter(bursts))
                == sso_of_scheme(get_scheme("dbi-dc"), bursts))


class TestSsoComparisonChained:
    @staticmethod
    def expected_row(name, stats):
        return [name, stats.max_switching, f"{stats.mean_switching:.2f}",
                f"{100 * stats.exceed_fraction(4):.1f}%"]

    def test_chained_kwarg_threads_through(self):
        bursts = [Burst([0x00] * 8), Burst([0xFF] * 8)] * 3
        schemes = {"raw": get_scheme("raw"), "dbi-ac": get_scheme("dbi-ac")}
        unchained = sso_comparison(schemes, bursts)
        chained = sso_comparison(schemes, bursts, chained=True)
        for row, row_c, (name, scheme) in zip(unchained, chained,
                                              schemes.items()):
            assert row == self.expected_row(
                name, sso_of_scheme(scheme, bursts))
            assert row_c == self.expected_row(
                name, sso_of_scheme(scheme, bursts, chained=True))
        # The boundary condition must actually matter for this workload.
        assert chained[0] != unchained[0]
