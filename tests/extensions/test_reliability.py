"""Unit and property tests for reliability analysis."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DbiAc, DbiDc, Raw
from repro.core.bitops import WORD_WIDTH, decode_word
from repro.core.burst import Burst
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.schemes import DbiScheme, available_schemes, get_scheme
from repro.core.vectorized import HAVE_NUMPY
from repro.extensions.reliability import (
    DEFAULT_FAULT_RATES,
    MASK_DRAW_BLOCK_WORDS,
    decode_with_faults,
    draw_fault_masks,
    draw_fault_positions,
    error_amplification,
    fault_coverage_curve,
    fault_coverage_rows,
    fault_mask_planes,
    fault_sweep,
    fault_sweep_batch,
    wrong_decision_is_harmless,
)
from repro.hw import bitsim

bursts = st.lists(st.integers(min_value=0, max_value=255),
                  min_size=1, max_size=12).map(Burst)

#: The :func:`~repro.hw.bitsim.pack_planes` branches testable here, by the
#: ids these legs have always had: ``int`` hides NumPy from the packer (its
#: ``bytes.translate`` branch), ``uint64`` packs through NumPy.
PACKERS = ("int", "uint64") if HAVE_NUMPY else ("int",)


def packed_on(packer):
    """A context running the packed engines on one packer branch."""
    hidden = None if packer == "int" else bitsim._np
    return mock.patch.object(bitsim, "_np", hidden)


class TestDecodeWithFaults:
    def test_no_faults_round_trip(self):
        encoded = DbiDc().encode(Burst([0x12, 0x34]))
        decoded = decode_with_faults(encoded.words, [0, 0])
        assert decoded.data == (0x12, 0x34)

    def test_mask_length_checked(self):
        encoded = DbiDc().encode(Burst([0x12]))
        with pytest.raises(ValueError):
            decode_with_faults(encoded.words, [0, 0])

    def test_mask_range_checked(self):
        encoded = DbiDc().encode(Burst([0x12]))
        with pytest.raises(ValueError):
            decode_with_faults(encoded.words, [0x200])

    def test_dbi_lane_fault_complements_byte(self):
        encoded = Raw().encode(Burst([0x0F]))
        decoded = decode_with_faults(encoded.words, [0x100])
        assert decoded.data == (0xF0,)


class TestErrorAmplification:
    @settings(max_examples=60, deadline=None)
    @given(bursts, st.integers(min_value=0, max_value=7))
    def test_data_lane_fault_is_single_bit(self, burst, lane):
        """A data-lane fault corrupts exactly one decoded bit."""
        encoded = DbiDc().encode(burst)
        for beat in range(len(burst)):
            assert error_amplification(encoded, beat, lane) == 1

    @settings(max_examples=60, deadline=None)
    @given(bursts)
    def test_dbi_lane_fault_is_eight_bits(self, burst):
        """A DBI-lane fault complements the whole decoded byte."""
        encoded = DbiAc().encode(burst)
        for beat in range(len(burst)):
            assert error_amplification(encoded, beat, 8) == 8

    def test_bounds_checked(self):
        encoded = Raw().encode(Burst([1]))
        with pytest.raises(ValueError):
            error_amplification(encoded, 0, 9)
        with pytest.raises(IndexError):
            error_amplification(encoded, 1, 0)


class TestWrongDecisionHarmless:
    @settings(max_examples=40, deadline=None)
    @given(bursts)
    def test_every_scheme(self, burst):
        """The paper's analog-implementation premise: mis-decided invert
        flags never corrupt data, for any scheme."""
        for name in ("raw", "dbi-dc", "dbi-ac", "dbi-opt"):
            assert wrong_decision_is_harmless(burst, get_scheme(name))


class TestFaultSweep:
    @pytest.fixture(scope="class")
    def population(self):
        # NumPy-optional on purpose: this suite runs on the CI
        # NumPy-free leg, where the population draws the same bytes.
        from repro.workloads.population import RandomPopulation
        return RandomPopulation(count=300, seed=55).bursts()

    def test_validation(self, population):
        with pytest.raises(ValueError):
            fault_sweep(DbiDc(), population, faults_per_burst=0)

    def test_amplification_statistics(self, population):
        """Uniform single-lane faults amplify by (8*1 + 1*8)/9 ~ 1.78 on
        a DBI bus (vs exactly 1.0 without DBI)."""
        stats = fault_sweep(DbiOptimal(CostModel.fixed()), population,
                            faults_per_burst=2, seed=3)
        assert stats.injected_faults == 600
        assert stats.mean_amplification == pytest.approx(16 / 9, rel=0.15)

    def test_dbi_amplification_exact(self, population):
        stats = fault_sweep(DbiDc(), population, seed=11)
        if stats.dbi_lane_faults:
            assert stats.dbi_amplification == 8.0

    def test_deterministic(self, population):
        a = fault_sweep(DbiDc(), population[:50], seed=9)
        b = fault_sweep(DbiDc(), population[:50], seed=9)
        assert a == b


class TestDrawFaultPositions:
    def test_validation(self):
        with pytest.raises(ValueError):
            draw_fault_positions([8], faults_per_burst=0, seed=1)

    def test_shape_and_ranges(self):
        positions = draw_fault_positions([4, 8], faults_per_burst=3, seed=2)
        assert [len(faults) for faults in positions] == [3, 3]
        for length, faults in zip([4, 8], positions):
            for beat, lane in faults:
                assert 0 <= beat < length
                assert 0 <= lane < 9

    def test_pure_python_stream(self):
        """The draw path is random.Random, so the stream is identical on
        every platform and on both CI NumPy legs."""
        positions = draw_fault_positions([8, 8], faults_per_burst=2, seed=7)
        import random
        uniform = random.Random(7).random
        expected = [[(int(uniform() * 8), int(uniform() * 9))
                     for _ in range(2)] for _ in range(2)]
        assert positions == expected


class TestFaultSweepBatch:
    """The tentpole differential: mask-parallel == per-burst reference."""

    @pytest.fixture(scope="class")
    def population(self):
        from repro.workloads.population import RandomPopulation
        return RandomPopulation(count=200, seed=55).bursts()

    @pytest.mark.parametrize("packer", PACKERS)
    @pytest.mark.parametrize("scheme_name",
                             ["raw", "dbi-dc", "dbi-ac", "dbi-opt"])
    def test_bit_identical_to_reference(self, population, scheme_name,
                                        packer):
        scheme = get_scheme(scheme_name)
        for faults_per_burst, seed in ((1, 7), (3, 42)):
            reference = fault_sweep(scheme, population,
                                    faults_per_burst=faults_per_burst,
                                    seed=seed)
            with packed_on(packer):
                batch = fault_sweep_batch(scheme, population,
                                          faults_per_burst=faults_per_burst,
                                          seed=seed)
            assert batch == reference

    def test_reference_backend_delegates(self, population):
        assert (fault_sweep_batch(DbiDc(), population, seed=5,
                                  backend="reference")
                == fault_sweep(DbiDc(), population, seed=5))

    def test_validation(self, population):
        with pytest.raises(ValueError):
            fault_sweep_batch(DbiDc(), population, faults_per_burst=0)

    def test_empty_population(self):
        stats = fault_sweep_batch(DbiDc(), [])
        assert stats.injected_faults == 0
        assert stats.mean_amplification == 0.0


class TestDrawFaultMasks:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            draw_fault_masks(10, rate=-0.1, seed=1)
        with pytest.raises(ValueError):
            draw_fault_masks(10, rate=1.5, seed=1)

    def test_extreme_rates(self):
        assert draw_fault_masks(5, rate=0.0, seed=1) == [0] * 5
        assert draw_fault_masks(5, rate=1.0, seed=1) == [0x1FF] * 5

    def test_rate_streams_independent(self):
        """A rate's masks never depend on which other rates a sweep ran
        — the property the experiment cache relies on."""
        alone = draw_fault_masks(64, rate=0.01, seed=3)
        draw_fault_masks(64, rate=0.1, seed=3)  # interleaved other rate
        assert draw_fault_masks(64, rate=0.01, seed=3) == alone


class TestFaultCoverageCurve:
    @pytest.fixture(scope="class")
    def population(self):
        from repro.workloads.population import RandomPopulation
        return RandomPopulation(count=150, seed=21).bursts()

    @pytest.mark.parametrize("packer", PACKERS)
    def test_backends_bit_identical(self, population, packer):
        scheme = get_scheme("dbi-opt")
        with packed_on(packer):
            vector = fault_coverage_curve(scheme, population, seed=13,
                                          backend="vector")
        reference = fault_coverage_curve(scheme, population, seed=13,
                                         backend="reference")
        assert vector == reference

    def test_row_shape(self, population):
        rows = fault_coverage_curve(DbiDc(), population, rates=(0.05,),
                                    seed=3)
        (row,) = rows
        assert row.rate == 0.05
        assert row.total_beats == sum(len(b) for b in population)
        # Multi-lane faults can cancel through the DBI complement, so
        # bit errors need not equal injections — but both scale with
        # the rate and every corrupted beat has >= 1 bit error.
        assert row.corrupted_beats <= row.bit_errors
        assert 0 < row.injected_faults
        assert row.amplification == pytest.approx(16 / 9, rel=0.25)

    def test_rates_monotone_in_injections(self, population):
        rows = fault_coverage_curve(Raw(), population,
                                    rates=DEFAULT_FAULT_RATES, seed=7)
        injected = [row.injected_faults for row in rows]
        assert injected == sorted(injected)
        assert [row.rate for row in rows] == list(DEFAULT_FAULT_RATES)

    def test_empty_population(self):
        (row,) = fault_coverage_curve(Raw(), [], rates=(0.1,))
        assert row.total_beats == 0
        assert row.bit_error_rate == 0.0
        assert row.beat_error_rate == 0.0


class TestFaultMaskPlanes:
    """The packed planes equal the reference per-lane stream, packed —
    with NumPy through the bulk ``getrandbits`` decode."""

    @pytest.mark.parametrize("packer", PACKERS)
    @settings(max_examples=80, deadline=None)
    @given(n_words=st.one_of(st.sampled_from([0, 1, 63, 64, 65, 300]),
                             st.integers(min_value=0, max_value=300)),
           rate=st.one_of(st.sampled_from([0, 1, 1e-9, 0.0, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0)),
           seed=st.integers(min_value=0, max_value=2 ** 64))
    def test_equal_packed_reference(self, packer, n_words, rate, seed):
        with packed_on(packer):
            reference = bitsim.pack_planes(
                draw_fault_masks(n_words, rate, seed), WORD_WIDTH)
        assert fault_mask_planes(n_words, rate, seed) == reference

    @pytest.mark.parametrize("packer", PACKERS)
    @pytest.mark.parametrize("n_words", [MASK_DRAW_BLOCK_WORDS - 1,
                                         MASK_DRAW_BLOCK_WORDS,
                                         2 * MASK_DRAW_BLOCK_WORDS + 5])
    def test_block_seams(self, packer, n_words):
        for rate, seed in ((0.003, 7), (0.5, 11)):
            with packed_on(packer):
                reference = bitsim.pack_planes(
                    draw_fault_masks(n_words, rate, seed), WORD_WIDTH)
            assert fault_mask_planes(n_words, rate, seed) == reference

    @pytest.mark.parametrize("packer", PACKERS)
    def test_rate_validation(self, packer):
        for rate in (-0.1, 1.5, float("nan")):
            with packed_on(packer), pytest.raises(ValueError):
                fault_mask_planes(10, rate, 1)

    def test_numpy_free_draw_equals_bulk_decode(self, monkeypatch):
        """Without NumPy the planes are the per-lane draw packed, and
        they are the ints the bulk decode gives."""
        if not HAVE_NUMPY:
            pytest.skip("the bulk decode needs NumPy")
        sizes = (0, 1, 65, MASK_DRAW_BLOCK_WORDS + 3)
        bulk = [fault_mask_planes(n_words, 0.05, 3) for n_words in sizes]
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        with packed_on("int"):
            drawn = [fault_mask_planes(n_words, 0.05, 3) for n_words in sizes]
        assert drawn == bulk


class TestFaultCoverageRows:
    @pytest.fixture(scope="class")
    def population(self):
        from repro.workloads.population import RandomPopulation
        return RandomPopulation(count=60, seed=5).bursts()

    @pytest.mark.parametrize("backend, packer",
                             [("reference", None)]
                             + [("vector", packer) for packer in PACKERS])
    def test_rows_equal_per_scheme_curves(self, population, backend,
                                          packer):
        """Interleaved schemes and repeated rates, in task order: each
        row equals the scheme's own curve at that rate."""
        schemes = [Raw(), DbiDc(), get_scheme("dbi-opt")]
        tasks = [(schemes[0], 0.1), (schemes[0], 0.01), (schemes[1], 0.01),
                 (schemes[2], 0.1), (schemes[0], 0.3), (schemes[1], 0.1)]
        with packed_on(packer):
            rows = list(fault_coverage_rows(tasks, population, seed=4,
                                            backend=backend))
        expected = [fault_coverage_curve(scheme, population, rates=(rate,),
                                         seed=4, backend="reference")[0]
                    for scheme, rate in tasks]
        assert rows == expected


class TestBurstChecks:
    @pytest.mark.parametrize("backend", [None, "reference"])
    @pytest.mark.parametrize("bursts", [[[]], [[1, 256]]],
                             ids=["empty-burst", "byte-out-of-range"])
    def test_both_backends_refuse(self, bursts, backend):
        """An empty burst or a byte out of range is a ValueError on both
        backends, though the batched engine encodes nothing."""
        with pytest.raises(ValueError):
            fault_sweep_batch(DbiDc(), bursts, backend=backend)
        with pytest.raises(ValueError):
            fault_coverage_curve(DbiDc(), bursts, rates=(0.1,),
                                 backend=backend)


class TestMaskOnlyEngine:
    """The batched engines rest on one identity: the DBI bit always
    describes what was sent, so a fault mask changes the decoded byte of
    every wire word by the same amount."""

    RATES = (0.01, 0.5, 1.0)

    @pytest.fixture(scope="class")
    def population(self):
        from repro.workloads.population import RandomPopulation
        return RandomPopulation(count=80, seed=29)

    def test_decoded_error_is_the_mask(self):
        """Exhaustive over every 9-bit wire word and fault mask."""
        words = range(1 << WORD_WIDTH)
        for mask in words:
            error = (mask & 0xFF) ^ (0xFF if mask >> 8 else 0)
            for word in words:
                assert decode_word(word ^ mask) ^ decode_word(word) == error

    def test_no_scheme_is_called(self, population, monkeypatch):
        """On the default backend neither engine encodes: with every
        registered scheme's encoder made to raise, the batched answers
        still equal the reference's, for a burst list and for the
        population's own batch (a packed array with NumPy)."""
        schemes = [get_scheme(name) for name in available_schemes()]
        tasks = [(scheme, rate) for scheme in schemes for rate in self.RATES]
        bursts = population.bursts()
        rows = list(fault_coverage_rows(tasks, bursts, seed=6,
                                        backend="reference"))
        sweeps = [fault_sweep_batch(scheme, bursts, faults_per_burst=3,
                                    seed=6, backend="reference")
                  for scheme in schemes]

        def forbidden(*args, **kwargs):
            raise AssertionError("the batched fault engine called a scheme")

        monkeypatch.setattr(DbiScheme, "wire_words", forbidden)
        for scheme in schemes:
            monkeypatch.setattr(type(scheme), "encode", forbidden)
        for form in (bursts, next(population.iter_batches(len(population)))):
            assert list(fault_coverage_rows(tasks, form, seed=6)) == rows
            assert [fault_sweep_batch(scheme, form, faults_per_burst=3,
                                      seed=6)
                    for scheme in schemes] == sweeps

    def test_every_scheme_gets_the_same_row(self, population):
        bursts = population.bursts()
        for rate in self.RATES:
            rows = {fault_coverage_curve(get_scheme(name), bursts,
                                         rates=(rate,), seed=8)[0]
                    for name in available_schemes()}
            assert len(rows) == 1, rate


class TestDoctests:
    def test_module_doctests(self):
        """The docstring examples (including the 16/9 exhaustive sweep
        fixed in this PR) must execute."""
        import doctest
        import repro.extensions.reliability as module
        results = doctest.testmod(module)
        assert results.attempted > 0
        assert results.failed == 0
