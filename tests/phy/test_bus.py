"""Unit tests for the multi-lane memory bus simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DbiDc, Raw
from repro.core.burst import Burst
from repro.phy.bus import BusStatistics, MemoryBus
from repro.phy.pod import pod135
from repro.phy.power import GBPS, InterfaceEnergyModel, PICOFARAD

payloads = st.binary(min_size=1, max_size=256)


@pytest.fixture
def energy_model():
    return InterfaceEnergyModel(pod135(), 12 * GBPS, 3 * PICOFARAD)


class TestBusStatistics:
    def test_merge(self):
        a = BusStatistics(bursts=1, beats=8, zeros=3, transitions=4,
                          energy_joules=1e-12)
        b = BusStatistics(bursts=2, beats=16, zeros=5, transitions=6,
                          energy_joules=2e-12)
        merged = a.merge(b)
        assert merged.bursts == 3
        assert merged.zeros == 8
        assert merged.energy_joules == pytest.approx(3e-12)

    def test_means(self):
        stats = BusStatistics(bursts=4, beats=32, zeros=8, transitions=12,
                              energy_joules=4e-12)
        assert stats.zeros_per_burst == 2.0
        assert stats.transitions_per_burst == 3.0
        assert stats.energy_per_burst == pytest.approx(1e-12)

    def test_empty_means(self):
        stats = BusStatistics()
        assert stats.zeros_per_burst == 0.0
        assert stats.energy_per_burst == 0.0


class TestMemoryBus:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBus(Raw, byte_lanes=0)
        with pytest.raises(ValueError):
            MemoryBus(Raw, burst_length=0)

    def test_striping(self):
        bus = MemoryBus(Raw, byte_lanes=2, burst_length=2)
        bus.write(bytes([1, 2, 3, 4]))
        # Lane 0 gets bytes 1, 3; lane 1 gets bytes 2, 4.
        assert bus.lanes[0].stats.bursts == 1
        assert bus.lanes[1].stats.bursts == 1

    def test_burst_count(self):
        bus = MemoryBus(Raw, byte_lanes=4, burst_length=8)
        stats = bus.write(bytes(range(64)))
        # 64 bytes / 4 lanes = 16 bytes per lane = 2 bursts per lane.
        assert stats.bursts == 8
        assert stats.beats == 64

    def test_tail_padding_adds_no_zero_cost(self):
        bus = MemoryBus(Raw, byte_lanes=1, burst_length=8)
        stats = bus.write(bytes([0xFF] * 3))
        assert stats.zeros == 0
        assert stats.transitions == 0

    @given(payloads)
    @settings(max_examples=30, deadline=None)
    def test_write_returns_call_delta(self, payload):
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4)
        first = bus.write(payload)
        second = bus.write(payload)
        cumulative = bus.statistics()
        assert cumulative.bursts == first.bursts + second.bursts
        assert cumulative.zeros == first.zeros + second.zeros

    @pytest.mark.parametrize("backend", ["reference", "auto"])
    def test_payload_validation(self, backend):
        """A payload that is not ``bytes`` is checked byte by byte before
        any lane sends: an int list writes like its bytes, an
        out-of-range int raises ``ValueError`` and a ``bool`` or a float
        ``TypeError``."""
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4, backend=backend)

        def write(payload):
            return vars(MemoryBus(DbiDc, byte_lanes=2, burst_length=4,
                                  backend=backend).write(payload))

        assert write([0, 255, 17, 3, 9]) == write(bytes([0, 255, 17, 3, 9]))
        assert write(bytearray(b"\x00\x01\x02")) == write(b"\x00\x01\x02")
        for bad, error in (([1, 256], ValueError), ([-1], ValueError),
                           ([1, True], TypeError), ([0.0], TypeError),
                           ([7, 1.5], TypeError)):
            with pytest.raises(error):
                bus.write(bad)
        assert bus.statistics() == BusStatistics()

    def test_energy_accounting(self, energy_model):
        bus = MemoryBus(Raw, byte_lanes=1, burst_length=8,
                        energy_model=energy_model)
        stats = bus.write(bytes([0x00] * 8))
        expected = energy_model.burst_energy(stats.transitions, stats.zeros)
        assert stats.energy_joules == pytest.approx(expected)

    def test_state_threads_across_writes(self):
        """Chained bursts: the second burst sees the first one's final
        word, so a constant stream stops paying transitions."""
        bus = MemoryBus(Raw, byte_lanes=1, burst_length=4)
        bus.write(bytes([0x55] * 4))
        second = bus.write(bytes([0x55] * 4))
        assert second.transitions == 0

    def test_write_bursts_single_lane(self):
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4)
        stats = bus.write_bursts([Burst([0x00] * 4)], lane=1)
        assert stats.bursts == 1
        assert bus.lanes[1].stats.bursts == 1
        assert bus.lanes[0].stats.bursts == 0

    def test_write_bursts_lane_bounds(self):
        bus = MemoryBus(Raw, byte_lanes=2)
        with pytest.raises(IndexError):
            bus.write_bursts([Burst([1])], lane=2)

    def test_reset(self):
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4)
        bus.write(bytes(range(16)))
        bus.reset()
        stats = bus.statistics()
        assert stats.bursts == 0
        assert all(lane.state_word == 0x1FF for lane in bus.lanes)

    def test_dc_beats_raw_on_zero_heavy_payload(self, energy_model):
        payload = bytes([0x00] * 64)
        raw_bus = MemoryBus(Raw, byte_lanes=4, energy_model=energy_model)
        dc_bus = MemoryBus(DbiDc, byte_lanes=4, energy_model=energy_model)
        raw_stats = raw_bus.write(payload)
        dc_stats = dc_bus.write(payload)
        assert dc_stats.energy_joules < raw_stats.energy_joules

    def test_lane_isolation(self):
        """Encoders must not share state across lanes."""
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=2)
        bus.write(bytes([0x00, 0xFF, 0x00, 0xFF]))
        # Lane 0 saw two 0x00 bytes, lane 1 two 0xFF bytes.
        assert bus.lanes[0].stats.zeros != bus.lanes[1].stats.zeros


try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


class TestWriteBurstsEnergyConsistency:
    """Regression: the call result must use the same per-burst energy
    accounting as the cumulative lane statistics (it used to price the
    call totals once, drifting by float rounding)."""

    @given(payloads)
    @settings(max_examples=25, deadline=None)
    def test_call_delta_equals_stats_growth(self, payload):
        bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4,
                        energy_model=InterfaceEnergyModel(
                            pod135(), 12 * GBPS, 3 * PICOFARAD))
        bursts = [Burst(payload[i:i + 4].ljust(4, b"\xff"))
                  for i in range(0, len(payload), 4)]
        before = bus.statistics().energy_joules
        result = bus.write_bursts(bursts, lane=1)
        after = bus.statistics().energy_joules
        assert result.energy_joules == after - before
        assert result.energy_joules == bus.lanes[1].stats.energy_joules

    def test_matches_send_burst_accrual(self, energy_model):
        """write_bursts and burst-at-a-time writes agree bit for bit."""
        bursts = [Burst([0x00, 0xFF, 0x3C, 0xC3]), Burst([0x55] * 4),
                  Burst([0xAA] * 4)]
        together = MemoryBus(DbiDc, byte_lanes=1, burst_length=4,
                             energy_model=energy_model)
        one_by_one = MemoryBus(DbiDc, byte_lanes=1, burst_length=4,
                               energy_model=energy_model)
        total = together.write_bursts(bursts)
        for burst in bursts:
            one_by_one.write_bursts([burst])
        assert (total.energy_joules
                == one_by_one.statistics().energy_joules
                == together.statistics().energy_joules)


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector backend requires NumPy")
class TestBatchedBusParity:
    """The vector-backend MemoryBus must be bit-identical to the scalar
    reference: statistics, per-wire counters, wire state and energy."""

    schemes = st.sampled_from(["raw", "dbi-dc", "dbi-ac", "dbi-opt"])

    @staticmethod
    def snapshot(bus):
        return [((lane.stats.bursts, lane.stats.beats, lane.stats.zeros,
                  lane.stats.transitions, lane.stats.energy_joules),
                 lane.state_word,
                 [(wire.level, wire.zero_beats, wire.transitions, wire.beats)
                  for wire in lane.group.lanes])
                for lane in bus.lanes]

    @staticmethod
    def make_pair(scheme_name, energy_model=None):
        from repro.core.schemes import get_scheme
        factory = lambda: get_scheme(scheme_name)
        if energy_model is None:
            energy_model = InterfaceEnergyModel(pod135(), 12 * GBPS,
                                                3 * PICOFARAD)
        reference = MemoryBus(factory, byte_lanes=3, burst_length=4,
                              energy_model=energy_model,
                              backend="reference")
        vector = MemoryBus(factory, byte_lanes=3, burst_length=4,
                           energy_model=energy_model, backend="vector")
        return reference, vector

    @given(payload=payloads, scheme_name=schemes)
    @settings(max_examples=30, deadline=None)
    def test_striped_writes_identical(self, payload, scheme_name):
        reference, vector = self.make_pair(scheme_name)
        for chunk in (payload, payload[::-1]):  # ragged tails included
            ref_stats = reference.write(chunk)
            vec_stats = vector.write(chunk)
            assert vars(ref_stats) == vars(vec_stats)
            assert self.snapshot(reference) == self.snapshot(vector)

    @given(payload=payloads)
    @settings(max_examples=20, deadline=None)
    def test_write_bursts_identical_with_ragged_tail(self, payload):
        """Pre-formed bursts of mixed lengths: the vector path must fall
        back (non-rectangular pack) and still match."""
        bursts = [Burst(payload[i:i + 4]) for i in range(0, len(payload), 4)]
        reference, vector = self.make_pair("dbi-dc")
        ref_stats = reference.write_bursts(bursts, lane=2)
        vec_stats = vector.write_bursts(bursts, lane=2)
        assert vars(ref_stats) == vars(vec_stats)
        assert self.snapshot(reference) == self.snapshot(vector)

    def test_vector_write_skips_scalar_encode(self, monkeypatch):
        """Acceptance: on the vector backend, MemoryBus.write never runs
        per-burst scheme.encode for a batchable scheme."""
        from repro.core import schemes as schemes_mod

        def forbidden(self, burst, prev_word=0x1FF):
            raise AssertionError("scalar encode called on vector backend")

        monkeypatch.setattr(schemes_mod.DbiScheme, "encode", forbidden)
        from repro.core.schemes import get_scheme
        bus = MemoryBus(lambda: get_scheme("dbi-opt"), byte_lanes=2,
                        burst_length=8, backend="vector")
        stats = bus.write(bytes(range(64)))
        assert stats.bursts == 8
