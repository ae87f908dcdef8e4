"""Unit tests for the write-path controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.ctrl.controller import (
    CACHE_LINE_BYTES,
    MemoryController,
    WriteTransaction,
    compare_controllers,
)
from repro.phy.pod import pod135
from repro.phy.power import GBPS, InterfaceEnergyModel, PICOFARAD

payloads = st.binary(min_size=1, max_size=128)


class TestWriteTransaction:
    def test_validation(self):
        with pytest.raises(ValueError):
            WriteTransaction(-1, b"x")
        with pytest.raises(ValueError):
            WriteTransaction(0, b"")


class TestChannelMapping:
    def test_interleaving(self):
        controller = MemoryController(channels=4, backend="reference")
        assert controller.channel_of(0) == 0
        assert controller.channel_of(CACHE_LINE_BYTES) == 1
        assert controller.channel_of(4 * CACHE_LINE_BYTES) == 0

    def test_single_channel(self):
        controller = MemoryController(channels=1, backend="reference")
        assert controller.channel_of(123456) == 0


class TestWriteController:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryController(channels=0, backend="reference")
        with pytest.raises(ValueError):
            MemoryController(byte_lanes=0, backend="reference")

    @given(payloads)
    @settings(max_examples=30, deadline=None)
    def test_flush_accounts_every_byte(self, payload):
        controller = MemoryController(channels=1, byte_lanes=2, window=8,
                                      backend="reference")
        controller.write(WriteTransaction(0, payload))
        stats = controller.flush()
        assert stats.bytes_written == len(payload)
        assert stats.transactions == 1
        assert controller.pending_bytes() == 0
        # Every committed byte contributes one beat on its lane.
        total_beats = sum(controller.lane_activity(0, lane)[2]
                          for lane in range(2))
        assert total_beats == len(payload)

    def test_statistics_before_flush_exclude_pending(self):
        controller = MemoryController(channels=1, byte_lanes=1, window=16,
                                      backend="reference")
        controller.write(WriteTransaction(0, bytes([0x00] * 4)))
        # Window not full: nothing committed yet.
        assert controller.statistics().zeros == 0
        assert controller.pending_bytes() == 4
        stats = controller.flush()
        assert stats.zeros > 0

    def test_all_ones_payload_is_free(self):
        controller = MemoryController(channels=1, byte_lanes=2, window=4,
                                      backend="reference")
        controller.write(WriteTransaction(0, bytes([0xFF] * 32)))
        stats = controller.flush()
        assert stats.zeros == 0
        assert stats.transitions == 0

    def test_energy_accounting(self):
        energy_model = InterfaceEnergyModel(pod135(), 12 * GBPS, 3 * PICOFARAD)
        controller = MemoryController(channels=1, byte_lanes=1, window=4,
                                      energy_model=energy_model,
                                      backend="reference")
        controller.write(WriteTransaction(0, bytes([0x00] * 8)))
        stats = controller.flush()
        expected = energy_model.burst_energy(stats.transitions, stats.zeros)
        assert stats.energy_joules == pytest.approx(expected)
        assert stats.energy_per_byte > 0

    def test_channels_are_independent(self):
        controller = MemoryController(channels=2, byte_lanes=1, window=2,
                                      backend="reference")
        controller.write(WriteTransaction(0, bytes([0x00] * 8)))
        controller.write(WriteTransaction(CACHE_LINE_BYTES, bytes([0xFF] * 8)))
        controller.flush()
        zeros_by_channel = {
            channel: controller.lane_activity(channel, 0)[0]
            for channel in (0, 1)
        }
        assert zeros_by_channel[0] > 0
        assert zeros_by_channel[1] == 0


class TestLineBytesSteering:
    def test_non_default_line_size_still_round_robins(self):
        """Steering granularity follows line_bytes: 128-byte lines over 2
        channels must alternate, not funnel into channel 0."""
        from repro.ctrl.controller import MemoryController, transactions_from_bytes
        controller = MemoryController(channels=2, byte_lanes=2, window=4,
                                      line_bytes=128, backend="reference")
        controller.submit(transactions_from_bytes(bytes(512), line_bytes=128))
        controller.flush()
        for channel in range(2):
            assert controller.channel_statistics(channel).beats == 256
            assert controller.channel_statistics(channel).bursts == 2

    def test_line_bytes_validation(self):
        from repro.ctrl.controller import MemoryController
        with pytest.raises(ValueError):
            MemoryController(line_bytes=0)


class TestCompareControllers:
    def test_lookahead_never_hurts(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        rng = np.random.default_rng(13)
        stream = [bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
                  for _ in range(8)]
        rows = compare_controllers(stream, CostModel.fixed(),
                                   windows=(1, 8, 32))
        costs = [cost for _window, cost in rows]
        assert costs[0] >= costs[1] >= costs[2] - 1e-9
