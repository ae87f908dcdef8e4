"""Differential suite: batched controller path vs the per-byte reference.

The acceptance contract: :class:`MemoryController` with
``backend="vector"`` is bit-identical to ``backend="reference"`` (also
when the reference is fed one transaction at a time) — same integer
statistics, same per-lane invert decisions — across POD/SSTL/LVSTL
operating points, arbitrary channel/lane geometries, ragged payloads and
multi-batch submission.  Without NumPy ``auto`` resolves to the
reference path, so the suite runs (and passes trivially on the backend
axis) NumPy-free.
"""

import random

import pytest

from repro.core.costs import CostModel
from repro.core.vectorized import available_backends
from repro.ctrl.controller import (
    CACHE_LINE_BYTES,
    MemoryController,
    WriteTransaction,
    transactions_from_bytes,
)
from repro.phy.interface import get_interface
from repro.phy.power import GBPS, InterfaceEnergyModel, PICOFARAD

#: Operating points spanning the three electrical standards.
OPERATING_POINTS = [
    ("pod135", 12 * GBPS, 3 * PICOFARAD),
    ("pod12", 3.2 * GBPS, 3 * PICOFARAD),
    ("sstl15", 1.6 * GBPS, 3 * PICOFARAD),
    ("lvstl11", 3.2 * GBPS, 2 * PICOFARAD),
]


def random_transactions(count, seed, line_bytes=CACHE_LINE_BYTES,
                        ragged=False):
    rng = random.Random(seed)
    transactions = []
    for index in range(count):
        size = rng.randrange(1, line_bytes + 1) if ragged else line_bytes
        transactions.append(WriteTransaction(
            index * CACHE_LINE_BYTES,
            bytes(rng.getrandbits(8) for _ in range(size))))
    return transactions


def replay(backend, transactions, energy_model, channels, lanes, window,
           batches=1):
    controller = MemoryController(
        channels=channels, byte_lanes=lanes,
        model=energy_model.cost_model(), window=window,
        energy_model=energy_model, backend=backend, record=True)
    step = max(1, len(transactions) // batches)
    for start in range(0, len(transactions), step):
        controller.submit(transactions[start:start + step])
    stats = controller.flush()
    return controller, stats


def assert_controllers_identical(reference, vector, channels, lanes):
    ref_stats, vec_stats = reference.statistics(), vector.statistics()
    assert (vec_stats.zeros, vec_stats.transitions, vec_stats.beats) == \
        (ref_stats.zeros, ref_stats.transitions, ref_stats.beats)
    assert vec_stats.transactions == ref_stats.transactions
    assert vec_stats.bytes_written == ref_stats.bytes_written
    assert vec_stats.energy_joules == ref_stats.energy_joules
    for channel in range(channels):
        for lane in range(lanes):
            assert (vector.lane_activity(channel, lane)
                    == reference.lane_activity(channel, lane))
            assert (vector.lane_decisions(channel, lane)
                    == reference.lane_decisions(channel, lane))


@pytest.mark.parametrize("interface_name,rate,c_load", OPERATING_POINTS)
@pytest.mark.parametrize("geometry", [(1, 1), (1, 4), (2, 4), (3, 2)])
def test_vector_path_matches_reference(interface_name, rate, c_load,
                                       geometry):
    channels, lanes = geometry
    energy_model = InterfaceEnergyModel(get_interface(interface_name), rate,
                                        c_load)
    transactions = random_transactions(40, seed=hash((interface_name,
                                                      geometry)) & 0xFFFF)
    reference, _ = replay("reference", transactions, energy_model,
                          channels, lanes, window=8)
    for backend in available_backends():
        vector, _ = replay(backend, transactions, energy_model,
                           channels, lanes, window=8, batches=3)
        assert_controllers_identical(reference, vector, channels, lanes)


@pytest.mark.parametrize("window", [1, 3, 8, 16, 33])
def test_parity_across_windows(window):
    energy_model = InterfaceEnergyModel(get_interface("pod135"), 12 * GBPS,
                                        3 * PICOFARAD)
    transactions = random_transactions(30, seed=window, ragged=True)
    reference, _ = replay("reference", transactions, energy_model, 2, 2,
                          window)
    for backend in available_backends():
        vector, _ = replay(backend, transactions, energy_model, 2, 2,
                           window, batches=4)
        assert_controllers_identical(reference, vector, 2, 2)


def test_parity_on_trace_payload():
    """Cache-line replay of a structured payload, incl. a short tail line."""
    payload = bytes(range(256)) * 10 + b"\x00" * 37
    transactions = transactions_from_bytes(payload)
    energy_model = InterfaceEnergyModel(get_interface("lvstl11"), 3.2 * GBPS,
                                        2 * PICOFARAD)
    reference, _ = replay("reference", transactions, energy_model, 2, 4, 16)
    for backend in available_backends():
        vector, _ = replay(backend, transactions, energy_model, 2, 4, 16,
                           batches=2)
        assert_controllers_identical(reference, vector, 2, 4)


def test_legacy_write_controller_is_the_reference():
    """The reference fed one transaction at a time and batched submit
    agree exactly."""
    transactions = random_transactions(25, seed=99)
    legacy = MemoryController(channels=2, byte_lanes=4,
                              model=CostModel.fixed(), window=8, record=True,
                              backend="reference")
    for transaction in transactions:
        legacy.write(transaction)
    legacy_stats = legacy.flush()
    for backend in available_backends():
        controller = MemoryController(channels=2, byte_lanes=4,
                                      model=CostModel.fixed(), window=8,
                                      backend=backend, record=True)
        controller.submit(transactions)
        stats = controller.flush()
        assert (stats.zeros, stats.transitions, stats.beats) == \
            (legacy_stats.zeros, legacy_stats.transitions, legacy_stats.beats)
        for channel in range(2):
            for lane in range(4):
                assert (controller.lane_decisions(channel, lane)
                        == legacy.lane_decisions(channel, lane))
