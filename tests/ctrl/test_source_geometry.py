"""Vector ``submit_source`` against the transaction route, at any geometry.

On the vector backend :meth:`MemoryController.submit_source` builds no
:class:`WriteTransaction`: each chunk's lines become the lane matrix by
address arithmetic.  This suite pins that path to the specification,
reference ``submit`` of the :func:`transactions_from_bytes` lines, over
every shape the arithmetic has to get right: 1–6 channels, 1–9 lanes,
lines of 1–80 bytes (shorter than the lane count, or not a multiple of
it), any base address, arbitrary chunkings with empty and sub-line
chunks, a schedule in either unit with switch points inside a chunk, and
a tracker.  A tracker observes once per chunk, so tracked replays are
compared with the reference fed the same per-chunk batches.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.vectorized import HAVE_NUMPY
from repro.ctrl.adaptive import (
    AdaptiveCostTracker,
    OperatingPoint,
    OperatingPointSchedule,
)
from repro.ctrl.controller import (
    MemoryController,
    WriteTransaction,
    transactions_from_bytes,
    transactions_from_source,
)
from repro.phy.power import GBPS, PICOFARAD

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")

POINTS = tuple(OperatingPoint(name, gbps * GBPS, 3 * PICOFARAD)
               for name, gbps in (("pod135", 12), ("pod12", 8),
                                  ("lvstl11", 4)))


@st.composite
def replays(draw):
    """``(payload, chunks, base_address, controller options)``."""
    payload = random.Random(draw(st.integers(0, 2 ** 32))).randbytes(
        draw(st.integers(1, 600)))
    line_bytes = draw(st.integers(min_value=1, max_value=80))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=120),
                          max_size=12))
    chunks, start = [], 0
    for size in sizes:
        chunks.append(payload[start:start + size])
        start += size
    chunks.append(payload[start:])
    if draw(st.booleans()):
        base_address = line_bytes * draw(st.integers(0, 50))
    else:
        base_address = draw(st.integers(0, 5000))
    lines = -(-len(payload) // line_bytes)
    adaptive = draw(st.sampled_from(
        ("transactions", "address", "tracker", "fixed")))
    options = {"channels": draw(st.integers(1, 6)),
               "byte_lanes": draw(st.integers(1, 9)),
               "window": draw(st.integers(1, 20)),
               "line_bytes": line_bytes}
    if adaptive == "tracker":
        options["tracker"] = draw(st.integers(8, 256))  # half-life, bytes
    elif adaptive != "fixed":
        if adaptive == "transactions":
            keys = st.integers(1, lines + 2)
        else:  # often inside a line: line index, then byte in the line
            keys = st.builds(
                lambda line, byte: max(1, base_address + line * line_bytes
                                       + byte),
                st.integers(0, lines), st.integers(0, line_bytes - 1))
        switch_at = sorted(draw(st.sets(keys, min_size=1,
                                        max_size=len(POINTS) - 1)))
        options["schedule"] = OperatingPointSchedule(
            POINTS[:len(switch_at) + 1], tuple(switch_at), unit=adaptive)
    return payload, chunks, base_address, options


def build(backend, options):
    options = dict(options)
    if "tracker" in options:
        options["tracker"] = AdaptiveCostTracker(
            POINTS, half_life_bytes=options["tracker"])
    return MemoryController(model=CostModel(1.0, 0.7), backend=backend,
                            record=True, **options)


def observed(controller):
    return (controller.statistics(),
            [controller.channel_statistics(channel)
             for channel in range(controller.channels)],
            controller.segments(),
            [controller.lane_decisions(channel, lane)
             for channel in range(controller.channels)
             for lane in range(controller.byte_lanes)])


@needs_numpy
@given(replay=replays())
@settings(max_examples=150, deadline=None)
def test_vector_source_replay_matches_transaction_route(replay):
    payload, chunks, base_address, options = replay
    line_bytes = options["line_bytes"]
    vector = build("vector", options)
    vector.submit_source(chunks, base_address=base_address)
    vector.flush()
    reference = build("reference", options)
    if "tracker" in options:
        batches = transactions_from_source(chunks, line_bytes, base_address)
    else:
        batches = [transactions_from_bytes(payload, line_bytes,
                                           base_address)]
    for batch in batches:
        reference.submit(batch)
    reference.flush()
    assert observed(vector) == observed(reference)
    if "tracker" in options:
        assert vector.tracker.switches == reference.tracker.switches


@needs_numpy
def test_vector_source_replay_builds_no_transaction(monkeypatch):
    """With WriteTransaction made unbuildable, scheduled and tracked
    vector replays still finish, with unchanged results."""
    payload = bytes((index * 37) & 0xFF for index in range(5000))
    chunks = [payload[:999], payload[999:1000], payload[1000:]]
    geometry = {"channels": 3, "byte_lanes": 5, "window": 16,
                "line_bytes": 36}
    runs = ({**geometry, "schedule": OperatingPointSchedule(POINTS[:2],
                                                            (70,))},
            {**geometry, "tracker": 64})

    def replay(options):
        controller = build("vector", options)
        controller.submit_source(chunks)
        controller.flush()
        return observed(controller)

    expected = [replay(options) for options in runs]

    def forbidden(self):
        raise AssertionError("WriteTransaction built on the vector path")

    monkeypatch.setattr(WriteTransaction, "__post_init__", forbidden)
    with pytest.raises(AssertionError):
        WriteTransaction(0, b"x")
    assert [replay(options) for options in runs] == expected
