"""Adaptive operating points: schedules, online tracking, auto backend.

Three contracts:

* **Schedule math** — boundary validation, segment lookup for both
  units, and per-segment tallies that sum exactly to the controller
  totals, identically on both backends.
* **Tracking wins** — the PR's acceptance test: on a two-phase trace
  (zeros-heavy half, transition-heavy half) whose phases prefer
  *different* operating points, online tracking must land strictly below
  **every** fixed point, and the switch log must show the re-pricing
  happening mid-trace.
* **Auto is vector** — with NumPy installed, ``backend="auto"`` picks
  the batched path even on the smallest link.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import available_backends
from repro.ctrl.adaptive import (
    AdaptiveCostTracker,
    OperatingPoint,
    OperatingPointSchedule,
    TrackingConfig,
)
from repro.ctrl.controller import MemoryController, transactions_from_bytes
from repro.phy.power import GBPS, PICOFARAD
from repro.workloads.source import BytesTraceSource

HAVE_VECTOR = "vector" in available_backends()

#: The two-phase test points: A prices zeros cheaply (high-rate POD135),
#: B prices transitions cheaply (low-rate POD12) — their preference
#: crosses between the phases below.
POINT_A = OperatingPoint("pod135", 12 * GBPS, 3 * PICOFARAD)
POINT_B = OperatingPoint("pod12", 8 * GBPS, 3 * PICOFARAD)

LANES = 4

#: Phase Z: constant 0x0F — zero transitions, four zeros per data beat.
#: Phase T: per-lane 0x33/0x66 alternation (the block repeats at twice
#: the lane stride, so striping preserves it) — four unavoidable data
#: transitions AND four zeros per beat under any invert choice.
PHASE_Z = b"\x0f" * (24 * 1024)
PHASE_T = (b"\x33" * LANES + b"\x66" * LANES) * (24 * 1024 // (2 * LANES))


class TestOperatingPoint:
    def test_auto_label(self):
        assert POINT_A.label == "pod135@12Gbps/3pF"

    def test_unknown_interface_rejected(self):
        with pytest.raises(KeyError):
            OperatingPoint("noge", 1 * GBPS, 1 * PICOFARAD)

    def test_positive_rate_and_load(self):
        with pytest.raises(ValueError):
            OperatingPoint("pod135", 0.0, 3 * PICOFARAD)

    def test_describe_binds_exact_coefficients(self):
        nearly = OperatingPoint("pod135", 12 * GBPS * (1 + 1e-12),
                                3 * PICOFARAD, label="x")
        assert nearly.describe() != POINT_A.describe()


class TestSchedule:
    def test_boundary_count_must_match(self):
        with pytest.raises(ValueError):
            OperatingPointSchedule((POINT_A, POINT_B), ())

    def test_boundaries_strictly_increase(self):
        third = OperatingPoint("sstl15", 2 * GBPS, 3 * PICOFARAD)
        with pytest.raises(ValueError):
            OperatingPointSchedule((POINT_A, POINT_B, third), (50, 50))

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            OperatingPointSchedule((POINT_A, POINT_B), (10,), unit="beats")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            OperatingPointSchedule((POINT_A, POINT_A), (10,))

    def test_segment_lookup_transactions(self):
        schedule = OperatingPointSchedule((POINT_A, POINT_B), (100,))
        assert schedule.segment_for(99, 0) == 0
        assert schedule.segment_for(100, 0) == 1

    def test_segment_lookup_address(self):
        schedule = OperatingPointSchedule((POINT_A, POINT_B), (4096,),
                                          unit="address")
        assert schedule.segment_for(0, 4095) == 0
        assert schedule.segment_for(0, 4096) == 1

    def test_segments_sum_to_totals_everywhere(self):
        payload = bytes((i * 29) & 0xFF for i in range(40000))
        fingerprints = []
        for backend in available_backends():
            schedule = OperatingPointSchedule((POINT_A, POINT_B), (300,))
            controller = MemoryController(
                channels=2, byte_lanes=LANES, window=16,
                schedule=schedule, backend=backend)
            controller.submit(transactions_from_bytes(payload, 64))
            controller.flush()
            stats = controller.statistics()
            segments = controller.segments()
            assert [s.label for s in segments] == [POINT_A.label,
                                                   POINT_B.label]
            assert sum(s.zeros for s in segments) == stats.zeros
            assert sum(s.transitions for s in segments) == stats.transitions
            assert sum(s.beats for s in segments) == stats.beats
            fingerprints.append([tuple(s.__dict__.values())
                                 for s in segments])
        assert all(fp == fingerprints[0] for fp in fingerprints)

    def test_address_interleaving_can_revisit_a_segment(self):
        schedule = OperatingPointSchedule((POINT_A, POINT_B), (128,),
                                          unit="address")
        controller = MemoryController(channels=1, byte_lanes=2, window=4,
                                      schedule=schedule,
                                      backend="reference")
        # addresses 0, 192, 64: segment 0 -> 1 -> back to 0.
        controller.submit(transactions_from_bytes(bytes(64), 64, 0))
        controller.submit(transactions_from_bytes(bytes(64), 64, 192))
        controller.submit(transactions_from_bytes(bytes(64), 64, 64))
        controller.flush()
        labels = [s.label for s in controller.segments()]
        assert labels == [POINT_A.label, POINT_B.label, POINT_A.label]

    def test_schedule_with_tracker_rejected(self):
        schedule = OperatingPointSchedule((POINT_A, POINT_B), (10,))
        tracker = AdaptiveCostTracker((POINT_A, POINT_B))
        with pytest.raises(ValueError):
            MemoryController(schedule=schedule, tracker=tracker)

    @given(unit=st.sampled_from(("transactions", "address")),
           switch_at=st.sets(st.integers(1, 400), min_size=2, max_size=2),
           index=st.integers(0, 300), address=st.integers(0, 400),
           lines=st.integers(0, 40), line_bytes=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_runs_split_where_segment_for_changes(
            self, unit, switch_at, index, address, lines, line_bytes):
        third = OperatingPoint("sstl15", 2 * GBPS, 3 * PICOFARAD)
        schedule = OperatingPointSchedule((POINT_A, POINT_B, third),
                                          tuple(sorted(switch_at)), unit)
        per_line = [schedule.segment_for(index + k, address + k * line_bytes)
                    for k in range(lines)]
        # Every run holds a line, so more than *lines* runs is a bug.
        runs = list(islice(schedule.runs(index, address, lines, line_bytes),
                           lines + 1))
        assert [segment for start, stop, segment in runs
                for _ in range(start, stop)] == per_line
        assert all(start < stop for start, stop, _ in runs)
        assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))


class TestTracker:
    def test_prior_is_first_point(self):
        tracker = AdaptiveCostTracker((POINT_B, POINT_A))
        assert tracker.select() is POINT_B
        assert tracker.switches == []

    def test_rates_are_weighted_means(self):
        tracker = AdaptiveCostTracker((POINT_A,), half_life_bytes=1e12)
        tracker.observe(zeros=30, transitions=10, beats=20)
        transitions, zeros = tracker.rates()
        assert transitions == pytest.approx(0.5)
        assert zeros == pytest.approx(1.5)

    def test_half_life_forgets_old_phases(self):
        tracker = AdaptiveCostTracker((POINT_A,), half_life_bytes=100.0)
        tracker.observe(zeros=1000, transitions=0, beats=1000)
        tracker.observe(zeros=0, transitions=1000, beats=1000)
        transitions, zeros = tracker.rates()
        assert transitions > 0.99  # ten half-lives wiped the first phase
        assert zeros < 0.01

    def test_min_dwell_damps_the_second_switch_only(self):
        tracker = AdaptiveCostTracker((POINT_A, POINT_B),
                                      half_life_bytes=64.0,
                                      min_dwell_bytes=10 ** 6)
        tracker.observe(zeros=0, transitions=9 * 512, beats=512)
        first = tracker.select()
        tracker.observe(zeros=9 * 512, transitions=0, beats=512)
        assert tracker.select() is first  # dwell window holds it

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveCostTracker((POINT_A,), half_life_bytes=0)
        with pytest.raises(ValueError):
            AdaptiveCostTracker((), half_life_bytes=1.0)
        tracker = AdaptiveCostTracker((POINT_A,))
        with pytest.raises(ValueError):
            tracker.observe(zeros=-1, transitions=0, beats=1)

    def test_tracking_config_builds_fresh_trackers(self):
        config = TrackingConfig((POINT_A, POINT_B), half_life_bytes=64.0)
        one, two = config.build(), config.build()
        one.observe(zeros=10, transitions=10, beats=10)
        assert two.beats_seen == 0
        assert config.describe() == config.describe()


def tracked_energy(payload, chunk_bytes, backend,
                   half_life_bytes=4096.0):
    tracker = AdaptiveCostTracker((POINT_A, POINT_B),
                                  half_life_bytes=half_life_bytes)
    controller = MemoryController(channels=1, byte_lanes=LANES, window=16,
                                  tracker=tracker, backend=backend)
    controller.submit_source(BytesTraceSource(payload,
                                              chunk_bytes=chunk_bytes))
    controller.flush()
    return controller, tracker


def fixed_energy(payload, point, backend):
    controller = MemoryController(channels=1, byte_lanes=LANES, window=16,
                                  model=point.cost_model(),
                                  energy_model=point.energy_model(),
                                  backend=backend)
    controller.submit(transactions_from_bytes(payload, 64))
    controller.flush()
    return controller.statistics().energy_joules


class TestTwoPhaseTracking:
    """The PR acceptance criterion: tracking beats every fixed point."""

    payload = PHASE_Z + PHASE_T

    def test_phases_prefer_different_points(self):
        """Sanity: neither fixed point wins both phases."""
        backend = available_backends()[-1]
        assert (fixed_energy(PHASE_Z, POINT_A, backend)
                < fixed_energy(PHASE_Z, POINT_B, backend))
        assert (fixed_energy(PHASE_T, POINT_B, backend)
                > 0)  # priced under its own model
        assert (fixed_energy(PHASE_T, POINT_B, backend)
                < fixed_energy(PHASE_T, POINT_A, backend))

    @pytest.mark.parametrize("backend", available_backends())
    def test_tracking_beats_every_fixed_point(self, backend):
        controller, tracker = tracked_energy(self.payload, 4096, backend)
        adaptive = controller.adaptive_energy_joules()
        for point in (POINT_A, POINT_B):
            assert adaptive < fixed_energy(self.payload, point, backend), \
                point.label

    def test_repricing_happens_mid_trace(self):
        backend = available_backends()[-1]
        controller, tracker = tracked_energy(self.payload, 4096, backend)
        assert tracker.switches, "tracker never re-priced the trellis"
        beats_total = controller.statistics().beats
        switch_beats, switch_label = tracker.switches[-1]
        assert 0 < switch_beats < beats_total
        assert switch_label == POINT_B.label
        labels = [s.label for s in controller.segments()]
        assert labels[0] == POINT_A.label  # prior matched phase Z
        assert labels[-1] == POINT_B.label  # tracked into phase T

    @pytest.mark.skipif(not HAVE_VECTOR, reason="needs the vector backend")
    def test_tracked_replay_is_backend_identical(self):
        results = []
        for backend in ("reference", "vector"):
            controller, tracker = tracked_energy(self.payload, 8192,
                                                 backend)
            stats = controller.statistics()
            results.append((stats.zeros, stats.transitions, stats.beats,
                            tracker.switches,
                            [tuple(vars(s).values())
                             for s in controller.segments()]))
        assert results[0] == results[1]


@pytest.mark.skipif(not HAVE_VECTOR, reason="needs NumPy installed")
def test_auto_is_vector_on_the_smallest_link():
    controller = MemoryController(channels=1, byte_lanes=1, window=1,
                                  backend="auto")
    assert controller.backend == "vector"


@pytest.mark.parametrize("half_life", [float("nan"), float("inf"),
                                       float("-inf")])
def test_non_finite_half_life_is_refused(half_life):
    """A NaN decay froze the estimate, so the tracker never switched."""
    with pytest.raises(ValueError, match="half_life_bytes"):
        AdaptiveCostTracker((POINT_A,), half_life_bytes=half_life)
    with pytest.raises(ValueError, match="half_life_bytes"):
        TrackingConfig((POINT_A, POINT_B), half_life_bytes=half_life)
