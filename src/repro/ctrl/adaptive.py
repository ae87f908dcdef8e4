"""Adaptive operating points for the write-path controller.

Two ways for a single replay pass to price (and encode) different parts
of one trace under different electrical operating points:

* :class:`OperatingPointSchedule` — **planned** switching: a DVFS-style
  frequency/voltage schedule with transaction- or address-indexed switch
  points.  The controller splits every submitted batch at the scheduled
  boundaries, re-prices the windowed trellis with each segment's cost
  model, and tallies per-segment activity so each segment is priced
  under its own :class:`~repro.phy.power.InterfaceEnergyModel`.

* :class:`AdaptiveCostTracker` — **measured** switching: the paper's
  OPT-tracking moved inside the batched write path.  The tracker watches
  the integer (zeros, transitions, beats) deltas the controller commits,
  maintains exponentially-weighted per-beat toggle/zero rates
  (``half_life_bytes`` of committed lane bytes halves a sample's
  weight), and greedily selects the candidate operating point with the
  lowest *predicted* energy per beat.  When the selection changes, the
  controller re-prices the trellis — at a window/submit boundary, so the
  vector and reference backends stay bit-identical by induction: equal
  committed deltas → equal EWMA state → equal switch points → equal
  models for every subsequent solve.

Both are threaded through :class:`repro.ctrl.controller.MemoryController`
(``schedule=`` / ``tracker=``) and surfaced as replay axes on
:class:`repro.sim.experiments.ReplaySpec` (``schedule=`` /
``tracking=``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.bitops import WORD_WIDTH
from ..core.costs import CostModel
from ..phy.interface import get_interface
from ..phy.power import GBPS, InterfaceEnergyModel, PICOFARAD

#: Default EWMA half-life of the tracker, in committed lane bytes.
DEFAULT_HALF_LIFE_BYTES = 4096.0


@dataclass(frozen=True)
class OperatingPoint:
    """One electrical operating point a controller can run at.

    Interface preset × data rate × load.  The experiment engine's replay
    axis uses this class for its fixed points too
    (:data:`repro.sim.experiments.ReplayPoint`).
    """

    interface: str
    data_rate_hz: float
    c_load_farads: float
    label: str = ""

    def __post_init__(self) -> None:
        get_interface(self.interface)  # raises KeyError on unknown presets
        if not all(math.isfinite(value) and value > 0
                   for value in (self.data_rate_hz, self.c_load_farads)):
            raise ValueError(
                "data_rate_hz and c_load_farads must be finite and positive")
        if not self.label:
            object.__setattr__(
                self, "label",
                f"{self.interface}@{self.data_rate_hz / GBPS:g}Gbps"
                f"/{self.c_load_farads / PICOFARAD:g}pF")

    def energy_model(self) -> InterfaceEnergyModel:
        return InterfaceEnergyModel(get_interface(self.interface),
                                    self.data_rate_hz, self.c_load_farads)

    def cost_model(self) -> CostModel:
        """The point's (E_transition, max(E_zero − E_one, 0)) weights."""
        return self.energy_model().cost_model()

    def describe(self) -> str:
        """Canonical cache-key fragment (label + exact coefficients)."""
        return (f"{self.interface}:{float(self.data_rate_hz).hex()}"
                f":{float(self.c_load_farads).hex()}")


def _check_points(points: Sequence[OperatingPoint],
                  noun: str) -> Tuple[OperatingPoint, ...]:
    points = tuple(points)
    if not points:
        raise ValueError(f"{noun} needs at least one operating point")
    labels = [point.label for point in points]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate operating-point labels in {labels}")
    return points


#: Schedule indexing units: the Nth submitted transaction, or the
#: transaction's address.
SCHEDULE_UNITS = ("transactions", "address")


@dataclass(frozen=True)
class OperatingPointSchedule:
    """A planned operating-point sequence with indexed switch points.

    ``points[i]`` drives segment *i*; ``switch_at[i - 1]`` is the first
    transaction index (``unit="transactions"``) or address
    (``unit="address"``) that belongs to segment *i*.  Boundaries are
    strictly increasing; a transaction maps to the last boundary at or
    below it, so address-interleaved traffic may legitimately revisit an
    earlier segment.

    Switching takes effect at the submit/window boundary the controller
    splits at, which makes a scheduled replay independent of how the
    trace was chunked — the split always lands on the same transaction.
    """

    points: Tuple[OperatingPoint, ...]
    switch_at: Tuple[int, ...]
    unit: str = "transactions"
    label: str = "schedule"

    def __post_init__(self) -> None:
        object.__setattr__(self, "points",
                           _check_points(self.points, "schedule"))
        object.__setattr__(self, "switch_at",
                           tuple(int(value) for value in self.switch_at))
        if len(self.switch_at) != len(self.points) - 1:
            raise ValueError(
                f"{len(self.points)} points need {len(self.points) - 1} "
                f"switch points, got {len(self.switch_at)}")
        if any(value <= 0 for value in self.switch_at):
            raise ValueError("switch points must be positive")
        if any(later <= earlier for earlier, later
               in zip(self.switch_at, self.switch_at[1:])):
            raise ValueError(
                f"switch points must be strictly increasing: "
                f"{self.switch_at}")
        if self.unit not in SCHEDULE_UNITS:
            raise ValueError(
                f"unknown unit {self.unit!r}; choose from {SCHEDULE_UNITS}")
        if not self.label:
            raise ValueError("schedule label must be non-empty")

    def point_at(self, segment: int) -> OperatingPoint:
        return self.points[segment]

    def segment_for(self, transaction_index: int, address: int) -> int:
        """Segment of one transaction (0-based submission index)."""
        key = (transaction_index if self.unit == "transactions"
               else address)
        return bisect_right(self.switch_at, key)

    def runs(self, index: int, address: int, lines: int,
             line_bytes: int) -> Iterator[Tuple[int, int, int]]:
        """``(start, stop, segment)`` runs of *lines* consecutive lines.

        The first line is transaction *index* at *address*, line *k*
        transaction ``index + k`` at ``address + k * line_bytes``; each
        run holds the lines :meth:`segment_for` puts in one segment.
        """
        key, step = ((index, 1) if self.unit == "transactions"
                     else (address, line_bytes))
        start = 0
        while start < lines:
            segment = bisect_right(self.switch_at, key + start * step)
            stop = lines
            if segment < len(self.switch_at):  # first line keyed past it
                stop = min(lines, -((key - self.switch_at[segment]) // step))
            yield start, stop, segment
            start = stop

    def points_by_label(self) -> Dict[str, OperatingPoint]:
        return {point.label: point for point in self.points}

    def describe(self) -> str:
        """Canonical cache-key fragment binding points, boundaries, unit."""
        steps = ";".join(
            point.describe() + (f"@{self.switch_at[index - 1]}"
                                if index else "")
            for index, point in enumerate(self.points))
        return f"u={self.unit};{steps}"


class AdaptiveCostTracker:
    """Online alpha/beta tracking over committed write-path activity.

    Feed committed integer deltas with :meth:`observe`; read the current
    best candidate with :meth:`select`.  The estimate is an exponentially
    weighted mean of per-beat transition and zero rates:

    ``decay = 0.5 ** (beats / half_life_bytes)`` per observation, so a
    committed lane byte seen ``half_life_bytes`` bytes ago carries half
    the weight of the newest one.  Selection minimises the predicted
    energy per lane byte-beat at the measured rates::

        r_t * E_transition + r_z * E_zero + (WORD_WIDTH - r_z) * E_one

    — the same linear pricing :meth:`InterfaceEnergyModel.burst_energy`
    applies to a burst, per beat.  Before any observation the first
    candidate is the prior.  ``min_dwell_bytes`` suppresses switching
    until that many beats accumulated since the last switch, damping
    oscillation near a cost crossover.

    The arithmetic is a deterministic function of the observed integer
    deltas, which the two controller backends produce bit-identically —
    so tracked replays are backend-identical too.
    """

    def __init__(self, points: Sequence[OperatingPoint],
                 half_life_bytes: float = DEFAULT_HALF_LIFE_BYTES,
                 min_dwell_bytes: int = 0):
        self.points = _check_points(points, "tracker")
        if not 0 < half_life_bytes < math.inf:  # NaN would freeze the EWMA
            raise ValueError(f"half_life_bytes must be finite and positive, "
                             f"got {half_life_bytes}")
        if min_dwell_bytes < 0:
            raise ValueError(
                f"min_dwell_bytes must be >= 0, got {min_dwell_bytes}")
        self.half_life_bytes = float(half_life_bytes)
        self.min_dwell_bytes = int(min_dwell_bytes)
        #: Per-candidate (E_transition, E_zero, E_one), hoisted once.
        self._energies = [
            (point.energy_model().energy_per_transition,
             point.energy_model().energy_per_zero,
             point.energy_model().energy_per_one)
            for point in self.points
        ]
        self._weight = 0.0
        self._transitions = 0.0
        self._zeros = 0.0
        self._beats_seen = 0
        self._beats_at_switch = 0
        self._current = 0
        #: ``(beats_seen, label)`` log of every selection change.
        self.switches: List[Tuple[int, str]] = []

    # -- measurement ---------------------------------------------------------
    def observe(self, zeros: int, transitions: int, beats: int) -> None:
        """Fold one committed (zeros, transitions, beats) delta in."""
        if beats < 0 or zeros < 0 or transitions < 0:
            raise ValueError("observed deltas must be non-negative")
        if beats == 0:
            return
        decay = 0.5 ** (beats / self.half_life_bytes)
        self._weight = self._weight * decay + beats
        self._transitions = self._transitions * decay + transitions
        self._zeros = self._zeros * decay + zeros
        self._beats_seen += beats

    def rates(self) -> Tuple[float, float]:
        """Estimated (transitions, zeros) per committed lane byte-beat."""
        if self._weight == 0.0:
            return 0.0, 0.0
        return (self._transitions / self._weight,
                self._zeros / self._weight)

    @property
    def beats_seen(self) -> int:
        return self._beats_seen

    # -- selection -----------------------------------------------------------
    def predicted_energy_per_beat(self, index: int) -> float:
        """Predicted joules per lane byte-beat at candidate *index*."""
        e_transition, e_zero, e_one = self._energies[index]
        r_transition, r_zero = self.rates()
        return (r_transition * e_transition + r_zero * e_zero
                + (WORD_WIDTH - r_zero) * e_one)

    def select(self) -> OperatingPoint:
        """The candidate to run next (updates the switch log).

        Sticky under ties and inside the dwell window; otherwise the
        argmin of :meth:`predicted_energy_per_beat` in declaration order.
        """
        if self._weight == 0.0:
            return self.points[self._current]
        if (self.min_dwell_bytes
                and self._beats_seen - self._beats_at_switch
                < self.min_dwell_bytes
                and self.switches):
            return self.points[self._current]
        best = self._current
        best_energy = self.predicted_energy_per_beat(best)
        for index in range(len(self.points)):
            energy = self.predicted_energy_per_beat(index)
            if energy < best_energy:
                best = index
                best_energy = energy
        if best != self._current:
            self._current = best
            self._beats_at_switch = self._beats_seen
            self.switches.append((self._beats_seen,
                                  self.points[best].label))
        return self.points[self._current]

    @property
    def current(self) -> OperatingPoint:
        return self.points[self._current]

    def points_by_label(self) -> Dict[str, OperatingPoint]:
        return {point.label: point for point in self.points}


@dataclass(frozen=True)
class TrackingConfig:
    """Declarative tracker parameters (the ``ReplaySpec.tracking`` axis).

    A spec-level value must be immutable and hashable; the stateful
    :class:`AdaptiveCostTracker` is built fresh per replay execution via
    :meth:`build`.
    """

    points: Tuple[OperatingPoint, ...]
    half_life_bytes: float = DEFAULT_HALF_LIFE_BYTES
    min_dwell_bytes: int = 0
    label: str = "tracking"

    def __post_init__(self) -> None:
        object.__setattr__(self, "points",
                           _check_points(self.points, "tracking config"))
        if not 0 < self.half_life_bytes < math.inf:
            raise ValueError(f"half_life_bytes must be finite and positive, "
                             f"got {self.half_life_bytes}")
        if self.min_dwell_bytes < 0:
            raise ValueError(
                f"min_dwell_bytes must be >= 0, got {self.min_dwell_bytes}")
        if not self.label:
            raise ValueError("tracking label must be non-empty")

    def build(self) -> AdaptiveCostTracker:
        return AdaptiveCostTracker(self.points,
                                   half_life_bytes=self.half_life_bytes,
                                   min_dwell_bytes=self.min_dwell_bytes)

    def points_by_label(self) -> Dict[str, OperatingPoint]:
        return {point.label: point for point in self.points}

    def describe(self) -> str:
        """Canonical cache-key fragment binding candidates + EWMA knobs."""
        steps = ";".join(point.describe() for point in self.points)
        return (f"hl={float(self.half_life_bytes).hex()};"
                f"dwell={self.min_dwell_bytes};{steps}")
