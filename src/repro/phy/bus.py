"""Stateful multi-lane memory bus simulator.

:class:`MemoryBus` models the write path of a memory channel: a configurable
number of byte lanes (x8/x16/x32 devices), each with its own DBI pin and an
independent DBI encoder instance.  Payloads are striped across lanes the
way a memory controller does (lane *j* carries bytes ``j, j+lanes,
j+2·lanes, ...``), encoded per lane with bus state threaded across bursts,
and accounted with the per-wire counters of :mod:`repro.phy.lane` and the
energy model of :mod:`repro.phy.power`.

The write path is batched like the controller's: each lane's burst train,
``bytes`` rows with no :class:`~repro.core.burst.Burst` built, is encoded
in one :meth:`~repro.core.schemes.DbiScheme.wire_words` call (state
threaded across bursts).  When its vector branch runs, activity is
tallied array-at-a-time and the per-wire counters update through
:meth:`~repro.phy.lane.LaneGroup.drive_words_batch`.  Both paths produce
bit-identical statistics, energies and wire state (enforced by
``tests/phy/test_bus.py``).

This is the substrate for trace-driven evaluation: everything the
figure-level benchmarks measure on synthetic bursts can also be measured on
realistic multi-burst transfers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.bitops import (ALL_ONES_WORD, check_byte, total_transitions,
                           total_zeros)
from ..core.burst import Burst
from ..core.schemes import DbiScheme, EncodedBurst
from ..core.vectorized import batch_activity, chain_boundaries
from .lane import LaneGroup
from .power import InterfaceEnergyModel


@dataclass
class BusStatistics:
    """Aggregate activity and energy of everything sent over the bus."""

    bursts: int = 0
    beats: int = 0
    zeros: int = 0
    transitions: int = 0
    energy_joules: float = 0.0

    def merge(self, other: "BusStatistics") -> "BusStatistics":
        """Element-wise sum (for combining lanes or runs)."""
        return BusStatistics(
            bursts=self.bursts + other.bursts,
            beats=self.beats + other.beats,
            zeros=self.zeros + other.zeros,
            transitions=self.transitions + other.transitions,
            energy_joules=self.energy_joules + other.energy_joules,
        )

    @property
    def zeros_per_burst(self) -> float:
        """Mean zeros per burst."""
        return self.zeros / self.bursts if self.bursts else 0.0

    @property
    def transitions_per_burst(self) -> float:
        """Mean transitions per burst."""
        return self.transitions / self.bursts if self.bursts else 0.0

    @property
    def energy_per_burst(self) -> float:
        """Mean energy per burst in joules."""
        return self.energy_joules / self.bursts if self.bursts else 0.0


@dataclass
class ByteLane:
    """One byte lane: encoder + wire state + counters."""

    scheme: DbiScheme
    group: LaneGroup = field(default_factory=LaneGroup)
    state_word: int = ALL_ONES_WORD
    stats: BusStatistics = field(default_factory=BusStatistics)

    def send_burst(self, burst: Burst,
                   energy_model: Optional[InterfaceEnergyModel]) -> EncodedBurst:
        """Encode and transmit one burst, updating wire state and counters."""
        encoded = self.scheme.encode(burst, prev_word=self.state_word)
        self._drive(encoded.words, energy_model)
        return encoded

    def _drive(self, words: Sequence[int],
               energy_model: Optional[InterfaceEnergyModel]) -> None:
        """Transmit one burst's wire words (the per-burst reference)."""
        n_transitions = total_transitions(words, self.state_word)
        n_zeros = total_zeros(words)
        self.group.drive_words(words)
        self.state_word = words[-1]
        self.stats.bursts += 1
        self.stats.beats += len(words)
        self.stats.zeros += n_zeros
        self.stats.transitions += n_transitions
        if energy_model is not None:
            self.stats.energy_joules += energy_model.burst_energy(
                n_transitions, n_zeros)

    def send_bursts(self, bursts: Sequence,
                    energy_model: Optional[InterfaceEnergyModel],
                    backend: Optional[str] = None) -> None:
        """Encode and transmit a burst train (:class:`Burst` objects or
        equal-length ``bytes`` rows), state threaded across bursts.

        The batched twin of calling :meth:`send_burst` in a loop, on the
        words of :meth:`~repro.core.schemes.DbiScheme.wire_words` chained
        from the lane's bus state.  From its vector branch, activity is
        tallied with the shared popcount table, energy accrues per burst
        in transmission order and the per-wire counters update via
        :meth:`~repro.phy.lane.LaneGroup.drive_words_batch`, bit-identical
        to driving the reference branch's words burst by burst.
        """
        words = self.scheme.wire_words(bursts, self.state_word, chained=True,
                                       backend=backend)
        if isinstance(words, list):  # the reference branch: per burst
            for row in words:
                self._drive(row, energy_model)
            return
        batch, length = words.shape
        per_transitions, per_zeros = batch_activity(
            words, chain_boundaries(self.state_word, words[:, -1]))
        self.group.drive_words_batch(words.ravel().tolist())
        self.state_word = int(words[-1, -1])
        self.stats.bursts += batch
        self.stats.beats += batch * length
        self.stats.zeros += int(per_zeros.sum())
        self.stats.transitions += int(per_transitions.sum())
        if energy_model is not None:
            # Same per-burst accrual (and float summation order) as the
            # reference branch.
            for n_transitions, n_zeros in zip(per_transitions.tolist(),
                                              per_zeros.tolist()):
                self.stats.energy_joules += energy_model.burst_energy(
                    n_transitions, n_zeros)


class MemoryBus:
    """A multi-byte-lane memory channel with per-lane DBI encoding.

    Parameters
    ----------
    scheme_factory:
        Zero-argument callable producing one encoder per lane (lanes must
        not share mutable encoder state).
    byte_lanes:
        Number of 8-bit lanes (4 for a x32 graphics device).
    burst_length:
        Beats per burst (JEDEC BL8 by default).
    energy_model:
        Optional operating point for energy accounting.
    backend:
        Execution backend for the per-lane encode
        (``auto``/``reference``/``vector``, defaulting from
        ``REPRO_BACKEND``); statistics are bit-identical either way.

    >>> from repro.baselines import DbiDc
    >>> bus = MemoryBus(DbiDc, byte_lanes=2, burst_length=4)
    >>> stats = bus.write(bytes(range(16)))
    >>> stats.bursts
    4
    """

    def __init__(self, scheme_factory, byte_lanes: int = 4,
                 burst_length: int = 8,
                 energy_model: Optional[InterfaceEnergyModel] = None,
                 backend: Optional[str] = None):
        if byte_lanes < 1:
            raise ValueError(f"byte_lanes must be >= 1, got {byte_lanes}")
        if burst_length < 1:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        self.byte_lanes = byte_lanes
        self.burst_length = burst_length
        self.energy_model = energy_model
        self.backend = backend
        self.lanes: List[ByteLane] = [ByteLane(scheme=scheme_factory())
                                      for _ in range(byte_lanes)]

    def write(self, payload: Sequence[int]) -> BusStatistics:
        """Stripe *payload* across lanes, encode and transmit everything.

        Each lane's bytes go through the batched
        :meth:`ByteLane.send_bursts` path as ``burst_length`` rows, the
        tail row padded idle-high with 0xFF (so the train is rectangular
        and the padding costs nothing).  A payload that is not ``bytes``
        is checked byte by byte first (:func:`~repro.core.bitops.check_byte`).
        Returns the statistics of **this call** (the per-lane cumulative
        counters keep running across calls).
        """
        if not isinstance(payload, (bytes, bytearray)):
            payload = bytes(map(check_byte, payload))
        length = self.burst_length
        before = self.statistics()
        for index, lane in enumerate(self.lanes):
            lane_bytes = payload[index::self.byte_lanes]
            if not lane_bytes:
                continue
            lane_bytes += b"\xff" * (-len(lane_bytes) % length)
            lane.send_bursts([lane_bytes[start:start + length]
                              for start in range(0, len(lane_bytes), length)],
                             self.energy_model, backend=self.backend)
        after = self.statistics()
        return BusStatistics(
            bursts=after.bursts - before.bursts,
            beats=after.beats - before.beats,
            zeros=after.zeros - before.zeros,
            transitions=after.transitions - before.transitions,
            energy_joules=after.energy_joules - before.energy_joules,
        )

    def write_bursts(self, bursts: Sequence[Burst], lane: int = 0) -> BusStatistics:
        """Send pre-formed bursts down one lane (no striping).

        Energy is accounted per burst exactly like :meth:`write` /
        :meth:`ByteLane.send_burst`, so the returned call delta always
        matches the growth of the cumulative lane statistics (it used to
        be priced once on the call totals, which drifted from the
        per-burst accrual by float rounding).
        """
        if not 0 <= lane < self.byte_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.byte_lanes})")
        target = self.lanes[lane]
        before = BusStatistics(**vars(target.stats))
        target.send_bursts(list(bursts), self.energy_model,
                           backend=self.backend)
        after = target.stats
        return BusStatistics(
            bursts=after.bursts - before.bursts,
            beats=after.beats - before.beats,
            zeros=after.zeros - before.zeros,
            transitions=after.transitions - before.transitions,
            energy_joules=after.energy_joules - before.energy_joules,
        )

    def statistics(self) -> BusStatistics:
        """Cumulative statistics over all lanes since construction/reset."""
        total = BusStatistics()
        for lane in self.lanes:
            total = total.merge(lane.stats)
        return total

    def reset(self) -> None:
        """Return all lanes to idle-high and clear every counter."""
        for lane in self.lanes:
            lane.group.reset()
            lane.state_word = ALL_ONES_WORD
            lane.stats = BusStatistics()
