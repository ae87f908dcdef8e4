"""Write-path memory-controller model.

Sits one level above :class:`repro.phy.bus.MemoryBus`: accepts write
*transactions* (address + payload, e.g. cache-line evictions), steers
them to a channel by address, stripes each channel's data across its byte
lanes, and encodes each lane with the windowed-trellis streaming
optimiser so the DBI decisions exploit lookahead across the write queue —
the deployment context the paper's conclusion sketches for
controller-side encoding.

The ``channels × byte_lanes`` lane streams go to one lane engine, which
the backend picks once (see :class:`MemoryController`):

* ``reference`` — :class:`~repro.core.streaming.PerLaneStreamingEncoder`,
  one :class:`~repro.core.streaming.StreamingOptimalEncoder` per
  (channel, lane), fed byte by byte: the executable specification.
* ``vector`` — its twin :class:`~repro.core.streaming.BatchStreamingEncoder`,
  which solves every full lookahead window of a submitted batch at once
  (the batched Viterbi kernel of :mod:`repro.core.vectorized`), with
  statistics tallied per lane without any per-byte bookkeeping.  A trace
  source (:meth:`MemoryController.submit_source`) is striped without
  building a transaction: line *i* goes to channel ``(first_line + i) %
  channels`` and byte *j* of a line to lane ``j % byte_lanes``, so each
  chunk's lines become the ``(channels × byte_lanes, n)`` lane matrix by
  one reshape and transpose.

The controller makes the same calls on either engine, and the two are
**bit-identical** — same per-lane invert decisions, same integer
activity tallies — which ``tests/ctrl/test_batch_parity.py`` enforces
across POD/SSTL/LVSTL operating points.

Energy accounting reuses :class:`repro.phy.power.InterfaceEnergyModel`
(including the one-level term for non-POD interfaces), so
controller-level results are directly comparable with the per-burst
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.bitops import WORD_WIDTH
from ..core.costs import CostModel
from ..core.streaming import BatchStreamingEncoder, PerLaneStreamingEncoder
from ..core.vectorized import resolve_backend
from ..phy.bus import BusStatistics
from ..phy.power import InterfaceEnergyModel
from . import CACHE_LINE_BYTES
from .adaptive import AdaptiveCostTracker, OperatingPoint, OperatingPointSchedule


@dataclass(frozen=True)
class WriteTransaction:
    """One write request: *data* stored starting at *address*."""

    address: int
    data: bytes

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if not self.data:
            raise ValueError("transaction data must be non-empty")


def transactions_from_bytes(payload: bytes, line_bytes: int = CACHE_LINE_BYTES,
                            base_address: int = 0) -> List[WriteTransaction]:
    """Chop a flat byte stream into consecutive cache-line transactions.

    The standard adapter from :mod:`repro.workloads.traces` byte payloads
    to the controller's transaction interface: line *i* lands at
    ``base_address + i * line_bytes``, so a controller whose
    ``line_bytes`` matches walks the channels round-robin.

    >>> [t.address for t in transactions_from_bytes(bytes(130), 64)]
    [0, 64, 128]
    """
    if line_bytes < 1:
        raise ValueError(f"line_bytes must be >= 1, got {line_bytes}")
    if not payload:
        raise ValueError("payload must be non-empty")
    return [WriteTransaction(base_address + start, payload[start:start + line_bytes])
            for start in range(0, len(payload), line_bytes)]


def _line_blocks(source, line_bytes: int) -> Iterator[Tuple[int, bytes]]:
    """``(offset, data)`` per source chunk: the chunk's whole lines.

    *offset* is the stream position of *data*'s first byte.  A chunk that
    ends mid-line carries its sub-line remainder into the next block, and
    the remainder of the last chunk comes alone as the final, short line.
    Chunks that complete no line yield nothing.
    """
    if line_bytes < 1:
        raise ValueError(f"line_bytes must be >= 1, got {line_bytes}")
    chunks = source.chunks() if hasattr(source, "chunks") else iter(source)
    remainder = b""
    offset = 0
    empty = True
    for chunk in chunks:
        data = remainder + bytes(chunk)
        if not data:
            continue
        empty = False
        cut = len(data) - len(data) % line_bytes
        if cut:
            yield offset, data[:cut]
            offset += cut
        remainder = data[cut:]
    if remainder:
        yield offset, remainder
    elif empty:
        raise ValueError("trace source yielded no data")


def transactions_from_source(source, line_bytes: int = CACHE_LINE_BYTES,
                             base_address: int = 0
                             ) -> Iterator[List[WriteTransaction]]:
    """Generator twin of :func:`transactions_from_bytes` over a chunked
    source — the bounded-memory trace adapter.

    *source* is a :class:`repro.workloads.source.TraceSource` (or any
    iterable of byte chunks).  Yields one transaction batch per source
    chunk, holding at most one chunk plus a sub-line remainder in memory;
    the remainder of a chunk that ends mid-line is carried into the next
    batch, so the produced (address, data) sequence is **identical** to
    ``transactions_from_bytes(b"".join(chunks), ...)`` for every possible
    chunking — the seam invariant ``tests/ctrl/test_chunk_seams.py``
    enforces.

    >>> batches = transactions_from_source([bytes(100), bytes(30)], 64)
    >>> [[t.address for t in batch] for batch in batches]
    [[0, 64], [128]]
    """
    for offset, data in _line_blocks(source, line_bytes):
        address = base_address + offset
        yield [WriteTransaction(address + start,
                                data[start:start + line_bytes])
               for start in range(0, len(data), line_bytes)]


@dataclass(frozen=True)
class SegmentActivity:
    """Committed activity of one operating-point segment (adaptive runs)."""

    label: str
    zeros: int
    transitions: int
    beats: int


@dataclass
class ControllerStatistics:
    """Aggregate write-path statistics."""

    transactions: int = 0
    bytes_written: int = 0
    zeros: int = 0
    transitions: int = 0
    beats: int = 0
    energy_joules: float = 0.0

    @property
    def energy_per_byte(self) -> float:
        """Mean interface energy per payload byte, joules."""
        return (self.energy_joules / self.bytes_written
                if self.bytes_written else 0.0)


class MemoryController:
    """Multi-channel batched write path with cross-burst DBI lookahead.

    Parameters
    ----------
    channels:
        Number of memory channels; transactions map to a channel by
        address interleaving at cache-line granularity.
    byte_lanes:
        Byte lanes per channel (4 for a x32 graphics device).
    model:
        Cost model for the per-lane streaming encoders (use
        ``energy_model.cost_model()`` to optimise joules).
    window:
        Lookahead window of each streaming encoder, in bytes.
    energy_model:
        Optional operating point for energy accounting — any
        :class:`~repro.phy.interface.Interface` standard.
    line_bytes:
        Address-interleaving granularity of the channel steering
        (default: one cache line).  Use the granularity the transaction
        addresses were laid out with, or whole channels sit idle.
    backend:
        ``"reference"`` / ``"vector"`` / ``"auto"`` / ``None`` (process
        default) — resolved once at construction, like every batch
        entry point, to pick the lane engine: ``auto`` is ``vector``
        whenever NumPy is installed, at any link geometry.
    record:
        Keep every committed (byte, invert-flag) decision per lane, for
        differential and round-trip checks (costs memory; off by
        default).
    schedule:
        Optional :class:`~repro.ctrl.adaptive.OperatingPointSchedule`:
        submitted batches are split at the scheduled transaction/address
        boundaries, the trellis is re-priced with each segment's cost
        model, and per-segment activity is tallied (:meth:`segments`).
        Overrides ``model``.
    tracker:
        Optional :class:`~repro.ctrl.adaptive.AdaptiveCostTracker`: after
        every submit the committed integer deltas are folded into the
        tracker's EWMA rate estimate, and when its selected operating
        point changes the trellis is re-priced from the next window on
        (the paper's OPT-tracking inside the batched write path).
        Overrides ``model``; mutually exclusive with ``schedule``.

    >>> ctrl = MemoryController(channels=1, byte_lanes=2,
    ...                         model=CostModel.fixed(), window=8,
    ...                         backend="reference")
    >>> ctrl.submit([WriteTransaction(0, bytes(range(16)))])
    >>> ctrl.flush().bytes_written
    16
    """

    def __init__(self, channels: int = 1, byte_lanes: int = 4,
                 model: Optional[CostModel] = None, window: int = 16,
                 energy_model: Optional[InterfaceEnergyModel] = None,
                 line_bytes: int = CACHE_LINE_BYTES,
                 backend: Optional[str] = None, record: bool = False,
                 schedule: Optional[OperatingPointSchedule] = None,
                 tracker: Optional[AdaptiveCostTracker] = None):
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        if byte_lanes < 1:
            raise ValueError(f"byte_lanes must be >= 1, got {byte_lanes}")
        if line_bytes < 1:
            raise ValueError(f"line_bytes must be >= 1, got {line_bytes}")
        if schedule is not None and tracker is not None:
            raise ValueError(
                "pass either schedule= (planned switching) or tracker= "
                "(measured switching), not both")
        self.channels = channels
        self.byte_lanes = byte_lanes
        self.line_bytes = line_bytes
        self.model = model if model is not None else CostModel.fixed()
        self.window = window
        self.energy_model = energy_model
        self.schedule = schedule
        self.tracker = tracker
        self._schedule_segment = 0
        self._segment_marks: List[Tuple[str, Tuple[int, int, int]]] = []
        self._observed = (0, 0, 0)
        if schedule is not None:
            initial = schedule.point_at(0)
            self._points_by_label = schedule.points_by_label()
        elif tracker is not None:
            initial = tracker.current
            self._points_by_label = tracker.points_by_label()
        else:
            initial = None
            self._points_by_label: Dict[str, OperatingPoint] = {}
        if initial is not None:
            self.model = initial.cost_model()
            self._active_label: Optional[str] = initial.label
        else:
            self._active_label = None
        self.backend = resolve_backend(backend)
        self.record = record
        self._transactions = 0
        self._bytes_written = 0
        self._channel_transactions = [0] * channels
        engine = (BatchStreamingEncoder if self.backend == "vector"
                  else PerLaneStreamingEncoder)
        self._engine = engine(self.model, rows=channels * byte_lanes,
                              window=window, record=record)

    # -- steering and striping ----------------------------------------------
    def channel_of(self, address: int) -> int:
        """Address-interleaved channel mapping at ``line_bytes`` granularity."""
        return (address // self.line_bytes) % self.channels

    def _row_of(self, channel: int, lane: int) -> int:
        return channel * self.byte_lanes + lane

    def _stripe(self, per_channel: List[List[bytes]]) -> List[bytes]:
        """Per-row lane streams for one submitted batch.

        Lane *l* of a channel carries bytes ``l, l+L, l+2L, ...`` of each
        transaction routed there, in submission order — the same striping
        a per-byte loop produces, done as C-level byte-string slices.
        """
        streams: List[bytes] = []
        for payloads in per_channel:
            for lane in range(self.byte_lanes):
                streams.append(b"".join(data[lane::self.byte_lanes]
                                        for data in payloads))
        return streams

    # -- public API ---------------------------------------------------------
    def submit(self, batch: Sequence[WriteTransaction]) -> None:
        """Queue a transaction batch (encoding happens incrementally).

        The whole batch is steered, striped and pushed through the lane
        encoders in one pass; decisions whose lookahead window fills are
        committed, the rest stay pending until more data or
        :meth:`flush` arrives.

        With a ``schedule``, the batch is split at the scheduled
        transaction/address boundaries and each run is pushed under its
        segment's cost model.  With a ``tracker``, the committed integer
        deltas of this submit are folded into the EWMA estimate
        afterwards, and a changed selection re-prices the trellis for
        the *next* submit — so in a chunked replay the tracker updates
        once per chunk.  Either way the decision stream is a
        deterministic function of the submitted transactions, identical
        on both backends.
        """
        if self.schedule is not None:
            self._submit_scheduled(batch)
            return
        self._submit_run(batch)
        if self.tracker is not None:
            self._observe_and_track()

    def submit_source(self, source, base_address: int = 0) -> None:
        """Stream a whole trace source, one chunk of lines at a time
        (bounded memory at any trace size).

        Line *i* of the source is the transaction at ``base_address + i *
        line_bytes``, exactly as :func:`transactions_from_source` lays it
        out, and the replay equals :meth:`submit` of those batches.  The
        reference backend does just that.  The vector backend never
        builds a transaction: each chunk's lines become the lane matrix
        by address arithmetic (:meth:`_lane_streams`).
        """
        if self.backend == "reference":
            for batch in transactions_from_source(
                    source, self.line_bytes, base_address=base_address):
                self.submit(batch)
            return
        for offset, data in _line_blocks(source, self.line_bytes):
            self._submit_lines(data, base_address + offset)
            if self.tracker is not None:
                self._observe_and_track()

    def _submit_lines(self, data: bytes, address: int) -> None:
        """Push consecutive lines starting at *address* (vector backend),
        split at the schedule's boundaries like :meth:`_submit_scheduled`.

        *data* is whole lines, or one line shorter than ``line_bytes``.
        """
        line = min(len(data), self.line_bytes)
        lines = len(data) // line
        runs = [(0, lines, self._schedule_segment)]
        if self.schedule is not None:
            runs = self.schedule.runs(self._transactions, address, lines,
                                      line)
        for start, stop, segment in runs:
            if segment != self._schedule_segment:
                self._switch_point(self.schedule.point_at(segment))
                self._schedule_segment = segment
            streams, per_channel = self._lane_streams(
                data[start * line:stop * line], address + start * line, line)
            self._engine.push(streams)
            for channel, count in enumerate(per_channel):
                self._channel_transactions[channel] += count
            self._transactions += stop - start
            self._bytes_written += (stop - start) * line

    def _lane_streams(self, data: bytes, address: int, line: int):
        """``(streams, lines per channel)`` of consecutive *line*-byte
        lines starting at *address*.

        Line *i* goes to channel ``(address // line_bytes + i) % channels``
        and its byte *j* to lane ``j % byte_lanes``, so the lines laid out
        as rounds of ``channels`` lines (the first round rotated, the last
        one ragged, every line padded to whole lanes) transpose into the
        ``(channels * byte_lanes, n)`` lane matrix.  When padding would
        land inside a row, the rows are returned as a list of
        compacted arrays instead.
        """
        import numpy as np

        channels, lanes = self.channels, self.byte_lanes
        lines = len(data) // line
        lead = (address // self.line_bytes) % channels
        rounds = -(-(lead + lines) // channels)
        depth = -(-line // lanes)
        grid = np.zeros((rounds * channels, depth * lanes), dtype=np.uint8)
        grid[lead:lead + lines, :line] = np.frombuffer(
            data, dtype=np.uint8).reshape(lines, line)
        # (channel, lane, round, byte of the lane within the line)
        cube = grid.reshape(rounds, channels, depth, lanes).transpose(
            1, 3, 0, 2)
        first = [int(channel < lead) for channel in range(channels)]
        stop = [(lead + lines - 1 - channel) // channels + 1
                for channel in range(channels)]
        per_channel = [b - a for a, b in zip(first, stop)]
        if lead == 0 and lines % channels == 0 and line % lanes == 0:
            return cube.reshape(channels * lanes, rounds * depth), per_channel
        sizes = [len(range(lane, line, lanes)) for lane in range(lanes)]
        return [cube[channel, lane, first[channel]:stop[channel],
                     :sizes[lane]].reshape(-1)
                for channel in range(channels)
                for lane in range(lanes)], per_channel

    def _submit_scheduled(self, batch: Sequence[WriteTransaction]) -> None:
        """Split a batch at schedule boundaries, re-pricing at each."""
        run: List[WriteTransaction] = []
        for transaction in batch:
            segment = self.schedule.segment_for(
                self._transactions + len(run), transaction.address)
            if segment != self._schedule_segment:
                if run:
                    self._submit_run(run)
                    run = []
                self._switch_point(self.schedule.point_at(segment))
                self._schedule_segment = segment
            run.append(transaction)
        if run:
            self._submit_run(run)

    def _submit_run(self, batch: Sequence[WriteTransaction]) -> None:
        per_channel: List[List[bytes]] = [[] for _ in range(self.channels)]
        for transaction in batch:
            channel = self.channel_of(transaction.address)
            per_channel[channel].append(transaction.data)
            self._channel_transactions[channel] += 1
            self._transactions += 1
            self._bytes_written += len(transaction.data)
        self._engine.push(self._stripe(per_channel))

    def write(self, transaction: WriteTransaction) -> None:
        """Queue one transaction (single-item :meth:`submit`)."""
        self.submit([transaction])

    def flush(self) -> ControllerStatistics:
        """Drain every lane's pending window and return total statistics."""
        self._engine.flush()
        return self.statistics()

    # -- adaptive operating points -------------------------------------------
    def _switch_point(self, point: OperatingPoint) -> None:
        """Close the current segment and re-price the lane encoders.

        Pending window bytes are *not* re-attributed: they commit under
        the new model and count toward the new segment — switching takes
        effect at the commit boundary, which both backends hit
        identically.
        """
        self._segment_marks.append((self._active_label,
                                    self._committed_totals()))
        self._active_label = point.label
        self.model = point.cost_model()
        self._engine.set_model(self.model)

    def _observe_and_track(self) -> None:
        zeros, n_transitions, beats = self._committed_totals()
        seen_zeros, seen_transitions, seen_beats = self._observed
        if beats > seen_beats:
            self.tracker.observe(zeros - seen_zeros,
                                 n_transitions - seen_transitions,
                                 beats - seen_beats)
            self._observed = (zeros, n_transitions, beats)
            selected = self.tracker.select()
            if selected.label != self._active_label:
                self._switch_point(selected)

    def _committed_totals(self) -> Tuple[int, int, int]:
        """Committed (zeros, transitions, beats) summed over all lanes."""
        engine = self._engine
        return (int(sum(engine.zeros)), int(sum(engine.transitions)),
                int(sum(engine.beats)))

    def segments(self) -> List[SegmentActivity]:
        """Per-operating-point committed activity (adaptive runs only).

        One row per dwell interval in switch order (a revisited point
        gets a new row); the rows' tallies sum exactly to
        :meth:`statistics`.  Empty without ``schedule``/``tracker``.
        Call after :meth:`flush` for final totals.
        """
        if self._active_label is None:
            return []
        rows: List[SegmentActivity] = []
        previous = (0, 0, 0)
        marks = self._segment_marks + [(self._active_label,
                                        self._committed_totals())]
        for label, totals in marks:
            delta = SegmentActivity(
                label=label, zeros=totals[0] - previous[0],
                transitions=totals[1] - previous[1],
                beats=totals[2] - previous[2])
            previous = totals
            if delta.beats or not rows:
                rows.append(delta)
        return rows

    def adaptive_energy_joules(self) -> float:
        """Total energy with every segment priced at its own operating
        point — the adaptive twin of ``statistics().energy_joules``."""
        energy = 0.0
        for segment in self.segments():
            point = self._points_by_label[segment.label]
            energy += point.energy_model().burst_energy(
                segment.transitions, segment.zeros,
                lane_beats=WORD_WIDTH * segment.beats)
        return energy

    # -- accounting ----------------------------------------------------------
    def lane_activity(self, channel: int, lane: int) -> Tuple[int, int, int]:
        """Committed ``(zeros, transitions, beats)`` of one byte lane."""
        self._check_lane(channel, lane)
        row = self._row_of(channel, lane)
        return (int(self._engine.zeros[row]),
                int(self._engine.transitions[row]),
                int(self._engine.beats[row]))

    def lane_statistics(self, channel: int, lane: int) -> BusStatistics:
        """One lane's tallies as a :class:`~repro.phy.bus.BusStatistics` view.

        ``bursts`` is 0 — the streaming write path has no burst framing;
        ``beats`` counts committed byte-beats.
        """
        zeros, n_transitions, beats = self.lane_activity(channel, lane)
        energy = 0.0
        if self.energy_model is not None:
            energy = self.energy_model.burst_energy(
                n_transitions, zeros, lane_beats=WORD_WIDTH * beats)
        return BusStatistics(bursts=0, beats=beats, zeros=zeros,
                             transitions=n_transitions, energy_joules=energy)

    def channel_statistics(self, channel: int) -> BusStatistics:
        """One channel's totals — exactly the merge of its lane views,
        plus the channel's transaction count in ``bursts``."""
        merged = BusStatistics()
        for lane in range(self.byte_lanes):
            merged = merged.merge(self.lane_statistics(channel, lane))
        merged.bursts = self._channel_transactions[channel]
        return merged

    def statistics(self) -> ControllerStatistics:
        """Current totals (pending, un-committed bytes are not counted)."""
        zeros, n_transitions, beats = self._committed_totals()
        energy = 0.0
        if self.energy_model is not None:
            energy = self.energy_model.burst_energy(
                n_transitions, zeros, lane_beats=WORD_WIDTH * beats)
        return ControllerStatistics(
            transactions=self._transactions,
            bytes_written=self._bytes_written,
            zeros=zeros,
            transitions=n_transitions,
            beats=beats,
            energy_joules=energy,
        )

    def pending_bytes(self) -> int:
        """Bytes buffered in encoder windows, not yet committed."""
        return sum(self._engine.pending_counts())

    def lane_decisions(self, channel: int, lane: int) -> List[Tuple[int, bool]]:
        """Committed (byte, invert-flag) pairs of one lane (``record=True``)."""
        self._check_lane(channel, lane)
        return self._engine.decisions(self._row_of(channel, lane))

    def _check_lane(self, channel: int, lane: int) -> None:
        if not 0 <= channel < self.channels:
            raise IndexError(f"channel {channel} out of range [0, {self.channels})")
        if not 0 <= lane < self.byte_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.byte_lanes})")


def compare_controllers(payloads: Sequence[bytes], model: CostModel,
                        windows: Sequence[int] = (1, 8, 32),
                        byte_lanes: int = 4) -> List[Tuple[int, float]]:
    """(window, mean cost per byte) rows for a write stream.

    Used by tests/examples to show the lookahead benefit at the
    controller level.
    """
    rows: List[Tuple[int, float]] = []
    for window in windows:
        controller = MemoryController(channels=1, byte_lanes=byte_lanes,
                                      model=model, window=window,
                                      backend="reference")
        for index, payload in enumerate(payloads):
            controller.write(WriteTransaction(index * CACHE_LINE_BYTES,
                                              payload))
        stats = controller.flush()
        cost = model.activity_cost(stats.transitions, stats.zeros)
        rows.append((window, cost / stats.bytes_written))
    return rows
