"""Streaming optimal DBI encoding across burst boundaries.

The paper encodes each burst independently against an idle-high boundary.
When bursts are transmitted back-to-back (a streaming write), the last
word of one burst is the electrical boundary of the next, and per-burst
optimisation is no longer globally optimal: the cheapest encoding of
burst *k* can leave the bus in a state that makes burst *k+1* expensive.

This module extends the paper's formulation to streams:

* :func:`solve_stream` — jointly optimal invert flags for a whole byte
  stream (one long trellis; still O(total bytes)).
* :class:`StreamingOptimalEncoder` — an online encoder with a configurable
  **lookahead window**: bytes are buffered, the trellis is solved over the
  window, and a prefix of decisions is committed.  ``window=1`` reproduces
  the greedy weighted heuristic; ``window → stream length`` converges to
  the joint optimum — which the tests and the window-size ablation
  quantify.
* :class:`BatchStreamingEncoder` — the batch sibling for controllers
  that drive many byte lanes: every full window of every lane in a push
  is solved at once through the vector backend's Viterbi kernel
  (:mod:`repro.core.vectorized`), from both states its boundary byte can
  be in, and a scan over the windows then picks the committed decisions.
  Per-lane decisions and activity tallies are bit-identical to running
  one :class:`StreamingOptimalEncoder` per lane, which the differential
  suites (``tests/core/test_streaming_batch.py`` and the exhaustive
  ``tests/core/test_streaming_oracle.py``) enforce.
* :class:`PerLaneStreamingEncoder` — its twin: one
  :class:`StreamingOptimalEncoder` per lane behind the same calls, the
  reference a controller runs without the vector backend.

This is the natural "integrate into future memories" extension the
paper's conclusion sketches: a controller that optimises over the write
queue instead of a single burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from .bitops import (
    ALL_ONES_WORD,
    BYTE_MASK,
    DBI_BIT,
    check_byte,
    check_word,
    make_word,
    total_transitions,
    total_zeros,
)
from .burst import Burst
from .costs import CostModel
from .trellis import solve


def solve_stream(data: Sequence[int], model: CostModel,
                 prev_word: int = ALL_ONES_WORD) -> Tuple[Tuple[bool, ...], float]:
    """Jointly optimal invert flags for an arbitrary byte stream.

    Equivalent to :func:`repro.core.trellis.solve` on one long burst; the
    split into JEDEC bursts does not change the trellis because the cost
    structure is purely byte-to-byte.

    >>> flags, cost = solve_stream([0x00, 0x00], CostModel.dc_only())
    >>> flags
    (True, True)
    """
    burst = Burst(data)
    solution = solve(burst, model, prev_word=prev_word)
    return solution.invert_flags, solution.total_cost


def stream_cost(data: Sequence[int], flags: Sequence[bool], model: CostModel,
                prev_word: int = ALL_ONES_WORD) -> float:
    """Cost of a concrete flag assignment over a byte stream."""
    if len(data) != len(flags):
        raise ValueError(f"{len(flags)} flags for {len(data)} bytes")
    check_word(prev_word)
    cost = 0.0
    last = prev_word
    for byte, inverted in zip(data, flags):
        word = make_word(check_byte(byte), bool(inverted))
        cost += model.word_cost(last, word)
        last = word
    return cost


@dataclass
class StreamingOptimalEncoder:
    """Online DBI encoder with bounded lookahead.

    Bytes are pushed with :meth:`push`; committed (byte, invert-flag)
    pairs stream out.  Internally the encoder keeps up to ``window`` bytes
    pending, solves the trellis over the pending window, and commits the
    first ``commit`` decisions (default: half the window), keeping the
    rest pending so later bytes can still influence them.

    ``flush()`` commits everything pending; call it at end-of-stream.

    >>> encoder = StreamingOptimalEncoder(CostModel.fixed(), window=4)
    >>> out = encoder.push([0x00] * 4) + encoder.flush()
    >>> [flag for _byte, flag in out]
    [True, True, True, True]
    """

    model: CostModel
    window: int = 8
    commit: int = 0
    prev_word: int = ALL_ONES_WORD
    _pending: List[int] = field(default_factory=list)
    _emitted: int = 0
    _cost: float = 0.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.commit <= 0:
            self.commit = max(1, self.window // 2)
        if self.commit > self.window:
            raise ValueError("commit cannot exceed window")
        check_word(self.prev_word)

    # -- public API ---------------------------------------------------------
    def push(self, data: Iterable[int]) -> List[Tuple[int, bool]]:
        """Feed bytes; returns decisions committed by this call."""
        committed: List[Tuple[int, bool]] = []
        for byte in data:
            self._pending.append(check_byte(byte))
            if len(self._pending) >= self.window:
                committed.extend(self._commit_prefix(self.commit))
        return committed

    def flush(self) -> List[Tuple[int, bool]]:
        """Commit all pending bytes (end of stream)."""
        if not self._pending:
            return []
        return self._commit_prefix(len(self._pending))

    @property
    def committed_bytes(self) -> int:
        """Number of bytes fully decided so far."""
        return self._emitted

    @property
    def committed_cost(self) -> float:
        """Accumulated cost of all committed decisions."""
        return self._cost

    @property
    def bus_state(self) -> int:
        """Current wire word after the last committed byte."""
        return self.prev_word

    def set_model(self, model: CostModel) -> None:
        """Re-price every future trellis solve (adaptive tracking / DVFS).

        Takes effect at the next :meth:`push`/:meth:`flush` solve;
        already-committed decisions and tallies are untouched.  Pending
        bytes are re-solved under the new model when their window
        commits — the window-boundary re-pricing semantics the adaptive
        controller relies on.
        """
        self.model = model

    # -- internals ------------------------------------------------------------
    def _commit_prefix(self, count: int) -> List[Tuple[int, bool]]:
        burst = Burst(self._pending)
        solution = solve(burst, self.model, prev_word=self.prev_word)
        decisions: List[Tuple[int, bool]] = []
        for byte, flag in zip(self._pending[:count],
                              solution.invert_flags[:count]):
            word = make_word(byte, flag)
            self._cost += self.model.word_cost(self.prev_word, word)
            self.prev_word = word
            decisions.append((byte, flag))
        self._pending = self._pending[count:]
        self._emitted += len(decisions)
        return decisions


class BatchStreamingEncoder:
    """Windowed-trellis streaming encoder over many lanes at once.

    Each of the ``rows`` lanes is an independent byte stream encoded with
    exactly the semantics of :class:`StreamingOptimalEncoder` (same
    ``window``/``commit`` cadence, same boundary-word chaining): whenever
    a lane has ``window`` bytes pending, the trellis is solved over that
    window and the first ``commit`` decisions are committed.  The batch
    twist is that a push does not walk those windows one after another.
    Window *k* of a lane starts from the wire word of the byte just
    before it, and that word is either the byte's raw or its inverted
    word.  So every full window of every lane is solved at once, from
    both states (window 0 from the lane's known bus word), in one
    :func:`~repro.core.vectorized._viterbi_planes` call on per-push
    integer edge planes: each tile of windows prices its edges once,
    window-major, so overlapping windows share those weights and a step
    of every window reads one slice of them.  A pointer-doubling scan over
    the per-window boundary maps, :func:`~repro.core.vectorized._chain_scan`
    (the one chained :meth:`~repro.core.schemes.DbiScheme.wire_words`
    runs too), then picks each lane's committed decisions, and the
    activity is tallied once per push.  A push works in the encoder's
    :class:`~repro.core.vectorized._Workspace`: its matrix, planes,
    weights, flags and temporaries reuse buffers that grow, with room to
    spare, only when a push needs more, so an encoder is not for
    concurrent use.

    Decisions and the integer activity tallies (zeros, transitions,
    beats per lane) are **bit-identical** to the per-lane reference;
    that is a guarantee (enforced by the differential suites), not an
    approximation, because every window's solve makes the reference
    trellis's comparisons on the reference's edge weights (in integers
    where the model's coefficients allow it exactly: uint8 when no path
    sum of a window can pass 255, as under ``CostModel.fixed()`` at a
    16-byte window, else int16; see
    :func:`~repro.core.vectorized._coefficients`).

    Requires NumPy (the vector backend); its twin
    :class:`PerLaneStreamingEncoder` is the per-lane reference and the
    fallback for NumPy-free environments.

    Parameters
    ----------
    model:
        Cost model shared by every lane.
    rows:
        Number of independent lane streams.
    window, commit:
        Lookahead window and commit prefix, as in
        :class:`StreamingOptimalEncoder` (commit defaults to half the
        window).
    prev_word:
        Initial bus word of every lane (idle-high by default).
    record:
        Keep the committed ``(byte, flag)`` decisions per lane —
        needed for round-trip/differential checks, off by default for
        throughput.
    """

    def __init__(self, model: CostModel, rows: int, window: int = 8,
                 commit: int = 0, prev_word: int = ALL_ONES_WORD,
                 record: bool = False):
        from .vectorized import _require_vector, _Workspace

        np = _require_vector()
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if commit <= 0:
            commit = max(1, window // 2)
        if commit > window:
            raise ValueError("commit cannot exceed window")
        check_word(prev_word)
        self.model = model
        self.rows = rows
        self.window = window
        self.commit = commit
        self.record = record
        self._np = np
        self._work = _Workspace()
        self._prev = np.full(rows, prev_word, dtype=np.int64)
        # Pending bytes: row r holds ``_buffer[r, :_lengths[r]]``.
        self._buffer = np.zeros((rows, 0), dtype=np.uint8)
        self._lengths = np.zeros(rows, dtype=np.int64)
        self._zeros = np.zeros(rows, dtype=np.int64)
        self._transitions = np.zeros(rows, dtype=np.int64)
        self._beats = np.zeros(rows, dtype=np.int64)
        self._decisions: List[List] = [[] for _ in range(rows)]

    # -- public API ---------------------------------------------------------
    def push(self, streams: Sequence) -> None:
        """Append one byte stream per lane and commit every full window.

        *streams* is either a ``(rows, n)`` integer array, row *r* being
        lane *r*'s next *n* bytes, or a sequence with one entry per lane
        (``bytes``, array, or any byte sequence; empty entries are fine).
        A matrix pushed while every lane holds the same number of
        pending bytes is appended to the pending window matrix as a
        whole, with no per-lane work.
        """
        np = self._np
        if len(streams) != self.rows:
            raise ValueError(
                f"{len(streams)} streams for {self.rows} lanes")
        if isinstance(streams, np.ndarray) and streams.ndim == 2:
            streams = self._as_bytes(streams, "streams")
            if (self._lengths == self._lengths[0]).all():
                shape = (self.rows, self._buffer.shape[1] + streams.shape[1])
                self._commit_windows(
                    np.concatenate((self._buffer, streams), axis=1,
                                   out=self._work("matrix", shape, np.uint8)),
                    self._lengths + streams.shape[1])
                return
        # Validate every stream before mutating any pending buffer, so a
        # rejected push leaves the encoder state untouched.
        converted = []
        for row, stream in enumerate(streams):
            new = self._as_bytes(stream, f"lane {row}")
            if new.ndim != 1:
                raise ValueError(
                    f"lane {row}: stream must be one-dimensional")
            converted.append(new)
        lengths = self._lengths + [len(new) for new in converted]
        mat = np.zeros((self.rows, int(lengths.max())), dtype=np.uint8)
        mat[:, :self._buffer.shape[1]] = self._buffer
        for row, new in enumerate(converted):
            mat[row, self._lengths[row]:lengths[row]] = new
        self._commit_windows(mat, lengths)

    def flush(self) -> None:
        """Commit every pending byte on every lane (end of stream).

        Each lane's tail (fewer than ``window`` bytes) is one trellis
        window solved from the lane's bus word; lanes with equal tails
        share one solve.
        """
        from .vectorized import _edge_planes, _viterbi_planes

        np = self._np
        for length in sorted(set(self._lengths.tolist()) - {0}):
            idx = np.flatnonzero(self._lengths == length)
            mat = self._buffer[idx, :length]
            planes = _edge_planes(mat, self._prev[idx], work=self._work)
            flags = _viterbi_planes(planes, self.model.alpha, self.model.beta,
                                    length, work=self._work)[0]
            self._commit(idx, mat, planes, flags[:, 0, :, 0].T,
                         np.full(len(idx), length))
        self._buffer = np.zeros((self.rows, 0), dtype=np.uint8)
        self._lengths = np.zeros(self.rows, dtype=np.int64)

    @property
    def prev_words(self):
        """Current per-lane bus words, ``(rows,)`` int64 (read-only copy)."""
        return self._prev.copy()

    @property
    def zeros(self):
        """Committed zero-beat tallies per lane, ``(rows,)`` int64."""
        return self._zeros.copy()

    @property
    def transitions(self):
        """Committed transition tallies per lane, ``(rows,)`` int64."""
        return self._transitions.copy()

    @property
    def beats(self):
        """Committed byte-beats per lane, ``(rows,)`` int64."""
        return self._beats.copy()

    def pending_counts(self) -> List[int]:
        """Bytes buffered per lane, not yet committed."""
        return self._lengths.tolist()

    def set_model(self, model: CostModel) -> None:
        """Re-price every future windowed solve on every lane.

        Same semantics as :meth:`StreamingOptimalEncoder.set_model`: the
        change applies from the next :meth:`push`/:meth:`flush` (each
        reads the coefficients when it solves its windows), committed
        tallies are untouched, and pending bytes commit under the new
        model — keeping the two backends bit-identical when the
        controller switches models at submit boundaries.
        """
        self.model = model

    def decisions(self, row: int) -> List[Tuple[int, bool]]:
        """Committed (byte, invert-flag) pairs of one lane (``record=True``)."""
        if not self.record:
            raise RuntimeError(
                "decisions are only kept when record=True")
        out: List[Tuple[int, bool]] = []
        for chunk_bytes_, chunk_flags in self._decisions[row]:
            out.extend(zip((int(b) for b in chunk_bytes_),
                           (bool(f) for f in chunk_flags)))
        return out

    # -- internals ------------------------------------------------------------
    def _as_bytes(self, stream, what: str):
        """*stream* as a ``uint8`` array, rejecting values the reference
        encoder's ``check_byte`` rejects instead of wrapping mod 256."""
        np = self._np
        if isinstance(stream, (bytes, bytearray)):
            return np.frombuffer(bytes(stream), dtype=np.uint8)
        array = np.asarray(stream)
        if array.dtype != np.uint8:
            if not np.issubdtype(array.dtype, np.integer):
                raise TypeError(f"{what}: stream must hold integers, got "
                                f"dtype {array.dtype}")
            if array.size and (array.min() < 0 or array.max() > BYTE_MASK):
                raise ValueError(
                    f"{what}: byte values out of range [0, {BYTE_MASK}]")
            array = array.astype(np.uint8)
        return array

    def _commit_windows(self, mat, lengths) -> None:
        """Commit every full window of every lane, all windows at once,
        and keep the rest pending.

        Row *r* of *mat* holds lane *r*'s pending bytes
        ``mat[r, :lengths[r]]``.  Window *k* of a lane covers pending
        bytes ``[k*commit, k*commit + window)`` and starts from the wire
        word of byte ``k*commit - 1``, which is that byte's raw or
        inverted word.  So every window is solved up front from both of
        those states (window 0 from the lane's bus word) in one
        :func:`~repro.core.vectorized._viterbi_planes` call, and
        :func:`~repro.core.vectorized._chain_scan` then follows each
        lane's actual states.  Lanes without a full window are left alone.
        """
        from .vectorized import _chain_scan, _edge_planes, _viterbi_planes

        np = self._np
        window, commit = self.window, self.commit
        counts = np.where(lengths >= window,
                          ((lengths - window) // commit + 1) * commit, 0)
        idx = np.flatnonzero(counts)
        if len(idx):
            full = mat if len(idx) == self.rows else mat[idx]
            windows = int(counts.max()) // commit
            planes = _edge_planes(full, self._prev[idx], work=self._work)
            flags = _viterbi_planes(planes, self.model.alpha, self.model.beta,
                                    window, commit, windows, states=2,
                                    work=self._work)[0]
            self._commit(idx, full, planes, _chain_scan(flags, self._work),
                         counts[idx])
        # Keep each lane's (< window) leftover in a fresh matrix: the next
        # push overwrites the workspace's push matrix.  Columns
        # past a lane's length are padding that no commit reads.
        self._lengths = lengths - counts
        span = np.arange(int(self._lengths.max()))
        columns = np.minimum(counts[:, None] + span, max(mat.shape[1] - 1, 0))
        self._buffer = np.take_along_axis(mat, columns, axis=1)

    def _commit(self, idx, mat, planes, flags, counts) -> None:
        """Tally, record and advance lanes *idx* over their first
        ``counts`` bytes, sent with invert *flags* (``(len(idx), n)``)."""
        from .vectorized import _sent_activity

        np = self._np
        transitions, zeros = _sent_activity(planes, flags, counts=counts,
                                            work=self._work)
        self._zeros[idx] += zeros
        self._transitions[idx] += transitions
        self._beats[idx] += counts
        slots = np.arange(len(idx))
        last = mat[slots, counts - 1].astype(np.int64)
        self._prev[idx] = np.where(flags[slots, counts - 1],
                                   last ^ BYTE_MASK, last | DBI_BIT)
        if self.record:
            for slot, row in enumerate(idx):
                count = counts[slot]
                self._decisions[int(row)].append(
                    (mat[slot, :count].copy(), flags[slot, :count].copy()))


class PerLaneStreamingEncoder:
    """The NumPy-free twin of :class:`BatchStreamingEncoder`: one
    :class:`StreamingOptimalEncoder` per lane, each committed word
    tallied as it commits — the batched engine's executable
    specification.  It takes the batch engine's ``(model, rows, window,
    record)`` and answers a controller's calls as the batch engine does,
    its per-lane tallies as lists of ints.
    """

    def __init__(self, model: CostModel, rows: int, window: int = 8,
                 record: bool = False):
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.record = record
        self._lanes = [StreamingOptimalEncoder(model, window=window)
                       for _ in range(rows)]
        self._zeros = [0] * rows
        self._transitions = [0] * rows
        self._beats = [0] * rows
        self._decisions: List[List[Tuple[int, bool]]] = [
            [] for _ in range(rows)]

    def push(self, streams: Sequence) -> None:
        """Append one byte stream per lane and commit every full window."""
        if len(streams) != len(self._lanes):
            raise ValueError(
                f"{len(streams)} streams for {len(self._lanes)} lanes")
        for row, (lane, stream) in enumerate(zip(self._lanes, streams)):
            # The bus word is read before the push commits past it.
            self._tally(row, lane.bus_state, lane.push(stream))

    def flush(self) -> None:
        """Commit every pending byte on every lane (end of stream)."""
        for row, lane in enumerate(self._lanes):
            self._tally(row, lane.bus_state, lane.flush())

    @property
    def zeros(self) -> List[int]:
        """Committed zero-beat tallies per lane."""
        return list(self._zeros)

    @property
    def transitions(self) -> List[int]:
        """Committed transition tallies per lane."""
        return list(self._transitions)

    @property
    def beats(self) -> List[int]:
        """Committed byte-beats per lane."""
        return list(self._beats)

    def pending_counts(self) -> List[int]:
        """Bytes buffered per lane, not yet committed."""
        return [len(lane._pending) for lane in self._lanes]

    def set_model(self, model: CostModel) -> None:
        """Re-price every lane's future solves
        (:meth:`StreamingOptimalEncoder.set_model`)."""
        for lane in self._lanes:
            lane.set_model(model)

    def decisions(self, row: int) -> List[Tuple[int, bool]]:
        """Committed (byte, invert-flag) pairs of one lane
        (``record=True``)."""
        if not self.record:
            raise RuntimeError("decisions are only kept when record=True")
        return list(self._decisions[row])

    def _tally(self, row: int, last: int,
               decisions: List[Tuple[int, bool]]) -> None:
        """Count lane *row*'s *decisions*, sent after wire word *last*."""
        words = [make_word(byte, inverted) for byte, inverted in decisions]
        self._zeros[row] += total_zeros(words)
        self._transitions[row] += total_transitions(words, last)
        self._beats[row] += len(words)
        if self.record:
            self._decisions[row].extend(
                (byte, bool(flag)) for byte, flag in decisions)


def windowed_stream_cost(data: Sequence[int], model: CostModel,
                         window: int, commit: int = 0,
                         prev_word: int = ALL_ONES_WORD) -> float:
    """Total cost of encoding *data* with a given lookahead window.

    Convenience wrapper used by the window-size ablation: runs a
    :class:`StreamingOptimalEncoder` over the stream and returns the
    committed cost.
    """
    encoder = StreamingOptimalEncoder(model=model, window=window,
                                      commit=commit, prev_word=prev_word)
    encoder.push(data)
    encoder.flush()
    return encoder.committed_cost
