"""Differential suite: BatchStreamingEncoder vs per-lane reference.

The batch encoder's contract is bit-identity with one
:class:`~repro.core.streaming.StreamingOptimalEncoder` per lane — same
committed decisions, same integer activity tallies, same boundary-word
chain — for any window/commit cadence, any push chunking and any cost
model.  These tests enforce it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.bitops import (
    ALL_ONES_WORD,
    make_word,
    total_transitions,
    total_zeros,
    transitions,
    zeros_in_word,
)
from repro.core.costs import CostModel
from repro.core.streaming import (
    BatchStreamingEncoder,
    PerLaneStreamingEncoder,
    StreamingOptimalEncoder,
)


def reference_lane(stream, model, window, prev_word=ALL_ONES_WORD):
    """Run the per-lane reference; return (decisions, zeros, trans, prev)."""
    encoder = StreamingOptimalEncoder(model=model, window=window,
                                      prev_word=prev_word)
    decisions = encoder.push(list(stream)) + encoder.flush()
    zeros = trans = 0
    last = prev_word
    for byte, flag in decisions:
        word = make_word(byte, flag)
        zeros += zeros_in_word(word)
        trans += transitions(last, word)
        last = word
    return decisions, zeros, trans, last


def assert_parity(streams, model, window, chunks=1):
    """Batch-encode *streams* (optionally split into pushes) and compare."""
    batch = BatchStreamingEncoder(model, rows=len(streams), window=window,
                                  record=True)
    if chunks == 1:
        batch.push(streams)
    else:
        step = max(1, max(len(s) for s in streams) // chunks)
        offset = 0
        while any(offset < len(s) for s in streams):
            batch.push([bytes(s[offset:offset + step]) for s in streams])
            offset += step
    batch.flush()
    assert batch.pending_counts() == [0] * len(streams)
    for row, stream in enumerate(streams):
        decisions, zeros, trans, last = reference_lane(stream, model, window)
        assert batch.decisions(row) == decisions, f"lane {row}"
        assert int(batch.zeros[row]) == zeros
        assert int(batch.transitions[row]) == trans
        assert int(batch.beats[row]) == len(stream)
        assert int(batch.prev_words[row]) == last


byte_streams = st.lists(
    st.binary(min_size=0, max_size=60), min_size=1, max_size=6)
models = st.sampled_from([
    CostModel.fixed(),
    CostModel.dc_only(),
    CostModel.ac_only(),
    CostModel.from_ac_fraction(0.3),
    CostModel.from_ac_fraction(0.77),
    CostModel(7.0, 3.0),
    CostModel(0.25, 0.75),
])


class TestBatchParity:
    @given(streams=byte_streams, model=models,
           window=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_ragged_streams_any_window(self, streams, model, window):
        assert_parity(streams, model, window)

    @given(streams=byte_streams, model=models,
           chunks=st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_push_chunking_is_invisible(self, streams, model, chunks):
        assert_parity(streams, model, window=8, chunks=chunks)

    @given(heads=byte_streams, model=models,
           window=st.integers(min_value=1, max_value=12),
           widths=st.lists(st.integers(min_value=0, max_value=40),
                           min_size=1, max_size=4),
           wide_ints=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matrix_pushes(self, heads, model, window, widths, wide_ints):
        """``(rows, n)`` matrices pushed after a ragged or an equal
        list push, as uint8 or as wider integers, encode like the
        per-lane reference of the concatenated streams."""
        import numpy as np
        rng = np.random.default_rng(len(heads) * 1000 + sum(widths))
        matrices = [rng.integers(0, 256, size=(len(heads), width),
                                 dtype=np.uint8) for width in widths]
        batch = BatchStreamingEncoder(model, rows=len(heads), window=window,
                                      record=True)
        batch.push(heads)
        for matrix in matrices:
            batch.push(matrix.astype(np.int64) if wide_ints else matrix)
        batch.flush()
        for row, head in enumerate(heads):
            stream = head + b"".join(bytes(m[row]) for m in matrices)
            decisions, zeros, trans, last = reference_lane(stream, model,
                                                           window)
            assert batch.decisions(row) == decisions, f"lane {row}"
            assert (int(batch.zeros[row]), int(batch.transitions[row]),
                    int(batch.prev_words[row])) == (zeros, trans, last)

    def test_rejects_out_of_range_matrix(self):
        import numpy as np
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=2, window=4)
        with pytest.raises(ValueError):
            batch.push(np.full((2, 3), 256))
        with pytest.raises(TypeError):
            batch.push(np.zeros((2, 3)))
        assert batch.pending_counts() == [0, 0]

    def test_many_equal_lanes(self):
        import numpy as np
        rng = np.random.default_rng(0x0DB1)
        streams = [bytes(rng.integers(0, 256, size=256, dtype=np.uint8))
                   for _ in range(16)]
        assert_parity(streams, CostModel.fixed(), window=16)

    def test_empty_lane_is_fine(self):
        assert_parity([b"", b"\x00" * 20], CostModel.fixed(), window=4)

    def test_zero_heavy_streams_invert(self):
        batch = BatchStreamingEncoder(CostModel.dc_only(), rows=2, window=4,
                                      record=True)
        batch.push([bytes(8), bytes(8)])
        batch.flush()
        for row in range(2):
            assert all(flag for _byte, flag in batch.decisions(row))


#: Coefficients that are no small multiples of one power of two, so every
#: solve runs on the float64 edge table.
inexact_models = st.sampled_from([
    CostModel.from_ac_fraction(0.3),
    CostModel.from_ac_fraction(0.77),
    CostModel(0.1, 0.7),
    CostModel(1 / 3, 2 / 3),
])


class TestTallyOracle:
    """The committed tallies equal the activity of the wire words each
    lane sent, rebuilt from its recorded decisions: no reference
    encoder is involved."""

    @given(data=st.data(), model=inexact_models,
           window=st.integers(min_value=1, max_value=12),
           prev_word=st.integers(min_value=0, max_value=511))
    @settings(max_examples=60, deadline=None)
    def test_tallies_match_rebuilt_wire_words(self, data, model, window,
                                               prev_word):
        """Ragged per-lane pushes commit different byte counts per lane
        (the masked tally); matrix pushes commit equal ones.  The check
        runs after every push and after the flush."""
        import numpy as np
        rows = data.draw(st.integers(min_value=1, max_value=5))
        batch = BatchStreamingEncoder(model, rows=rows, window=window,
                                      prev_word=prev_word, record=True)
        streams = [b""] * rows
        pushes = data.draw(st.integers(min_value=1, max_value=4))
        for step in range(pushes + 1):
            if step == pushes:
                batch.flush()
            elif data.draw(st.booleans()):
                width = data.draw(st.integers(min_value=0, max_value=30))
                flat = data.draw(st.binary(min_size=rows * width,
                                           max_size=rows * width))
                matrix = np.frombuffer(flat, dtype=np.uint8).reshape(
                    rows, width)
                batch.push(matrix)
                streams = [old + bytes(new)
                           for old, new in zip(streams, matrix)]
            else:
                lanes = data.draw(st.lists(st.binary(max_size=40),
                                           min_size=rows, max_size=rows))
                batch.push(lanes)
                streams = [old + new for old, new in zip(streams, lanes)]
            for row in range(rows):
                decisions = batch.decisions(row)
                words = [make_word(byte, flag) for byte, flag in decisions]
                assert bytes(byte for byte, _flag in decisions) == (
                    streams[row][:len(decisions)])
                assert int(batch.zeros[row]) == total_zeros(words)
                assert int(batch.transitions[row]) == total_transitions(
                    words, prev_word)
                assert int(batch.beats[row]) == len(words)
        assert [len(batch.decisions(row)) for row in range(rows)] == [
            len(stream) for stream in streams]


#: The models a controller switches between: fixed, inexact, and exact
#: thirds.
switch_models = st.sampled_from([
    CostModel.fixed(), CostModel(0.1, 0.7), CostModel(1 / 3, 2 / 3)])


class TestPerLaneTwin:
    """:class:`PerLaneStreamingEncoder` answers every call a controller
    makes exactly as :class:`BatchStreamingEncoder` does."""

    @given(data=st.data(), model=switch_models,
           rows=st.integers(min_value=1, max_value=5),
           window=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_twin_answers_like_the_batch_engine(self, data, model, rows,
                                                window):
        """Per-lane pushes (empty lanes included) and model switches
        between them, then a flush; the tallies and pending counts are
        compared after every call, the decisions at the end."""
        engines = [engine(model, rows=rows, window=window, record=True)
                   for engine in (BatchStreamingEncoder,
                                  PerLaneStreamingEncoder)]
        calls = data.draw(st.lists(st.one_of(
            st.lists(st.binary(max_size=40), min_size=rows, max_size=rows),
            switch_models), max_size=8))
        for call in calls + [None]:
            for engine in engines:
                if call is None:
                    engine.flush()
                elif isinstance(call, CostModel):
                    engine.set_model(call)
                else:
                    engine.push(call)
            batch, twin = engines
            assert batch.zeros.tolist() == twin.zeros
            assert batch.transitions.tolist() == twin.transitions
            assert batch.beats.tolist() == twin.beats
            assert batch.pending_counts() == twin.pending_counts()
        for row in range(rows):
            assert batch.decisions(row) == twin.decisions(row), f"lane {row}"


class TestValidation:
    def test_rejects_bad_shapes(self):
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=2)
        with pytest.raises(ValueError):
            batch.push([b"aa"])  # one stream for two lanes
        import numpy as np
        with pytest.raises(ValueError):
            batch.push([b"aa", np.zeros((2, 2), dtype=np.uint8)])

    def test_rejected_push_leaves_state_untouched(self):
        """A push that fails validation must not half-feed any lane."""
        import numpy as np
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=2, window=4,
                                      record=True)
        with pytest.raises(ValueError):
            batch.push([b"\x00" * 3, np.zeros((2, 2), dtype=np.uint8)])
        assert batch.pending_counts() == [0, 0]
        # Retrying with corrected streams matches a clean single push.
        batch.push([b"\x00" * 3, b"\xff" * 3])
        batch.flush()
        assert_parity([b"\x00" * 3, b"\xff" * 3], CostModel.fixed(), window=4)
        assert int(batch.beats[0]) == 3 and int(batch.beats[1]) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=0)
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=1, window=0)
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=1, window=4,
                                  commit=5)

    def test_decisions_require_record(self):
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=1)
        with pytest.raises(RuntimeError):
            batch.decisions(0)

    def test_rejects_out_of_range_array_values(self):
        """ndarray input must not silently wrap mod 256 (check_byte parity)."""
        import numpy as np
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=1, window=4)
        with pytest.raises(ValueError):
            batch.push([np.array([300, 5], dtype=np.int64)])
        with pytest.raises(ValueError):
            batch.push([np.array([-1], dtype=np.int64)])
        with pytest.raises(TypeError):
            batch.push([np.array([0.5, 1.0])])
        assert batch.pending_counts() == [0]


class TestWorkspace:
    """A push works in the encoder's reused buffers, and nothing the
    encoder keeps is a view of them."""

    def test_steady_state_push_allocates_little(self):
        """Past three warm pushes, a 128 x 2048 push traces under 1 MiB;
        allocating its planes, flags and temporaries takes 3.4 MiB."""
        import tracemalloc

        import numpy as np
        rng = np.random.default_rng(0x0DB1)
        matrices = rng.integers(0, 256, size=(4, 128, 2048), dtype=np.uint8)
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=128, window=16)
        for matrix in matrices[:3]:
            batch.push(matrix)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _peak = tracemalloc.get_traced_memory()
            batch.push(matrices[3])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < 1 << 20

    def test_second_push_reuses_every_buffer(self):
        """A fresh encoder's second 8 x 4096 push solves 8 x 4104 bytes,
        its first push's 8 leftover bytes ahead of the new ones.  The
        room each buffer got beyond the first push's request covers
        that, so no named buffer is allocated again."""
        import numpy as np
        rng = np.random.default_rng(0x0DB2)
        first, second = rng.integers(0, 256, size=(2, 8, 4096),
                                     dtype=np.uint8)
        batch = BatchStreamingEncoder(CostModel(0.1, 0.7), rows=8, window=16)
        batch.push(first)
        buffers = dict(batch._work._buffers)
        batch.push(second)
        assert batch._work._buffers.keys() == buffers.keys()
        for name, buffer in buffers.items():
            assert batch._work._buffers[name] is buffer, name

    @pytest.mark.parametrize("tile_cells", [None, 7])
    def test_buffers_regrow_across_push_shapes(self, monkeypatch,
                                                tile_cells):
        """Matrix pushes grow, shrink and regrow the buffers, a ragged
        list push commits on only some lanes, and small tiles give the
        tile buffers several shapes: every lane still encodes like the
        reference, and decisions read early never change."""
        import numpy as np

        from repro.core import vectorized
        if tile_cells is not None:
            monkeypatch.setattr(vectorized, "TILE_CELLS", tile_cells)
        model, rows, window = CostModel(0.1, 0.7), 5, 12
        rng = np.random.default_rng(0x0DB1)
        batch = BatchStreamingEncoder(model, rows=rows, window=window,
                                      record=True)
        streams = [b""] * rows
        early = None
        for width in (300, 17, 300, 1, None, 64):
            if width is None:  # multiples of the commit keep lanes level
                pushed = [bytes(rng.integers(0, 256, size=6 * row,
                                             dtype=np.uint8))
                          for row in range(rows)]
            else:
                pushed = rng.integers(0, 256, size=(rows, width),
                                      dtype=np.uint8)
            batch.push(pushed)
            streams = [old + bytes(new) for old, new in zip(streams, pushed)]
            if early is None:
                early = [batch.decisions(row) for row in range(rows)]
        assert len(set(batch.pending_counts())) == 1
        batch.flush()
        for row, stream in enumerate(streams):
            decisions, zeros, trans, last = reference_lane(stream, model,
                                                           window)
            assert batch.decisions(row)[:len(early[row])] == early[row]
            assert batch.decisions(row) == decisions, f"lane {row}"
            assert (int(batch.zeros[row]), int(batch.transitions[row]),
                    int(batch.beats[row]), int(batch.prev_words[row])) == (
                        zeros, trans, len(stream), last)
