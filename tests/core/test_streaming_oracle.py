"""Exhaustive small-domain oracle for the window-parallel streaming trellis.

:class:`~repro.core.streaming.BatchStreamingEncoder` solves every window
of a push at once, from both states its boundary byte can be in, then
chains the windows with a scan.  Here every byte stream up to
``MAX_LENGTH`` over a three-byte alphabet — one encoder row per stream,
so the rows are ragged — is encoded for windows 1–8 (default commit and
commit = window) and compared with one
:class:`~repro.core.streaming.StreamingOptimalEncoder` per stream.  With
the all-zero, half-ones and all-ones bytes, about a quarter of these
streams reach equal path costs somewhere in their trellis under the
fixed model, so the tie-breaking must match the reference too.

The tile-seam tests shrink :data:`repro.core.vectorized.TILE_CELLS` so a
push's windows (and rows) span many tiles.
"""

import itertools

import pytest

np = pytest.importorskip("numpy")

from repro.core import vectorized
from repro.core.bitops import ALL_ONES_WORD, make_word, transitions, zeros_in_word
from repro.core.burst import Burst
from repro.core.costs import CostModel
from repro.core.streaming import BatchStreamingEncoder, StreamingOptimalEncoder
from repro.core.trellis import solve

#: Byte alphabet of the exhaustive streams.
ALPHABET = (0x00, 0x0F, 0xFF)

#: Longest exhaustive stream; every stream of length 1..MAX_LENGTH runs.
MAX_LENGTH = 6

STREAMS = [bytes(stream) for length in range(1, MAX_LENGTH + 1)
           for stream in itertools.product(ALPHABET, repeat=length)]

MODELS = {"fixed": CostModel.fixed(), "dc_only": CostModel.dc_only()}

#: (window, commit) pairs: windows 1-8, default commit and commit = window.
CADENCES = sorted({(window, commit) for window in range(1, 9)
                   for commit in (max(1, window // 2), window)})


def reference(stream, model, window, commit, prev_word=ALL_ONES_WORD):
    """``(decisions, zeros, transitions, last word)`` of one reference lane."""
    encoder = StreamingOptimalEncoder(model=model, window=window,
                                      commit=commit, prev_word=prev_word)
    decisions = encoder.push(list(stream)) + encoder.flush()
    zeros = n_transitions = 0
    last = prev_word
    for byte, flag in decisions:
        word = make_word(byte, flag)
        zeros += zeros_in_word(word)
        n_transitions += transitions(last, word)
        last = word
    return decisions, zeros, n_transitions, last


def assert_matches_reference(batch, streams, model, window, commit):
    for row, stream in enumerate(streams):
        decisions, zeros, n_transitions, last = reference(
            stream, model, window, commit)
        assert batch.decisions(row) == decisions, stream.hex()
        assert (int(batch.zeros[row]), int(batch.transitions[row]),
                int(batch.beats[row]), int(batch.prev_words[row])) == \
            (zeros, n_transitions, len(stream), last), stream.hex()


@pytest.mark.parametrize("window,commit", CADENCES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_every_small_stream_matches_reference(model_name, window, commit):
    model = MODELS[model_name]
    batch = BatchStreamingEncoder(model, rows=len(STREAMS), window=window,
                                  commit=commit, record=True)
    batch.push(STREAMS)
    batch.flush()
    assert batch.pending_counts() == [0] * len(STREAMS)
    assert_matches_reference(batch, STREAMS, model, window, commit)


@pytest.mark.parametrize("tile_cells", [2, 6, 24])
@pytest.mark.parametrize("window,commit", [(1, 1), (5, 2), (16, 8), (8, 8)])
def test_windows_across_tile_seams(monkeypatch, tile_cells, window, commit):
    """Pushes whose windows and rows span many tiles stay bit-identical."""
    monkeypatch.setattr(vectorized, "TILE_CELLS", tile_cells)
    rng = np.random.default_rng(1000 * tile_cells + 10 * window + commit)
    symbols = np.array(ALPHABET + (0x5A, 0xC3), dtype=np.uint8)
    streams = [bytes(rng.choice(symbols, size=size))
               for size in (0, 7, 90, 131, 160)]
    model = CostModel.from_ac_fraction(0.43)
    batch = BatchStreamingEncoder(model, rows=len(streams), window=window,
                                  commit=commit, record=True)
    for start in range(0, 160, 37):
        batch.push([stream[start:start + 37] for stream in streams])
    batch.flush()
    assert_matches_reference(batch, streams, model, window, commit)


@pytest.mark.parametrize("tile_cells", [1, 5])
def test_solve_batch_across_row_tiles(monkeypatch, tile_cells):
    monkeypatch.setattr(vectorized, "TILE_CELLS", tile_cells)
    rng = np.random.default_rng(tile_cells)
    data = rng.integers(0, 256, size=(23, 9), dtype=np.uint8)
    prev_words = rng.integers(0, 512, size=23)
    model = CostModel.from_ac_fraction(0.61)
    flags, costs = vectorized.solve_batch(data, model, prev_words=prev_words)
    for row in range(23):
        solution = solve(Burst(data[row].tolist()), model,
                         prev_word=int(prev_words[row]))
        assert tuple(map(bool, flags[row])) == solution.invert_flags
        assert costs[row] == solution.total_cost
