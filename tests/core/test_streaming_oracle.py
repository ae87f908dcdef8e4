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
push's windows (and rows) span many tiles.  A hypothesis differential
does the same for commits that do not divide the window, whose tiles end
in a partly filled block of window-major columns, under exact, inexact
and physical cost models: once through the encoder, and once per window
of :func:`repro.core.vectorized._viterbi_planes`, whose path costs read
every column of a window, the last one included.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core import vectorized
from repro.core.bitops import ALL_ONES_WORD, make_word, transitions, zeros_in_word
from repro.core.burst import Burst
from repro.core.costs import CostModel
from repro.core.streaming import BatchStreamingEncoder, StreamingOptimalEncoder
from repro.core.trellis import solve
from repro.phy.pod import pod135
from repro.phy.power import GBPS, PICOFARAD, InterfaceEnergyModel

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


#: Models of the window-major differential: at window 16, uint8 (fixed),
#: int16 (7:3) and float64 weights, among them a physical operating
#: point's energies.
TILE_MODELS = {
    "fixed": CostModel.fixed(),
    "7-3": CostModel(7.0, 3.0),
    "0.1-0.7": CostModel(0.1, 0.7),
    "thirds": CostModel(1 / 3, 2 / 3),
    "pod135": InterfaceEnergyModel(pod135(), 12 * GBPS,
                                   3 * PICOFARAD).cost_model(),
}


def test_tile_models_cover_every_rung():
    """The differential below runs every weight dtype at window 16."""
    rungs = {name: vectorized._coefficients(float(model.alpha),
                                            float(model.beta), 16, 9)[3]
             for name, model in TILE_MODELS.items()}
    assert rungs["fixed"] is np.uint8 and rungs["7-3"] is np.int16
    assert set(rungs.values()) == {np.uint8, np.int16, np.float64}


#: (window, commit): commits that do not divide the window, one window
#: per commit and the one-byte window.
UNEVEN_CADENCES = [(16, 5), (10, 3), (7, 3), (16, 16), (1, 1)]

#: Lane bytes: random, or few-valued so that path costs tie.
lane_bytes = st.one_of(
    st.binary(max_size=70),
    st.lists(st.sampled_from(ALPHABET + (0x5A,)), max_size=70).map(bytes))


@pytest.mark.parametrize("tile_cells", [1, 7, None])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cadence=st.sampled_from(UNEVEN_CADENCES),
       model_name=st.sampled_from(sorted(TILE_MODELS)),
       streams=st.lists(lane_bytes, min_size=1, max_size=5),
       step=st.integers(1, 40), level=st.booleans())
def test_window_major_tiles_match_reference(monkeypatch, tile_cells, cadence,
                                            model_name, streams, step, level):
    """Every cadence, model and tile size encodes like the reference.
    Pushes of *step* bytes per lane leave lanes ragged, or, with *level*,
    every lane as long as the first and pushed as one matrix."""
    if tile_cells is not None:
        monkeypatch.setattr(vectorized, "TILE_CELLS", tile_cells)
    window, commit = cadence
    model = TILE_MODELS[model_name]
    if level:
        streams = [((stream + streams[0]) * 70)[:len(streams[0])]
                   for stream in streams]
    batch = BatchStreamingEncoder(model, rows=len(streams), window=window,
                                  commit=commit, record=True)
    for start in range(0, max(map(len, streams)), step):
        pushed = [stream[start:start + step] for stream in streams]
        if level:
            pushed = np.frombuffer(b"".join(pushed), dtype=np.uint8).reshape(
                len(streams), -1)
        batch.push(pushed)
    batch.flush()
    assert_matches_reference(batch, streams, model, window, commit)


@pytest.mark.parametrize("tile_cells", [1, 7, None])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cadence=st.sampled_from(UNEVEN_CADENCES),
       model_name=st.sampled_from(sorted(TILE_MODELS)),
       rows=st.integers(1, 4), windows=st.integers(1, 9),
       spare=st.integers(0, 5), data=st.data())
def test_every_window_solves_like_the_trellis(monkeypatch, tile_cells,
                                              cadence, model_name, rows,
                                              windows, spare, data):
    """Each window's path cost and committed flags, from either state of
    the byte before it (window 0: from the row's bus word), are
    :func:`repro.core.trellis.solve`'s; *spare* columns past the last
    window end the planes at every offset of a block."""
    if tile_cells is not None:
        monkeypatch.setattr(vectorized, "TILE_CELLS", tile_cells)
    window, commit = cadence
    model = TILE_MODELS[model_name]
    n = (windows - 1) * commit + window + spare
    payload = data.draw(st.one_of(
        st.binary(min_size=rows * n, max_size=rows * n),
        st.lists(st.sampled_from(ALPHABET + (0x5A,)), min_size=rows * n,
                 max_size=rows * n).map(bytes)))
    matrix = np.frombuffer(payload, dtype=np.uint8).reshape(rows, n)
    prev = np.array(data.draw(st.lists(st.integers(0, 511), min_size=rows,
                                       max_size=rows)), dtype=np.int64)
    flags, costs, shift = vectorized._viterbi_planes(
        vectorized._edge_planes(matrix, prev), model.alpha, model.beta,
        window, commit, windows, states=2)
    if shift is not None:
        costs = np.ldexp(costs, -shift, dtype=np.float64)
    for row in range(rows):
        for k in range(windows):
            for state in (0, 1) if k else (0,):
                boundary = (int(prev[row]) if k == 0 else
                            make_word(int(matrix[row, k * commit - 1]),
                                      bool(state)))
                burst = Burst(matrix[row, k * commit:][:window].tolist())
                solution = solve(burst, model, prev_word=boundary)
                assert costs[state, row, k] == solution.total_cost
                assert (tuple(map(bool, flags[:, state, row, k]))
                        == solution.invert_flags[:commit])
