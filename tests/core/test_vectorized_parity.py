"""Differential tests: vector backend vs the pure-Python reference.

The vector backend's contract is *bit-identity*: for every scheme, every
cost model and every boundary state, the batched NumPy kernels must
produce exactly the same invert flags and exactly the same IEEE-754 path
costs as the per-burst reference implementation.  These tests enforce the
contract on seeded random populations across alpha/beta grids, burst
lengths 1–16, independent and chained/streaming modes, and cross-check
small bursts against the exhaustive brute-force oracle.
"""

import types
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.baselines.chang import DbiGreedyWeighted
from repro.core import vectorized
from repro.core.burst import Burst
from repro.core.costs import CostModel, QuantizedCostModel
from repro.core.encoder import DbiOptimal
from repro.core.schemes import available_schemes, get_scheme
from repro.core.streaming import (
    BatchStreamingEncoder,
    StreamingOptimalEncoder,
    solve_stream,
)
from repro.core.trellis import brute_force, solve
from repro.core.bitops import (
    ALL_ONES_WORD,
    WORD_WIDTH,
    make_word,
    popcount,
    transitions,
    zeros_in_word,
)
from repro.core.vectorized import (
    _coefficients,
    _edge_planes,
    _popcount_uint8,
    _sent_activity,
    _viterbi_planes,
    available_backends,
    pack_bursts,
    resolve_backend,
    set_default_backend,
    solve_batch,
    try_pack_bursts,
)

#: AC-cost grid covering the DC-only / AC-only limits, the paper's fixed
#: point and the Fig. 3 crossover region.
AC_FRACTIONS = (0.0, 0.15, 0.37, 0.5, 0.56, 0.79, 1.0)


def random_batch(rng, batch, length):
    return rng.integers(0, 256, size=(batch, length), dtype=np.uint8)


def reference_rows(data, model, prev_words):
    flags = np.zeros(data.shape, dtype=bool)
    costs = np.zeros(data.shape[0], dtype=np.float64)
    for row, (payload, prev) in enumerate(zip(data, prev_words)):
        solution = solve(Burst(payload.tolist()), model, prev_word=int(prev))
        flags[row] = solution.invert_flags
        costs[row] = solution.total_cost
    return flags, costs


class TestSolveBatchParity:
    @pytest.mark.parametrize("ac_fraction", AC_FRACTIONS)
    @pytest.mark.parametrize("length", list(range(1, 17)) + [24])
    def test_alpha_grid_all_lengths(self, ac_fraction, length):
        """Flags and costs bit-identical across the alpha/beta grid, with
        per-row boundary words: every row is one solve_stream call."""
        rng = np.random.default_rng(1000 * length + int(ac_fraction * 100))
        model = CostModel.from_ac_fraction(ac_fraction)
        data = random_batch(rng, 48, length)
        prev_words = rng.integers(0, 512, size=48)
        flags, costs = solve_batch(data, model, prev_words=prev_words)
        ref_flags, ref_costs = reference_rows(data, model, prev_words)
        assert (flags == ref_flags).all()
        assert (costs == ref_costs).all()
        for row in range(48):
            assert solve_stream(data[row].tolist(), model,
                                prev_word=int(prev_words[row])) == \
                (tuple(map(bool, flags[row])), costs[row])

    def test_quantized_model(self):
        model = QuantizedCostModel.from_cost_model(
            CostModel.from_ac_fraction(0.43), bits=3)
        rng = np.random.default_rng(7)
        data = random_batch(rng, 64, 8)
        prev_words = np.full(64, 0x1FF)
        flags, costs = solve_batch(data, model)
        ref_flags, ref_costs = reference_rows(data, model, prev_words)
        assert (flags == ref_flags).all()
        assert (costs == ref_costs).all()

    def test_bit_identical_on_10k_bursts(self):
        """The acceptance bar: 10 000 random JEDEC bursts, exact match."""
        rng = np.random.default_rng(0x0DB1)
        model = CostModel.fixed()
        data = random_batch(rng, 10_000, 8)
        prev_words = np.full(10_000, 0x1FF)
        flags, costs = solve_batch(data, model)
        ref_flags, ref_costs = reference_rows(data, model, prev_words)
        assert (flags == ref_flags).all()
        assert (costs == ref_costs).all()

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_brute_force_crosscheck(self, length):
        """Vector costs equal the exhaustive 2^n oracle for n <= 6."""
        rng = np.random.default_rng(2018 + length)
        model = CostModel.from_ac_fraction(0.37)
        data = random_batch(rng, 32, length)
        prev_words = rng.integers(0, 512, size=32)
        flags, costs = solve_batch(data, model, prev_words=prev_words)
        for row in range(32):
            oracle = brute_force(Burst(data[row].tolist()), model,
                                 prev_word=int(prev_words[row]))
            assert costs[row] == pytest.approx(oracle.total_cost, abs=1e-12)
            # The chosen flags must realise the optimal cost too.
            from repro.core.streaming import stream_cost
            realised = stream_cost(data[row].tolist(),
                                   [bool(f) for f in flags[row]], model,
                                   prev_word=int(prev_words[row]))
            assert realised == pytest.approx(oracle.total_cost, abs=1e-12)


def expected_planes(values, prev, width):
    """``(same, cross, zeros_raw, zeros_inv)`` of the data lanes *values*
    from their popcount definitions, on the raw and inverted words."""
    count = np.vectorize(popcount, otypes=[np.int64])
    top = 1 << (width - 1)
    raw = values.astype(np.int64) | top
    inv = values.astype(np.int64) ^ (top - 1)
    # Column 0 counts from prev as if it were a raw word.
    before = np.column_stack((prev, raw[:, :-1]))
    return (count(before ^ raw), count(before ^ inv),
            width - count(raw), width - count(inv)), (raw, inv)


class TestEdgePlanes:
    @pytest.mark.parametrize("width", range(2, 10))
    def test_planes_match_popcount_definitions(self, width):
        """The two planes equal their popcount definitions at every lane
        count grouped DBI uses (and the ones in between), column 0
        counted from arbitrary boundary words, and their complements are
        the counts of the inverted words."""
        rng = np.random.default_rng(width)
        values = rng.integers(0, 1 << (width - 1), size=(32, 11),
                              dtype=np.uint8)
        prev = rng.integers(0, 1 << width, size=32)
        same, zeros_raw = _edge_planes(values, prev, width)
        (want_same, want_cross, want_zeros_raw, want_zeros_inv), (raw, inv) = (
            expected_planes(values, prev, width))
        count = np.vectorize(popcount, otypes=[np.int64])
        assert (same == want_same).all()
        assert (width - same == want_cross).all()
        # Later columns: inv->inv equals raw->raw, inv->raw equals raw->inv.
        assert (same[:, 1:] == count(inv[:, :-1] ^ inv[:, 1:])).all()
        assert (width - same[:, 1:] == count(inv[:, :-1] ^ raw[:, 1:])).all()
        assert (zeros_raw == want_zeros_raw).all()
        assert (width - zeros_raw == want_zeros_inv).all()
        assert same.dtype == zeros_raw.dtype == np.uint8

    @pytest.mark.parametrize("view", [
        lambda lanes: lanes[::3, 1::2],
        lambda lanes: lanes.T[2:19, ::-1],
    ], ids=["strided", "transposed"])
    def test_strided_values(self, view):
        """A non-contiguous view of the lanes gives its definitions'
        planes and is left unchanged."""
        rng = np.random.default_rng(0x57)
        values = view(rng.integers(0, 256, size=(40, 30), dtype=np.uint8))
        assert not values.flags.c_contiguous
        before = values.copy()
        prev = rng.integers(0, 512, size=values.shape[0])
        same, zeros_raw = _edge_planes(values, prev)
        (want_same, _cross, want_zeros_raw, _inv), _words = expected_planes(
            values, prev, WORD_WIDTH)
        assert (same == want_same).all()
        assert (zeros_raw == want_zeros_raw).all()
        assert (values == before).all()

    def test_uint8_popcount_is_exhaustively_exact(self):
        bits = np.arange(256, dtype=np.uint8)
        assert (_popcount_uint8(bits).tolist()
                == [popcount(value) for value in range(256)])


class TestSentActivity:
    def test_tallies_past_int16(self):
        """4,096 words flipping polarity every beat: a row's tallies pass
        32,767 and still equal a plain count of the words sent."""
        n = 4096
        rng = np.random.default_rng(0x7A11)
        data = np.stack([np.zeros(n, np.uint8), np.full(n, 0xFF, np.uint8),
                         rng.integers(0, 256, n, dtype=np.uint8)])
        flags = np.resize(np.array([True, False]), data.shape)
        prev = np.full(len(data), ALL_ONES_WORD, dtype=np.int64)
        counts = np.array([n, n - 1, n - 96])
        got = _sent_activity(_edge_planes(data, prev), flags, counts=counts)
        for row, count in enumerate(counts):
            words = [make_word(int(byte), bool(flag)) for byte, flag
                     in zip(data[row, :count], flags[row, :count])]
            want = (sum(map(transitions, [ALL_ONES_WORD] + words[:-1], words)),
                    sum(map(zeros_in_word, words)))
            assert (int(got[0][row]), int(got[1][row])) == want
        assert max(got[0]) > np.iinfo(np.int16).max
        assert got[0].dtype == got[1].dtype == np.int64


class TestEdgeTable:
    """The recursion runs on integers exactly when the model's
    coefficients are ``a / 2**k`` and ``b / 2**k``: in uint8 when, with
    ``K = width * (a + b)``, ``(max(span, 2) - 2) * (K // 2) + 2 * K <=
    255``, else in int16 when ``span * K <= 32767``; either way flags and
    costs are the reference's."""

    @pytest.mark.parametrize("model, dtype", [
        # 8 bytes * 9 lanes * 455 = 32760: the last model inside the bound.
        (CostModel(227, 228), np.int16),
        # 8 * 9 * 456 = 32832: one past it.
        (CostModel(228, 228), np.float64),
        (CostModel(2.0 ** -60, 3 * 2.0 ** -60), np.uint8),
        # Subnormal coefficients: 2**-1074 and 2**-1073.
        (CostModel(5e-324, 1e-323), np.uint8),
    ])
    def test_bound_scales_and_subnormals(self, model, dtype):
        rng = np.random.default_rng(0x7AB1E)
        data = random_batch(rng, 600, 8)
        prev_words = rng.integers(0, 512, size=600)
        _flags, path_costs, shift = _viterbi_planes(
            _edge_planes(data, prev_words), model.alpha, model.beta, 8)
        assert path_costs.dtype == dtype
        assert (shift is None) == (dtype == np.float64)
        flags, costs = solve_batch(data, model, prev_words=prev_words)
        ref_flags, ref_costs = reference_rows(data, model, prev_words)
        assert (flags == ref_flags).all()
        assert costs.dtype == np.float64
        assert costs.tobytes() == ref_costs.tobytes()


def rung_bound(k, span):
    """The uint8 rung's bound on every path sum of a *span*-step window
    whose two edges out of a word weigh *k* together."""
    return (max(span, 2) - 2) * (k // 2) + 2 * k


def max_via(a, b, width, counts):
    """Per pair, the largest path sum of the two-state recursion over
    ``counts[row] = (same, zeros_raw)`` planes, from either start state,
    in int64."""
    a, b = a[:, None, None], b[:, None, None]  # (pairs, 1, 1)

    def weights(column):
        """``w[f][t]``, each ``(pairs, rows, 1)``."""
        same = counts[None, :, 0, column, None]
        zeros = counts[None, :, 1, column, None]
        cross, zeros_inv = width - same, width - zeros
        return ((a * same + b * zeros, a * cross + b * zeros_inv),
                (a * cross + b * zeros, a * same + b * zeros_inv))

    first = weights(0)
    # paths[t] for start states 0 and 1 side by side on the last axis.
    paths = [np.concatenate((first[0][t], first[1][t]), axis=-1)
             for t in (0, 1)]
    most = np.maximum(*paths)
    for column in range(1, counts.shape[2]):
        w = weights(column)
        via = [[paths[f] + w[f][t] for t in (0, 1)] for f in (0, 1)]
        most = np.maximum(most, np.maximum.reduce([v for row in via
                                                   for v in row]))
        paths = [np.minimum(via[0][t], via[1][t]) for t in (0, 1)]
    return most.max(axis=(1, 2))


#: Models at the uint8 rung's edge, width 9: ``(model, span, dtype)``.
#: Their :func:`rung_bound` reads 222, 270, 236, 324 and 162 in turn.
UINT8_EDGE = [
    (CostModel(2, 3), 8, np.uint8),
    (CostModel(3, 3), 8, np.int16),
    (CostModel(1, 2), 16, np.uint8),
    (CostModel(2, 2), 16, np.int16),
    (CostModel.fixed(), 16, np.uint8),
]
UINT8_EDGE_IDS = ["2-3@8", "3-3@8", "1-2@16", "2-2@16", "fixed@16"]


def edge_streams(rows, length, seed):
    """All-0x00, all-0xFF and alternating 0x00/0xFF rows, then random ones."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        np.zeros((1, length), np.uint8), np.full((1, length), 0xFF, np.uint8),
        np.resize(np.array([0x00, 0xFF], np.uint8), (1, length)),
        random_batch(rng, rows - 3, length)])


class TestUint8Rung:
    """The uint8 rung up to its bound and no further, under the
    differential against the reference on streams that tie and streams
    that swing."""

    @pytest.mark.parametrize("model, span, dtype", UINT8_EDGE,
                             ids=UINT8_EDGE_IDS)
    def test_rung_at_the_bound(self, model, span, dtype):
        assert _coefficients(model.alpha, model.beta, span, WORD_WIDTH)[3] \
            is dtype

    def test_fixed_replay_window_runs_in_bytes(self):
        assert _coefficients(1.0, 1.0, 16, 9)[3] is np.uint8

    @pytest.mark.parametrize("model, span, dtype", UINT8_EDGE,
                             ids=UINT8_EDGE_IDS)
    def test_solve_batch_matches_trellis(self, model, span, dtype):
        data = edge_streams(64, span, span)
        prev_words = np.resize(np.array([0x1FF, 0x000, 0x0FF, 0x100]), 64)
        flags, costs = solve_batch(data, model, prev_words=prev_words)
        ref_flags, ref_costs = reference_rows(data, model, prev_words)
        assert (flags == ref_flags).all()
        assert costs.tobytes() == ref_costs.tobytes()

    @pytest.mark.parametrize("model, span, dtype", UINT8_EDGE,
                             ids=UINT8_EDGE_IDS)
    def test_streaming_matches_per_lane_reference(self, model, span, dtype):
        """At the controller's window 16, and at the model's own span."""
        streams = edge_streams(8, 300, span)
        for window in sorted({16, span}):
            batch = BatchStreamingEncoder(model, rows=8, window=window,
                                          record=True)
            for start in range(0, 300, 70):
                batch.push(streams[:, start:start + 70])
            batch.flush()
            for row, stream in enumerate(streams.tolist()):
                lane = StreamingOptimalEncoder(model=model, window=window)
                decisions = batch.decisions(row)
                assert decisions == lane.push(stream) + lane.flush()
                words = [make_word(byte, flag) for byte, flag in decisions]
                assert (int(batch.zeros[row]), int(batch.transitions[row])) \
                    == (sum(map(zeros_in_word, words)),
                        sum(map(transitions, [ALL_ONES_WORD] + words[:-1],
                                words)))

    @pytest.mark.parametrize("width", range(2, 10))
    def test_no_sum_passes_the_bound(self, width):
        """An int64 re-run of the recursion, for spans 1-32 and every
        integer pair (a, b) of the rung, on random and extreme counts
        from either start state, forms no sum above the bound, and the
        first pair past the rung leaves it."""
        rng = np.random.default_rng(width)
        levels = sorted({0, 1, width // 2, (width + 1) // 2, width - 1, width})
        for span in range(1, 33):
            top = max(total for total in range(256)
                      if rung_bound(width * total, span) <= 255)
            pairs = np.array([(a, total - a) for total in range(1, top + 1)
                              for a in range(total + 1)])
            for a, b in ((0, top + 1), (top + 1, 0)):
                assert _coefficients(float(a), float(b), span, width)[3] \
                    is not np.uint8
            assert all(_coefficients(float(a), float(b), span, width)[3]
                       is np.uint8 for a, b in pairs)
            # Counts (same, zeros_raw) per row and column: every level
            # pair held, alternated with its complement, and random.
            constant = [np.full((2, span), level) for level in levels]
            swinging = [np.resize([[lo, width - lo], [hi, width - hi]],
                                  (2, span)) for lo in levels for hi in levels]
            noise = list(rng.integers(0, width + 1, (24, 2, span)))
            counts = np.stack(constant + swinging + noise)
            most = max_via(pairs[:, 0], pairs[:, 1], width, counts)
            assert (most <= rung_bound(width * pairs.sum(axis=1), span)).all()
            assert most.max() <= 255


class TestExactScaleInvariance:
    """Equal fingerprints promise identical decisions.  For models whose
    coefficients are exact small multiples of one power of two, the
    int16 recursion compares integers, which positive scaling does not
    reorder, so the promise holds for them."""

    GROUPS = [[CostModel(1, 1), CostModel(0.5, 0.5), CostModel(3, 3)],
              [CostModel(3, 2), CostModel(1.5, 1), CostModel(6, 4)]]

    @pytest.mark.parametrize("models", GROUPS)
    def test_solve_batch_flags_equal(self, models):
        assert len({DbiOptimal(m).fingerprint() for m in models}) == 1
        data = random_batch(np.random.default_rng(0x5CA1E), 10_000, 8)
        first, *others = (solve_batch(data, m)[0] for m in models)
        for flags in others:
            assert (flags == first).all()

    def test_streaming_decisions_equal(self):
        streams = random_batch(np.random.default_rng(0x5CA1F), 8, 1250)
        decisions = []
        for model in (CostModel(3, 2), CostModel(1.5, 1)):
            encoder = BatchStreamingEncoder(model, rows=8, window=16,
                                            record=True)
            encoder.push(streams)
            encoder.flush()
            decisions.append([encoder.decisions(row) for row in range(8)])
        assert decisions[0] == decisions[1]


class TestStreamingParity:
    def test_chained_evaluation_parity(self):
        """Runner chained mode: identical metrics on both backends."""
        from repro.sim.runner import evaluate
        from repro.workloads.random_data import random_bursts

        bursts = random_bursts(count=300, seed=17)
        schemes = ["raw", "dbi-dc", "dbi-ac", "dbi-acdc", "bus-invert",
                   "dbi-greedy", "dbi-opt"]
        vector = evaluate(schemes, bursts, chained=True, backend="vector")
        reference = evaluate(schemes, bursts, chained=True,
                             backend="reference")
        for name in schemes:
            v, r = vector[name], reference[name]
            assert (v.zeros, v.transitions, v.inverted_bytes) == \
                   (r.zeros, r.transitions, r.inverted_bytes)


#: Every registered scheme, plus inexact models: their float64 edge
#: weights order ties differently from the registry's exact ones.
CHAINED_SCHEMES = {name: get_scheme(name) for name in available_schemes()}
CHAINED_SCHEMES.update(
    {f"dbi-opt[{alpha},{beta}]": DbiOptimal(CostModel(alpha, beta))
     for alpha, beta in ((0.1, 0.7), (1 / 3, 2 / 3), (0.37, 0.63))})
CHAINED_SCHEMES["dbi-greedy[0.1,0.7]"] = DbiGreedyWeighted(CostModel(0.1, 0.7))


class TestChainedParity:
    """Bursts sent back to back: the vector branch solves each burst from
    both words the byte before it can be sent as, and the chain scan
    follows the words sent.  It must give :meth:`encode_stream`'s words."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(CHAINED_SCHEMES)),
           length=st.integers(1, 16),
           # Batches on both sides of the scan's power-of-two steps.
           batch=st.integers(0, 8).flatmap(
               lambda k: st.integers(max(1, 2 ** k - 1), 2 ** k + 1)),
           prev_word=st.integers(0, 511),
           # Few distinct bytes make ties between the two boundary words.
           palette=st.sampled_from([None, (0x00, 0xFF),
                                    (0x00, 0x0F, 0xF0, 0xFF)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chained_words_match_encode_stream(self, name, length, batch,
                                               prev_word, palette, seed):
        scheme = CHAINED_SCHEMES[name]
        rng = np.random.default_rng(seed)
        data = (random_batch(rng, batch, length) if palette is None else
                rng.choice(np.array(palette, dtype=np.uint8),
                           size=(batch, length)))
        words = scheme.wire_words(data, prev_word, chained=True,
                                  backend="vector")
        expected = scheme.encode_stream(
            [Burst(row.tolist()) for row in data], prev_word)
        assert isinstance(words, np.ndarray)
        assert words.tolist() == [list(encoded.words) for encoded in expected]


class TestSchemeKernelParity:
    SCHEMES = ["raw", "dbi-dc", "dbi-ac", "dbi-acdc", "bus-invert",
               "dbi-greedy", "dbi-opt", "dbi-opt-fixed", "dbi-opt-q3"]

    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("length", [1, 5, 8, 16])
    def test_encode_batch_matches_encode(self, name, length):
        scheme = get_scheme(name)
        assert scheme.supports_batch()
        # zlib.crc32 is stable across processes (unlike hash()), keeping
        # the "seeded" populations reproducible on failure.
        rng = np.random.default_rng(zlib.crc32(name.encode()) + length)
        data = random_batch(rng, 40, length)
        bursts = [Burst(row.tolist()) for row in data]
        prev_word = int(rng.integers(0, 512))
        vector = scheme.encode_batch(bursts, prev_word=prev_word,
                                     backend="vector")
        reference = scheme.encode_batch(bursts, prev_word=prev_word,
                                        backend="reference")
        for enc_v, enc_r in zip(vector, reference):
            assert enc_v.invert_flags == enc_r.invert_flags
            assert enc_v.words == enc_r.words

    @pytest.mark.parametrize("name", SCHEMES)
    def test_batch_activity_matches_per_burst(self, name):
        from repro.sim.sweep import collect_activity
        from repro.workloads.random_data import random_bursts

        scheme = get_scheme(name)
        bursts = random_bursts(count=250, seed=5)
        vector = collect_activity(scheme, bursts, backend="vector")
        reference = collect_activity(scheme, bursts, backend="reference")
        assert (vector.transitions, vector.zeros) == \
               (reference.transitions, reference.zeros)


class TestBackendSelection:
    def test_available_backends_contains_vector(self):
        assert available_backends() == ["reference", "vector"]

    def test_resolve(self):
        assert resolve_backend("auto") == "vector"
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("vector") == "vector"
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_numpy_before_two_is_no_vector_backend(self, monkeypatch):
        """NumPy 1.x lacks ``np.bitwise_count``: ``auto`` picks the
        reference, the vector backend refuses by its floor, a controller
        replays on the reference path, and bursts still pack."""
        from repro.ctrl.controller import MemoryController, WriteTransaction

        def replay():
            controller = MemoryController(channels=2, byte_lanes=2, window=16)
            rng = np.random.default_rng(0x1DE)
            controller.submit([WriteTransaction(
                64 * i, rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
                for i in range(40)])
            return controller.backend, controller.flush()

        def numpy_attribute(name):
            if name == "bitwise_count":
                raise AttributeError(name)
            return getattr(np, name)

        vector_backend, expected = replay()
        assert vector_backend == "vector"
        old = types.ModuleType("numpy")
        old.__getattr__ = numpy_attribute
        monkeypatch.setattr(vectorized, "_np", old)
        assert old.zeros is np.zeros and not hasattr(old, "bitwise_count")
        assert available_backends() == ["reference"]
        assert resolve_backend("auto") == "reference"
        for call in (lambda: resolve_backend("vector"),
                     lambda: set_default_backend("vector"),
                     lambda: BatchStreamingEncoder(CostModel.fixed(), rows=2),
                     lambda: solve_batch(np.zeros((2, 8), np.uint8),
                                         CostModel.fixed())):
            with pytest.raises(RuntimeError, match=r"NumPy >= 2\.0"):
                call()
        assert replay() == ("reference", expected)
        assert pack_bursts([b"\x01\x02", b"\x03\x04"]).tolist() == [[1, 2],
                                                                    [3, 4]]

    def test_set_default_backend_round_trip(self):
        from repro.core.vectorized import get_default_backend, set_default_backend

        original = get_default_backend()
        try:
            set_default_backend("reference")
            assert resolve_backend() == "reference"
            with pytest.raises(ValueError):
                set_default_backend("nope")
        finally:
            set_default_backend(original)

    def test_pack_rejects_ragged(self):
        with pytest.raises(ValueError):
            pack_bursts([Burst([1, 2]), Burst([3])])
        assert try_pack_bursts([Burst([1, 2]), Burst([3])]) is None

    def test_pack_rejects_zero_width(self):
        """Zero-byte bursts fail as a ``Burst`` does, on both branches."""
        empty = np.zeros((3, 0), dtype=np.uint8)
        with pytest.raises(ValueError, match="at least one byte"):
            pack_bursts(empty)
        assert try_pack_bursts(empty) is None
        with pytest.raises(ValueError, match="at least one byte"):
            solve_batch(empty, CostModel.fixed())
        scheme = DbiOptimal(CostModel.fixed())
        for backend in ("vector", "reference"):
            with pytest.raises(ValueError, match="at least one byte"):
                scheme.wire_words(empty, 0x1FF, False, backend)

    def test_byte_string_bursts_take_the_vector_branch(self):
        """Bursts given as ``bytes`` pack like the same bursts as int
        lists, so the vector encoder runs on them and returns its array."""
        rng = np.random.default_rng(17)
        data = random_batch(rng, 500, 8)
        as_bytes = [row.tobytes() for row in data]
        as_lists = [row.tolist() for row in data]
        assert np.array_equal(pack_bursts(as_bytes), data)
        assert np.array_equal(pack_bursts([bytearray(row) for row in as_bytes]),
                              data)
        scheme = get_scheme("dbi-opt")
        words = scheme.wire_words(as_bytes, backend="vector")
        assert isinstance(words, np.ndarray)
        assert np.array_equal(words,
                              scheme.wire_words(as_lists, backend="vector"))
        with pytest.raises(ValueError, match="ragged"):
            pack_bursts([bytes(2), bytes(3)])
        with pytest.raises(ValueError, match="at least one byte"):
            pack_bursts([b"", b""])

    def test_chained_encodes_take_the_vector_branch(self):
        data = random_batch(np.random.default_rng(23), 40, 8)
        for name in available_schemes():
            words = get_scheme(name).wire_words(data, chained=True,
                                                backend="vector")
            assert isinstance(words, np.ndarray), name

    def test_encode_batch_falls_back_on_ragged(self):
        scheme = get_scheme("dbi-opt")
        bursts = [Burst([0x00, 0xFF]), Burst([0x0F])]
        encoded = scheme.encode_batch(bursts, backend="vector")
        reference = [scheme.encode(burst) for burst in bursts]
        assert [e.invert_flags for e in encoded] == \
               [e.invert_flags for e in reference]
