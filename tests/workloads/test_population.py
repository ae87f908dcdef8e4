"""Unit tests for the burst population protocol."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.burst import Burst
from repro.workloads.population import (
    GENERATION_BLOCK,
    BurstPopulation,
    ExplicitPopulation,
    OpaquePopulation,
    RandomPopulation,
    _Pcg64Bytes,
    as_population,
)


class TestRandomPopulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomPopulation(0)
        with pytest.raises(ValueError):
            RandomPopulation(4, burst_length=0)

    @pytest.mark.parametrize("seed", (-1, -2**70, 1.0, 2.5, "1", None,
                                      True))
    def test_seed_must_be_a_non_negative_integer(self, seed):
        """Refused when built, on every install, not when first drawn."""
        with pytest.raises(ValueError, match="seed"):
            RandomPopulation(4, seed=seed)

    def test_digest_names_numpys_generator_on_every_install(self):
        assert RandomPopulation(10, seed=1).digest() == (
            "random:10x8:seed=1:np")

    def test_len_and_shape(self):
        population = RandomPopulation(17, burst_length=4, seed=7)
        assert len(population) == 17
        assert population.burst_length == 4
        bursts = population.bursts()
        assert len(bursts) == 17
        assert all(len(burst) == 4 for burst in bursts)

    def test_chunked_equals_monolithic(self):
        """Chunked generation must reproduce the whole-population stream."""
        population = RandomPopulation(100, seed=123)
        whole = [burst.data for burst in population.bursts()]
        chunked = [burst.data
                   for chunk in population.iter_chunks(chunk_size=13)
                   for burst in chunk]
        assert chunked == whole

    def test_chunking_invariant_for_unaligned_byte_counts(self):
        """NumPy's bounded-integer sampling discards partial buffer words
        between calls; generation therefore happens at a fixed internal
        block size so the stream never depends on the consumer's chunk
        size — including when chunk_size * burst_length is not a
        multiple of 4 (the regression: 3-byte bursts, 13-burst chunks)."""
        population = RandomPopulation(100, burst_length=3, seed=123)
        whole = [b.data for chunk in population.iter_chunks(chunk_size=100)
                 for b in chunk]
        for chunk_size in (1, 7, 13, 64):
            chunked = [b.data
                       for chunk in population.iter_chunks(chunk_size)
                       for b in chunk]
            assert chunked == whole, chunk_size

    def test_regeneration_is_deterministic(self):
        a = RandomPopulation(25, seed=9).bursts()
        b = RandomPopulation(25, seed=9).bursts()
        assert [x.data for x in a] == [y.data for y in b]

    def test_digest_distinguishes_parameters(self):
        base = RandomPopulation(10, seed=1).digest()
        assert RandomPopulation(10, seed=1).digest() == base
        assert RandomPopulation(11, seed=1).digest() != base
        assert RandomPopulation(10, seed=2).digest() != base
        assert RandomPopulation(10, burst_length=4, seed=1).digest() != base

    def test_matches_legacy_random_bursts(self):
        """With NumPy installed the declarative form reproduces
        random_bursts byte-for-byte (the legacy CLI population)."""
        np = pytest.importorskip("numpy", exc_type=ImportError)
        del np
        from repro.workloads.random_data import random_bursts

        population = RandomPopulation(60, seed=0x0DB1)
        legacy = random_bursts(count=60, seed=0x0DB1)
        assert [b.data for b in population.bursts()] == [b.data
                                                         for b in legacy]

    def test_iter_packed_matches_bursts(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        population = RandomPopulation(40, seed=5)
        packed = np.concatenate(list(population.iter_packed(chunk_size=7)))
        assert packed.shape == (40, 8)
        assert [tuple(row) for row in packed.tolist()] == [
            burst.data for burst in population.bursts()]


#: sha256 of ``np.random.default_rng(seed).integers(0, 256, size=(count,
#: burst_length), dtype=np.uint8).tobytes()``, computed with NumPy.
NUMPY_STREAM_SHA256 = {
    (3, 8, 0x0DB1):
        "9f09e0f5c7cd27c386d3cf2638c92ea136f478c251a6e4e69033ffeb26dbc17b",
    (7, 3, 12345678901234567890):
        "c8ef999acf7f822b9643e2981e0d3bd378030da4d1b770fb32b46c3088b97cd2",
    (1000, 16, 2**64):
        "49930220dcc3faee6a5c4d241f16b275abc317cb0352d36ff67fcb835e9a2094",
    (70000, 1, 2**32 + 1):
        "c3f831ed676ce55e63d72129f3eb0d68413c04c5497f21ab566dde3355189cc1",
}


class TestOneStreamOnEveryInstall:
    """One seed, one population: the standard-library stream is NumPy's
    ``default_rng`` byte stream."""

    @pytest.mark.parametrize("shape", sorted(NUMPY_STREAM_SHA256))
    def test_population_bytes_are_numpys(self, shape):
        count, burst_length, seed = shape
        population = RandomPopulation(count, burst_length, seed)
        assert (hashlib.sha256(population.to_bytes()).hexdigest()
                == NUMPY_STREAM_SHA256[shape])

    @pytest.mark.parametrize("shape", sorted(NUMPY_STREAM_SHA256))
    def test_stdlib_stream_is_numpys(self, shape):
        count, burst_length, seed = shape
        data = _Pcg64Bytes(seed).read(count * burst_length)
        assert (hashlib.sha256(data).hexdigest()
                == NUMPY_STREAM_SHA256[shape])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.sampled_from((0, 2**32 - 1, 2**32, 2**32 + 1, 2**64))
           | st.integers(0, 2**128),
           count=st.sampled_from((GENERATION_BLOCK - 1, GENERATION_BLOCK,
                                  GENERATION_BLOCK + 1,
                                  2 * GENERATION_BLOCK + 1))
           | st.integers(1, 300),
           burst_length=st.integers(1, 16),
           chunk_size=st.integers(1, 3 * GENERATION_BLOCK))
    @example(seed=0, count=GENERATION_BLOCK + 1, burst_length=3,
             chunk_size=GENERATION_BLOCK)
    @example(seed=2**128, count=2 * GENERATION_BLOCK + 1, burst_length=16,
             chunk_size=7)
    def test_stream_matches_default_rng(self, seed, count, burst_length,
                                        chunk_size):
        """Read in the NumPy-free population's chunks, the stream equals
        one monolithic ``default_rng`` draw."""
        np = pytest.importorskip("numpy", exc_type=ImportError)
        expected = np.random.default_rng(seed).integers(
            0, 256, size=(count, burst_length), dtype=np.uint8).tobytes()
        stream = _Pcg64Bytes(seed)
        population = RandomPopulation(count, burst_length, seed)
        assert b"".join(stream.read(step * burst_length) for step in
                        population._chunk_sizes(chunk_size)) == expected


class TestExplicitPopulation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPopulation([])

    def test_round_trip(self):
        bursts = [Burst([1, 2]), Burst([3, 4])]
        population = ExplicitPopulation(bursts)
        assert len(population) == 2
        assert population.burst_length == 2
        assert [b.data for b in population.bursts()] == [(1, 2), (3, 4)]
        assert [b.data for b in population] == [(1, 2), (3, 4)]

    def test_ragged_has_no_common_length(self):
        population = ExplicitPopulation([Burst([1]), Burst([2, 3])])
        assert population.burst_length is None
        with pytest.raises(ValueError):
            list(population.iter_packed())

    def test_digest_tracks_content(self):
        a = ExplicitPopulation([Burst([1, 2])])
        b = ExplicitPopulation([Burst([1, 2])])
        c = ExplicitPopulation([Burst([1, 3])])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_chunked_iteration(self):
        bursts = [Burst([i]) for i in range(10)]
        population = ExplicitPopulation(bursts)
        chunks = list(population.iter_chunks(chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert [b.data for chunk in chunks for b in chunk] == [
            (i,) for i in range(10)]


class TestOpaquePopulation:
    def test_metadata_only(self):
        population = OpaquePopulation("sha256:feed", count=5, burst_length=8)
        assert len(population) == 5
        assert population.digest() == "sha256:feed"
        with pytest.raises(RuntimeError):
            population.bursts()


class TestAsPopulation:
    def test_passthrough(self):
        population = RandomPopulation(3)
        assert as_population(population) is population

    def test_wraps_sequences(self):
        population = as_population([Burst([0xFF])])
        assert isinstance(population, BurstPopulation)
        assert len(population) == 1
