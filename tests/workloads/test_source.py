"""Trace-source protocol: digests, chunk joins, file reads, round-trips.

The load-bearing invariant is digest identity: every source's
``digest()`` must equal the inline payload digest of its concatenated
chunks (``sha256:<first 32 hex>``), because the replay cache keys both
paths by that string — a mismatch would silently cold-start every cache
on the streaming path.  Everything here runs NumPy-free except the
registry adapter.
"""

import hashlib
import os

import pytest

from repro.workloads.source import (
    DEFAULT_TRACE_CHUNK_BYTES,
    SYNTHETIC_BLOCK_BYTES,
    BytesTraceSource,
    FileTraceSource,
    RegistryTraceSource,
    SyntheticTraceSource,
    TraceSource,
    as_trace_source,
    source_from_json,
)

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def inline_digest(payload: bytes) -> str:
    return f"sha256:{hashlib.sha256(payload).hexdigest()[:32]}"


def drain(source) -> bytes:
    return b"".join(source.chunks())


PAYLOAD = bytes((i * 41 + (i >> 5)) & 0xFF for i in range(10000))


class TestBytesTraceSource:
    def test_digest_matches_inline_format(self):
        source = BytesTraceSource(PAYLOAD, chunk_bytes=97)
        assert source.digest() == inline_digest(PAYLOAD)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 4096, 10**6])
    def test_chunks_join_to_payload(self, chunk_bytes):
        source = BytesTraceSource(PAYLOAD, chunk_bytes=chunk_bytes)
        assert drain(source) == PAYLOAD
        assert all(len(chunk) <= chunk_bytes for chunk in source.chunks())
        assert source.size() == len(PAYLOAD)

    def test_chunks_restartable(self):
        source = BytesTraceSource(PAYLOAD, chunk_bytes=333)
        assert drain(source) == drain(source)

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            BytesTraceSource(b"")

    def test_satisfies_protocol(self):
        assert isinstance(BytesTraceSource(b"x"), TraceSource)


class TestFileTraceSource:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(PAYLOAD)
        return path

    def test_digest_matches_inline_format(self, trace_path):
        source = FileTraceSource(trace_path, chunk_bytes=1024)
        assert source.digest() == inline_digest(PAYLOAD)

    @pytest.mark.parametrize("chunk_bytes", [1, 100, 4096, 1 << 20])
    def test_chunks_join_to_file(self, trace_path, chunk_bytes):
        source = FileTraceSource(trace_path, chunk_bytes=chunk_bytes)
        assert drain(source) == PAYLOAD

    def test_limit_caps_the_stream(self, trace_path):
        source = FileTraceSource(trace_path, chunk_bytes=512, limit=2500)
        assert source.size() == 2500
        assert drain(source) == PAYLOAD[:2500]
        assert source.digest() == inline_digest(PAYLOAD[:2500])

    def test_limit_beyond_file_is_harmless(self, trace_path):
        source = FileTraceSource(trace_path, limit=10 ** 9)
        assert source.size() == len(PAYLOAD)
        assert drain(source) == PAYLOAD

    def test_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            FileTraceSource(empty)

    def test_digest_streams_lazily_once(self, trace_path):
        source = FileTraceSource(trace_path, chunk_bytes=4096)
        first = source.digest()
        os.unlink(trace_path)  # digest is memoised; no re-read needed
        assert source.digest() == first


class TestSyntheticTraceSource:
    def test_chunk_stability(self):
        """The same (seed, size) yields the same bytes at any chunking."""
        reference = drain(SyntheticTraceSource(200000, seed=9,
                                               chunk_bytes=65536))
        for chunk_bytes in (1000, 4096, 65536, 100000, 1 << 20):
            source = SyntheticTraceSource(200000, seed=9,
                                          chunk_bytes=chunk_bytes)
            assert drain(source) == reference
            assert source.digest() == inline_digest(reference)

    def test_seed_changes_content(self):
        a = SyntheticTraceSource(5000, seed=1).digest()
        b = SyntheticTraceSource(5000, seed=2).digest()
        assert a != b

    def test_sub_block_sizes(self):
        source = SyntheticTraceSource(100, seed=3, chunk_bytes=7)
        payload = drain(source)
        assert len(payload) == 100
        assert source.size() == 100

    def test_block_is_a_pure_function_of_index(self):
        small = SyntheticTraceSource(SYNTHETIC_BLOCK_BYTES, seed=4)
        large = SyntheticTraceSource(3 * SYNTHETIC_BLOCK_BYTES, seed=4)
        assert drain(large)[:SYNTHETIC_BLOCK_BYTES] == drain(small)


@pytest.mark.skipif(not HAVE_NUMPY, reason="registry traces need NumPy")
class TestRegistryTraceSource:
    def test_digest_matches_materialised_trace(self):
        from repro.workloads.traces import trace_bytes

        source = RegistryTraceSource("text", 8192, seed=11, chunk_bytes=1000)
        payload = trace_bytes("text", 8192, seed=11)
        assert drain(source) == payload
        assert source.digest() == inline_digest(payload)

    def test_unknown_trace_rejected(self):
        with pytest.raises(KeyError):
            RegistryTraceSource("nope", 1024)


class TestAsTraceSource:
    def test_bytes_coerce(self):
        source = as_trace_source(PAYLOAD, chunk_bytes=50)
        assert isinstance(source, BytesTraceSource)
        assert source.chunk_bytes == 50

    def test_path_coerces(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abc")
        source = as_trace_source(str(path))
        assert isinstance(source, FileTraceSource)
        assert drain(source) == b"abc"

    def test_source_passes_through(self):
        source = SyntheticTraceSource(10)
        assert as_trace_source(source) is source

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_trace_source(42)


class TestSourceFromJson:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(PAYLOAD)
        original = FileTraceSource(path, chunk_bytes=123, limit=5000)
        rebuilt = source_from_json(original.describe())
        assert isinstance(rebuilt, FileTraceSource)
        assert rebuilt.digest() == original.digest()
        assert rebuilt.chunk_bytes == 123

    def test_missing_file_degrades_to_none(self):
        assert source_from_json({"kind": "file", "path": "/no/such/file",
                                 "bytes": 10}) is None

    def test_synthetic_round_trip(self):
        original = SyntheticTraceSource(12345, seed=6, chunk_bytes=512)
        rebuilt = source_from_json(original.describe())
        assert rebuilt.digest() == original.digest()

    def test_bytes_kind_is_not_reconstructible(self):
        record = BytesTraceSource(b"abc").describe()
        assert source_from_json(record) is None

    @pytest.mark.skipif(not HAVE_NUMPY, reason="registry traces need NumPy")
    def test_registry_round_trip(self):
        original = RegistryTraceSource("float", 4096, seed=2)
        rebuilt = source_from_json(original.describe())
        assert rebuilt.digest() == original.digest()

    def test_default_chunk_bytes(self):
        rebuilt = source_from_json({"kind": "synthetic", "n_bytes": 100})
        assert rebuilt.chunk_bytes == DEFAULT_TRACE_CHUNK_BYTES

    @pytest.mark.parametrize("record, problem", [
        ([], "must be a JSON object, got list"),
        ("synthetic", "must be a JSON object, got str"),
        ({"kind": "synthetic", "seed": "a"}, "lacks 'n_bytes'"),
        ({"kind": "file", "bytes": 10}, "lacks 'path'"),
        ({"kind": "registry", "n_bytes": 4096}, "lacks 'name'"),
        ({"kind": "registry", "name": "text"}, "lacks 'n_bytes'"),
    ], ids=["list", "string", "synthetic-no-n_bytes", "file-no-path",
            "registry-no-name", "registry-no-n_bytes"])
    def test_malformed_descriptor_is_named(self, record, problem):
        with pytest.raises(ValueError, match=problem):
            source_from_json(record)
