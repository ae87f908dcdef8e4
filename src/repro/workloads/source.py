"""Bounded-memory trace sources for streaming controller replay.

The replay axis originally carried its trace as one inline ``bytes``
payload — fine for the 64 KiB synthetic traces of the early PRs, hopeless
for the paper's motivating scenario of multi-GB GPU/CPU write traces.
This module introduces the :class:`TraceSource` protocol: a replayable,
content-addressed byte stream that is consumed **one chunk at a time**,
so the write path (:func:`repro.ctrl.controller.transactions_from_source`)
and the replay engine (:func:`repro.sim.experiments.run_replay`) never
hold more than one chunk of trace data in memory.

Sources
-------
* :class:`BytesTraceSource` — an in-memory payload, chunked (the adapter
  that makes every existing inline replay a streaming replay).
* :class:`FileTraceSource` — a trace file on disk, read with one
  ``read`` per chunk, so memory never grows with trace size.
* :class:`SyntheticTraceSource` — pseudo-random bytes generated
  block-by-block from :class:`random.Random`; **chunk-stable**: the bytes
  depend only on ``(seed, block index)``, never on the chunk size it is
  read with.  Pure stdlib, so multi-GB benchmark traces cost no NumPy
  and no disk.
* :class:`RegistryTraceSource` — adapter for the named
  :data:`repro.workloads.traces.TRACES` classes (their builders are
  monolithic NumPy generators, so this source materialises the payload
  per iteration; use it for the registry's moderate sizes, not for
  multi-GB streams).

Digests
-------
``digest()`` returns exactly the string
``f"sha256:{sha256(payload).hexdigest()[:32]}"`` that
:meth:`repro.sim.experiments.ReplaySpec.payload_digest` computes for an
inline payload of the same bytes — computed **incrementally** while
streaming.  Replay cache keys therefore coincide between the chunked and
the inline path, and every cached replay stays warm when a spec migrates
from ``payload=`` to ``source=``.

Everything here is dependency-free (``RegistryTraceSource`` imports the
NumPy-backed registry lazily), so the streaming path works on the
reference backend without NumPy installed.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Dict, Iterator, List, Optional, Union

from . import DEFAULT_TRACE_CHUNK_BYTES

try:  # pragma: no cover - Protocol exists on every supported version
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

#: Generation block of :class:`SyntheticTraceSource`.  Bytes are a pure
#: function of ``(seed, block index)`` at this granularity, which is what
#: makes the source chunk-stable.
SYNTHETIC_BLOCK_BYTES = 65536


def _digest_of(hasher: "hashlib._Hash") -> str:
    """The library-wide payload digest format (see module docstring)."""
    return f"sha256:{hasher.hexdigest()[:32]}"


@runtime_checkable
class TraceSource(Protocol):
    """A replayable, content-addressed, chunk-at-a-time byte stream.

    ``chunks()`` must be restartable: every call yields the same bytes
    from the beginning (replay deduplication may stream a source once
    per distinct cost-model ratio).  ``digest()`` must equal the inline
    digest of the concatenated chunks.
    """

    def digest(self) -> str:
        """Content digest, format-identical to the inline payload digest."""
        ...

    def size(self) -> int:
        """Total bytes the source yields (must be > 0)."""
        ...

    def chunks(self) -> Iterator[bytes]:
        """Yield the payload as consecutive non-empty chunks."""
        ...

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable descriptor for artifact persistence."""
        ...


class BytesTraceSource:
    """An in-memory payload presented through the source protocol.

    The bridge between the inline and the streaming world: replaying a
    ``BytesTraceSource`` is bit-identical to replaying its payload inline
    (same transactions, same digest, same cache keys).
    """

    def __init__(self, payload: bytes,
                 chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES):
        if not payload:
            raise ValueError("payload must be non-empty")
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.payload = bytes(payload)
        self.chunk_bytes = chunk_bytes
        self._digest: Optional[str] = None

    def digest(self) -> str:
        if self._digest is None:
            self._digest = _digest_of(hashlib.sha256(self.payload))
        return self._digest

    def size(self) -> int:
        return len(self.payload)

    def chunks(self) -> Iterator[bytes]:
        for start in range(0, len(self.payload), self.chunk_bytes):
            yield self.payload[start:start + self.chunk_bytes]

    def describe(self) -> Dict[str, object]:
        return {"kind": "bytes", "bytes": len(self.payload),
                "chunk_bytes": self.chunk_bytes}


class FileTraceSource:
    """A trace file streamed in bounded memory.

    Each chunk is one ``read`` of ``chunk_bytes`` (the last one shorter)
    from an open handle, so only the chunk in hand is resident.  A read
    that returns fewer bytes than the file held when the source was made
    raises ``OSError``.

    ``limit`` caps how much of the file is streamed (the CLI's
    ``--bytes``); ``digest()`` streams the (capped) file once through an
    incremental hash on first use, and any full ``chunks()`` pass
    refreshes it for free.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES,
                 limit: Optional[int] = None):
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.path = os.fspath(path)
        self.chunk_bytes = chunk_bytes
        self.limit = limit
        file_size = os.path.getsize(self.path)
        self._size = file_size if limit is None else min(limit, file_size)
        if self._size == 0:
            raise ValueError(f"{self.path}: trace file is empty")
        self._digest: Optional[str] = None

    def digest(self) -> str:
        if self._digest is None:
            for __ in self.chunks():  # side effect: hashes incrementally
                pass
        return self._digest

    def size(self) -> int:
        return self._size

    def chunks(self) -> Iterator[bytes]:
        hasher = hashlib.sha256()
        with open(self.path, "rb") as handle:
            offset = 0
            while offset < self._size:
                length = min(self.chunk_bytes, self._size - offset)
                chunk = handle.read(length)
                if len(chunk) != length:
                    raise OSError(
                        f"{self.path}: short read at offset {offset} "
                        f"(file truncated while streaming?)")
                hasher.update(chunk)
                offset += length
                yield chunk
        self._digest = _digest_of(hasher)

    def describe(self) -> Dict[str, object]:
        record: Dict[str, object] = {"kind": "file", "path": self.path,
                                     "bytes": self._size,
                                     "chunk_bytes": self.chunk_bytes}
        if self.limit is not None:
            record["limit"] = self.limit
        return record


class SyntheticTraceSource:
    """Chunk-stable pseudo-random trace of arbitrary size, pure stdlib.

    Block *i* of :data:`SYNTHETIC_BLOCK_BYTES` bytes is drawn from
    ``random.Random(seed ^ (i * GOLDEN))`` — a pure function of the seed
    and the block index — so any chunk size (and any partial read) sees
    the same bytes, and the digest is a stable content identifier.
    Generation runs at hundreds of MB/s, which makes this the benchmark
    workhorse for multi-GB streaming replays that should cost no disk.
    """

    #: Odd multiplier decorrelating consecutive block seeds.
    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, n_bytes: int, seed: int = 0x0DB1,
                 chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES):
        if n_bytes < 1:
            raise ValueError(f"n_bytes must be >= 1, got {n_bytes}")
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.n_bytes = n_bytes
        self.seed = seed
        self.chunk_bytes = chunk_bytes
        self._digest: Optional[str] = None

    def digest(self) -> str:
        if self._digest is None:
            for __ in self.chunks():
                pass
        return self._digest

    def size(self) -> int:
        return self.n_bytes

    def _block(self, index: int) -> bytes:
        length = min(SYNTHETIC_BLOCK_BYTES,
                     self.n_bytes - index * SYNTHETIC_BLOCK_BYTES)
        rng = random.Random(self.seed ^ (index * self._GOLDEN))
        return rng.randbytes(length)

    def chunks(self) -> Iterator[bytes]:
        hasher = hashlib.sha256()
        pending: List[bytes] = []
        pending_len = 0
        n_blocks = -(-self.n_bytes // SYNTHETIC_BLOCK_BYTES)
        for index in range(n_blocks):
            block = self._block(index)
            hasher.update(block)
            pending.append(block)
            pending_len += len(block)
            if pending_len >= self.chunk_bytes:
                blob = b"".join(pending)
                for start in range(0, pending_len - pending_len
                                   % self.chunk_bytes, self.chunk_bytes):
                    yield blob[start:start + self.chunk_bytes]
                tail = blob[pending_len - pending_len % self.chunk_bytes:]
                pending = [tail] if tail else []
                pending_len = len(tail)
        if pending_len:
            yield b"".join(pending)
        self._digest = _digest_of(hasher)

    def describe(self) -> Dict[str, object]:
        return {"kind": "synthetic", "n_bytes": self.n_bytes,
                "seed": self.seed, "chunk_bytes": self.chunk_bytes}


class RegistryTraceSource:
    """A named :data:`repro.workloads.traces.TRACES` class as a source.

    The registry builders are monolithic NumPy generators, so each
    ``chunks()`` pass materialises the payload once and releases it when
    iteration ends — bounded by the trace size, not by the chunk size.
    Appropriate for the registry's usual sizes (KiB–MiB); use
    :class:`FileTraceSource`/:class:`SyntheticTraceSource` for streams
    that must never materialise.
    """

    def __init__(self, name: str, n_bytes: int, seed: int = 0x0DB1,
                 chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES):
        from .traces import TRACES  # NumPy-backed; import only when used

        if name not in TRACES:
            known = ", ".join(sorted(TRACES))
            raise KeyError(f"unknown trace {name!r}; known: {known}")
        if n_bytes < 1:
            raise ValueError(f"n_bytes must be >= 1, got {n_bytes}")
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.name = name
        self.n_bytes = n_bytes
        self.seed = seed
        self.chunk_bytes = chunk_bytes
        self._digest: Optional[str] = None

    def digest(self) -> str:
        if self._digest is None:
            for __ in self.chunks():
                pass
        return self._digest

    def size(self) -> int:
        return self.n_bytes

    def chunks(self) -> Iterator[bytes]:
        from .traces import trace_bytes

        payload = trace_bytes(self.name, self.n_bytes, seed=self.seed)
        self._digest = _digest_of(hashlib.sha256(payload))
        for start in range(0, len(payload), self.chunk_bytes):
            yield payload[start:start + self.chunk_bytes]

    def describe(self) -> Dict[str, object]:
        return {"kind": "registry", "name": self.name,
                "n_bytes": self.n_bytes, "seed": self.seed,
                "chunk_bytes": self.chunk_bytes}


def as_trace_source(value,
                    chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES):
    """Coerce bytes / path-like / TraceSource into a :class:`TraceSource`.

    ``bytes`` become a :class:`BytesTraceSource`, strings and path-likes
    a :class:`FileTraceSource`; anything already implementing the
    protocol passes through untouched.
    """
    if isinstance(value, (bytes, bytearray)):
        return BytesTraceSource(bytes(value), chunk_bytes=chunk_bytes)
    if isinstance(value, (str, os.PathLike)):
        return FileTraceSource(value, chunk_bytes=chunk_bytes)
    if (hasattr(value, "chunks") and hasattr(value, "digest")
            and hasattr(value, "size")):
        return value
    raise TypeError(
        f"cannot make a trace source from {type(value).__name__}; pass "
        "bytes, a file path, or a TraceSource")


def source_from_json(record: Dict[str, object]):
    """Rebuild a source from :meth:`TraceSource.describe` output.

    Returns ``None`` when the descriptor cannot be reconstructed in this
    environment (an in-memory ``bytes`` source, a file that no longer
    exists, a registry trace without NumPy, an unknown ``kind``) — the
    caller then loads the artifact render-only, exactly like a
    digest-only inline payload.  Raises ``ValueError`` naming the
    problem when *record* is not a JSON object or lacks a field its
    kind requires (``path``, ``n_bytes`` or ``name``).
    """
    if not isinstance(record, dict):
        raise ValueError(f"trace source descriptor must be a JSON object, "
                         f"got {type(record).__name__}")
    kind = record.get("kind")

    def required(name: str):
        if name not in record:
            raise ValueError(
                f"{kind} trace source descriptor lacks {name!r}")
        return record[name]

    chunk_bytes = int(record.get("chunk_bytes", DEFAULT_TRACE_CHUNK_BYTES))
    if kind == "file":
        path = str(required("path"))
        limit = record.get("limit")
        if not os.path.exists(path):
            return None
        try:
            return FileTraceSource(path, chunk_bytes=chunk_bytes,
                                   limit=None if limit is None
                                   else int(limit))
        except (OSError, ValueError):
            return None
    if kind == "synthetic":
        return SyntheticTraceSource(int(required("n_bytes")),
                                    seed=int(record.get("seed", 0x0DB1)),
                                    chunk_bytes=chunk_bytes)
    if kind == "registry":
        name, n_bytes = str(required("name")), int(required("n_bytes"))
        try:
            return RegistryTraceSource(name, n_bytes,
                                       seed=int(record.get("seed", 0x0DB1)),
                                       chunk_bytes=chunk_bytes)
        except (ImportError, KeyError):
            return None
    return None
