"""Persistent, concurrency-safe tier of the activity cache.

:class:`DiskActivityCache` subclasses
:class:`~repro.sim.experiments.ActivityCache` and keeps its in-memory
dict as the front tier: every :meth:`store` writes through to disk,
every successful disk read populates the memory tier, and the engine's
``key in cache`` / ``cache.get(key)`` protocol works unchanged — the
executors in :mod:`repro.sim.experiments` cannot tell the tiers apart.

On-disk layout
--------------

One JSON file per cache key, named ``sha256(key).json`` inside the cache
directory, containing the key itself (collision/corruption guard) and
the ``(kind, record)`` pair of the engine's one totals codec,
:func:`~repro.sim.experiments.totals_to_json` — the same records an
artifact's ``totals`` member holds::

    {"format": "repro.cache/1", "key": "...", "kind": "activity",
     "record": {"transitions": ..., "zeros": ..., "bursts": ...}}

That codec covers all four totals types (``activity``, ``replay``,
``fault`` and ``sso`` records), so this module has none of its own.

Concurrency
-----------

Writers are safe without locks: a store writes to a unique temporary
file in the cache directory and publishes it with :func:`os.replace`,
which is atomic on POSIX and Windows — a reader sees either the old
complete entry or the new complete entry, never a torn one.  Keys are
content-addressed (two writers racing on one key are writing the same
bytes by construction), so last-writer-wins is also correct.  The read
path takes no locks and never blocks on writers; entries that fail to
parse (foreign files, manual truncation) are treated as misses and
simply rewritten.

Graceful degradation
--------------------

A serving cache must survive a sick disk instead of killing the run:

* **write failures** (disk full, permissions, a vanished mount) do not
  raise — the first one downgrades the tier to *memory-only* (the
  in-process dict keeps serving; disk writes stop) and is counted;
* **corrupt entries** found on read are quarantined exactly once — the
  file is renamed to ``*.bad`` so it is never re-parsed, the read counts
  as a miss, and the next store rewrites a clean entry;
* :meth:`health` reports the whole picture (tier, degradation reason,
  write/read failures, quarantined entries) — the daemon exposes it via
  its ``health`` op.

Both behaviours preserve the repro's core invariant: a degraded run
re-encodes instead of serving bad bytes, so its results stay
bit-identical to a healthy run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Optional

from ..sim.experiments import ActivityCache, totals_from_json, totals_to_json

#: Identifier written into every cache entry file.
CACHE_FORMAT = "repro.cache/1"

#: Environment variable selecting the shared cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: The entry record codec is the engine's one totals codec, shared with
#: artifact ``totals`` (these names predate it).
encode_record = totals_to_json
decode_record = totals_from_json


# -- the disk tier -----------------------------------------------------------

class DiskActivityCache(ActivityCache):
    """An :class:`~repro.sim.experiments.ActivityCache` that persists.

    ``directory`` is created on first use.  The inherited dict is the
    in-process read tier; the directory is the shared source of truth.
    Pass the same directory to any number of concurrent processes (or
    machines over a shared filesystem) — see the module docstring for
    the guarantees.
    """

    def __init__(self, directory) -> None:
        super().__init__()
        self.directory = os.path.abspath(os.fspath(directory))
        self.write_failures = 0
        self.read_failures = 0
        self.quarantined = 0
        self._disk_disabled = False
        self._degraded_reason: Optional[str] = None
        self._unquarantinable: set = set()
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            self._degrade(error)

    def _degrade(self, error: OSError) -> None:
        """A disk write failed: drop to the memory-only tier, loudly counted."""
        self.write_failures += 1
        if not self._disk_disabled:
            self._disk_disabled = True
            self._degraded_reason = f"{type(error).__name__}: {error}"

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (once) so it is never re-parsed."""
        if path in self._unquarantinable:
            return
        try:
            os.replace(path, f"{path}.bad")
            self.quarantined += 1
        except OSError:
            # Can't rename (read-only dir?) — remember the path so the
            # corrupt file is counted and re-probed at most once.
            self._unquarantinable.add(path)
            self.read_failures += 1

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def _load(self, key: str):
        """Read one entry from disk into memory; ``None`` on any miss.

        A missing file is a plain miss.  An unreadable file counts as a
        read failure.  A file that exists but fails to parse, carries
        the wrong key, or decodes to garbage is *corrupt*: it is
        quarantined to ``*.bad`` and the read is a miss — the caller
        re-encodes and the next store publishes a clean entry.
        """
        if key in self._totals:
            return self._totals[key]
        path = self._path(key)
        try:
            handle = open(path, "r", encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self.read_failures += 1
            return None
        try:
            with handle:
                payload = json.load(handle)
        except OSError:
            self.read_failures += 1
            return None
        except (ValueError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key):
            self._quarantine(path)
            return None
        try:
            totals = totals_from_json(payload["kind"], payload["record"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        self._totals[key] = totals
        return totals

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def get(self, key: str):
        totals = self._load(key)
        if totals is None:
            raise KeyError(key)
        return totals

    def _publish(self, temp: str, path: str) -> None:
        """Atomically publish a complete temp file (seam for fault tests)."""
        os.replace(temp, path)

    def store(self, key: str, totals) -> None:
        kind, record = totals_to_json(totals)
        self._totals[key] = totals
        if self._disk_disabled:
            return  # degraded: memory-only tier keeps serving
        payload = {"format": CACHE_FORMAT, "key": key, "kind": kind,
                   "record": record}
        path = self._path(key)
        # Unique temp name per writer: atomic publish via os.replace.
        temp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            try:
                with open(temp, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                    handle.write("\n")
                self._publish(temp, path)
            except OSError as error:
                self._degrade(error)
        finally:
            try:
                if os.path.exists(temp):  # publish failed midway
                    os.unlink(temp)
            except OSError:
                pass

    def health(self) -> Dict[str, object]:
        """Degradation snapshot (also served by the daemon's ``health`` op)."""
        return {
            "tier": "memory-only" if self._disk_disabled else "disk",
            "degraded": self._disk_disabled,
            "degraded_reason": self._degraded_reason,
            "directory": self.directory,
            "memory_entries": len(self._totals),
            "write_failures": self.write_failures,
            "read_failures": self.read_failures,
            "quarantined": self.quarantined,
            "hits": self.hits,
            "misses": self.misses,
        }

    def _entry_files(self) -> Iterator[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return iter(())
        return (os.path.join(self.directory, name)
                for name in sorted(names) if name.endswith(".json"))

    def __len__(self) -> int:
        # Stores write through, so disk is a superset of memory.
        return sum(1 for __ in self._entry_files())

    def iter_keys(self) -> Iterator[str]:
        """Yield every persisted cache key (sorted by file name)."""
        for path in self._entry_files():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if (isinstance(payload, dict)
                        and payload.get("format") == CACHE_FORMAT):
                    yield str(payload["key"])
            except (OSError, ValueError, KeyError):
                continue

    def clear(self) -> None:
        for path in list(self._entry_files()):
            try:
                os.unlink(path)
            except OSError:
                pass
        super().clear()


# -- directory resolution ----------------------------------------------------

def resolve_cache_dir(explicit: Optional[str] = None) -> Optional[str]:
    """The cache directory to use: explicit flag, else ``REPRO_CACHE_DIR``.

    Returns ``None`` when neither is set (callers then keep the engine's
    default fresh in-memory cache).
    """
    if explicit:
        return os.fspath(explicit)
    return os.environ.get(CACHE_DIR_ENV) or None


def open_cache(cache_dir: Optional[str] = None
               ) -> Optional[DiskActivityCache]:
    """A :class:`DiskActivityCache` for the resolved directory, or ``None``."""
    resolved = resolve_cache_dir(cache_dir)
    if resolved is None:
        return None
    return DiskActivityCache(resolved)
