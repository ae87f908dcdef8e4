"""Deterministic chaos harness for the service stack.

Fault injection for *infrastructure* with the same discipline the repro
applies to fault injection for *data*
(:mod:`repro.extensions.reliability`): every failure is drawn from a
seeded, self-describing :class:`FaultPlan`, so a chaos run is
reproducible byte-for-byte and a differential test can assert the
invariant that matters — under any planned fault schedule the final
result is either **bit-identical** to the fault-free run or a loud,
typed error, never silent corruption.

Two injectors consume a plan:

* :class:`FaultyCache` wraps any
  :class:`~repro.sim.experiments.ActivityCache` and injects cache-layer
  faults (``oserror`` write failures, ``torn`` lost publishes,
  ``corrupt`` on-disk garbage, ``stale`` spurious misses) at planned
  operation indices;
* :class:`FlakyProxy` sits between a client and the daemon and injects
  transport faults (``reset``, ``partial`` response lines, ``stall``).
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..sim.experiments import ActivityCache
from .diskcache import DiskActivityCache

#: Fault kinds :class:`FaultyCache` can inject.
CACHE_FAULTS = ("oserror", "torn", "corrupt", "stale")

#: Fault kinds :class:`FlakyProxy` can inject.
PROXY_FAULTS = ("reset", "partial", "stall")


class FaultPlan:
    """A seeded, immutable schedule mapping operation index → fault kind.

    The plan is the single source of chaos: injectors ask
    :meth:`fault_at` with their running operation counter and fire
    whatever the schedule says.  Two plans built from the same seed (or
    the same explicit schedule) drive byte-identical chaos runs.
    """

    def __init__(self, schedule: Mapping[int, str],
                 label: str = "explicit") -> None:
        self.schedule: Dict[int, str] = {int(index): str(kind)
                                         for index, kind in schedule.items()}
        self.label = label

    @classmethod
    def seeded(cls, seed: int, kinds: Sequence[str] = CACHE_FAULTS,
               horizon: int = 64, rate: float = 0.2) -> "FaultPlan":
        """A reproducible random schedule over ``range(horizon)``.

        Each index independently faults with probability *rate*, drawing
        its kind uniformly from *kinds*; beyond the horizon the plan is
        clean, so any bounded retry budget eventually wins.
        """
        if not kinds:
            raise ValueError("need at least one fault kind")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        rng = random.Random(f"faultplan:{seed}")
        schedule = {}
        for index in range(horizon):
            if rng.random() < rate:
                schedule[index] = kinds[rng.randrange(len(kinds))]
        return cls(schedule,
                   label=f"seeded(seed={seed},rate={rate},horizon={horizon})")

    def fault_at(self, index: int) -> Optional[str]:
        return self.schedule.get(index)

    def __len__(self) -> int:
        return len(self.schedule)

    def describe(self) -> str:
        """Canonical JSON of the schedule (for provenance / debugging)."""
        return json.dumps({"label": self.label,
                           "schedule": {str(index): kind for index, kind
                                        in sorted(self.schedule.items())}},
                          sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.label}, {len(self.schedule)} faults)"


class FaultyCache(ActivityCache):
    """Wrap any :class:`~repro.sim.experiments.ActivityCache` with chaos.

    Every lookup (``key in cache``) and every :meth:`store` consumes one
    operation index from the plan, in call order; :meth:`get` is free so
    the engine's store-then-price sequence stays usable mid-chaos.  The
    injected faults:

    ``oserror``
        :meth:`store` raises :class:`OSError` (disk full) — nothing is
        persisted; the caller (e.g. a retried run) must recover.
    ``torn``
        the store is silently lost, as if the process died between the
        temp write and the atomic publish; over a disk inner tier a
        realistic orphaned ``*.chaos.tmp`` file is left behind.
    ``corrupt``
        the store succeeds, then the published on-disk entry is garbled
        — the running process keeps its memory tier, but any *fresh*
        reader of the directory must quarantine the entry and re-encode.
    ``stale``
        the lookup reports a miss even when the entry exists, forcing a
        (bit-identical) re-encode.

    ``injected`` counts what actually fired, per kind.
    """

    def __init__(self, inner: ActivityCache, plan: FaultPlan) -> None:
        super().__init__()
        self.inner = inner
        self.plan = plan
        self.calls = 0
        self.injected: Dict[str, int] = {}

    def _tick(self) -> Optional[str]:
        kind = self.plan.fault_at(self.calls)
        self.calls += 1
        return kind

    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def __contains__(self, key: str) -> bool:
        if self._tick() == "stale":
            self._record("stale")
            return False
        return key in self.inner

    def get(self, key: str):
        return self.inner.get(key)

    def store(self, key: str, totals) -> None:
        kind = self._tick()
        if kind == "oserror":
            self._record("oserror")
            raise OSError(28, "injected fault: no space left on device")
        if kind == "torn":
            # The publish is lost but the writing process keeps its
            # memory-tier copy — exactly what dying between the temp
            # write and os.replace looks like.  Only fresh readers of
            # the directory see the miss.
            self._record("torn")
            if isinstance(self.inner, DiskActivityCache):
                self.inner._totals[key] = totals
                torn = f"{self.inner._path(key)}.{os.getpid()}.chaos.tmp"
                try:
                    with open(torn, "w", encoding="utf-8") as handle:
                        handle.write('{"format": "repro.cache/1", "key"')
                except OSError:
                    pass
            else:
                self.inner.store(key, totals)
            return
        self.inner.store(key, totals)
        if kind == "corrupt":
            self._record("corrupt")
            if isinstance(self.inner, DiskActivityCache):
                try:
                    with open(self.inner._path(key), "w",
                              encoding="utf-8") as handle:
                        handle.write('{"format": "repro.cache/1", "corrupt')
                except OSError:
                    pass

    def __len__(self) -> int:
        return len(self.inner)

    def clear(self) -> None:
        self.inner.clear()
        super().clear()

    def health(self) -> Dict[str, object]:
        snapshot = (self.inner.health() if hasattr(self.inner, "health")
                    else {})
        snapshot = dict(snapshot)
        snapshot["injected_faults"] = dict(self.injected)
        snapshot["fault_plan"] = self.plan.label
        return snapshot


class FlakyProxy:
    """A TCP proxy injecting planned transport faults in front of a daemon.

    Relays JSON-lines exchanges (one request line in, one response line
    out) between clients and ``upstream``; each exchange consumes one
    plan index, shared across connections in arrival order:

    ``reset``
        the connection is closed before the request reaches the daemon
        (the client sees EOF — a clean idempotent-retry case);
    ``partial``
        only the first half of the response line is delivered, then the
        connection closes — the client must treat the torn line as a
        broken connection and resync, never parse it;
    ``stall``
        the response is withheld for ``stall_s`` seconds (longer than a
        sensible client timeout), then the connection closes.

    After any fault the connection dies; a retrying client reconnects
    and the next exchange draws the next plan index.
    """

    def __init__(self, upstream: Tuple[str, int], plan: FaultPlan,
                 host: str = "127.0.0.1", port: int = 0,
                 stall_s: float = 1.0) -> None:
        self.upstream = upstream
        self.plan = plan
        self.stall_s = stall_s
        self.exchanges = 0
        self.injected: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._listener.settimeout(0.2)
        self._threads: list = []
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    def start(self) -> Tuple[str, int]:
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()
        return self.address

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(client,),
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _next_fault(self) -> Optional[str]:
        with self._lock:
            kind = self.plan.fault_at(self.exchanges)
            self.exchanges += 1
            if kind is not None:
                self.injected[kind] = self.injected.get(kind, 0) + 1
        return kind

    def _serve(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=30)
        except OSError:
            client.close()
            return
        client_file = client.makefile("rwb")
        upstream_file = upstream.makefile("rwb")
        try:
            while not self._stop.is_set():
                request = client_file.readline()
                if not request:
                    return
                kind = self._next_fault()
                if kind == "reset":
                    return  # drop the connection before the daemon sees it
                upstream_file.write(request)
                upstream_file.flush()
                response = upstream_file.readline()
                if not response:
                    return
                if kind == "partial":
                    client_file.write(response[:max(1, len(response) // 2)])
                    client_file.flush()
                    return
                if kind == "stall":
                    time.sleep(self.stall_s)
                    return
                client_file.write(response)
                client_file.flush()
        except OSError:
            return
        finally:
            for closeable in (client_file, upstream_file, client, upstream):
                try:
                    closeable.close()
                except OSError:
                    pass

    def __enter__(self) -> "FlakyProxy":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
