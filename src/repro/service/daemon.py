"""Long-running query daemon over the experiment engine.

One process loads (or creates) a :class:`~repro.service.diskcache.
DiskActivityCache` and answers queries from any number of clients, so
interactive sessions and CI pipelines stop re-paying Python startup and
cold encodes per invocation.  Transport is deliberately minimal — a
stdlib :class:`socketserver.ThreadingTCPServer` speaking **JSON lines**
(one request object per line, one response object per line, UTF-8) — so
``nc``/``socat`` work as clients and nothing new is installed.

Operations (the ``op`` field of a request):

``ping``
    liveness + version.
``stats``
    cache entry/hit/miss counters, per-op served counts, uptime.
``sweep``
    build a figure spec (``figure`` = ``alpha``/``rate``/``load`` with
    the CLI's parameters) with ``repro sweep-*``'s builder and defaults
    and run it through the shared cache; the response's ``artifact``
    member is exactly :func:`repro.sim.experiments.result_to_json`
    output — canonically identical (modulo run-volatile provenance) to
    ``repro sweep-* --out`` with the same parameters.
``replay``
    run a controller replay (synthetic ``bursts``/``seed`` payload or an
    explicit ``payload_hex``) and return the ``kind="replay"`` artifact.
``artifact``
    list the daemon's artifact directory, or fetch one stored artifact
    by name.
``health``
    degradation snapshot: the cache tier's :meth:`~repro.service.
    diskcache.DiskActivityCache.health` report (memory-only downgrade,
    write failures, quarantined entries), served counters, busy
    rejections, and the configured limits.

Every response carries ``ok``; failures carry ``error`` and never kill
the connection (bad JSON included), so a client can stream requests.
A parameter of the wrong type or range is refused, by name, before
anything is built.
Responses that are safe to retry (the *busy* rejection below) also
carry ``retryable: true`` — the client's retry policy keys off it.

Serving limits: ``request_timeout`` bounds every socket read/write (a
stalled or half-dead client cannot pin a handler thread forever; the
compute itself is bounded by ``MAX_QUERY_SAMPLES`` and
``MAX_GRID_CELLS``), and ``max_connections`` bounds concurrent
connections — a connection that finds no slot free within
``BUSY_GRACE_S`` gets one ``busy`` line and is closed, rather than
growing the thread count without limit.  A client that disconnects
mid-response costs the daemon nothing but the dropped handler.
:func:`sweep_spec_from_params` and :func:`replay_spec_from_params` are
module-level so tests and the smoke driver build *identical* specs for
direct-versus-daemon comparisons.
"""

from __future__ import annotations

import json
import math
import os
import socketserver
import threading
import time
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..phy.interface import available_interfaces
from ..phy.power import GBPS, PICOFARAD
from ..sim.experiments import (
    FIGURE_DEFAULTS,
    REPLAY_DEFAULTS,
    ActivityCache,
    ExperimentSpec,
    ReplaySpec,
    figure_experiment,
    interface_replay_experiment,
    replay_result_to_json,
    result_to_json,
    run_experiment,
    run_replay,
)
from ..workloads.population import RandomPopulation
from .diskcache import DiskActivityCache

#: Hard cap on synthetic population / payload sizes a query may request
#: (a serving daemon should not be OOM-able by one client line).
MAX_QUERY_SAMPLES = 1_000_000

#: Hard cap on a ``sweep`` grid's cells (loads × rates for Fig. 8), for
#: the same reason: the default six loads at the 1000 Gbps rate cap fit.
MAX_GRID_CELLS = 20_000

#: Seconds a new connection waits for a free slot before it is refused
#: as busy.  A client that has just closed frees its slot only when its
#: handler thread reads EOF, which takes far less than this.
BUSY_GRACE_S = 0.05


def _int_param(params: Mapping[str, object], name: str, minimum: int = 1,
               maximum: float = math.inf) -> int:
    """``params[name]``: an integer (not a boolean) within the bounds."""
    value = params[name]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(f"{name} must be in [{minimum}, {maximum}], "
                         f"got {value}")
    return value


def _float_param(name: str, value: object) -> float:
    """*value* as a float: a real number (not a boolean or a string),
    finite and > 0; the error names the parameter *name*."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and number > 0:
            return number
    raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _list_param(params: Mapping[str, object], name: str,
                choices: Sequence[str] = ()) -> list:
    """``params[name]``: a non-empty list, of *choices* when given."""
    value = params[name]
    if (not isinstance(value, (list, tuple)) or not value
            or choices and any(item not in choices for item in value)):
        raise ValueError(f"{name} must be a non-empty list"
                         + (f" of {list(choices)}" if choices else "")
                         + f", got {value!r}")
    return list(value)


def sweep_spec_from_params(params: Mapping[str, object]) -> ExperimentSpec:
    """The figure spec a ``sweep`` request describes (CLI parameter
    names): its parameters checked and capped, then ``repro sweep-*``'s
    builder (which checks ``figure`` and ``interface``)."""
    params = {**FIGURE_DEFAULTS, **params}
    figure = params.get("figure", "alpha")
    checked = {"samples": _int_param(params, "samples",
                                     maximum=MAX_QUERY_SAMPLES),
               "seed": _int_param(params, "seed", minimum=0)}
    if figure == "alpha":
        checked["points"] = _int_param(params, "points", minimum=2,
                                       maximum=10_000)
    else:
        rates = 2 * _int_param(params, "max_gbps", maximum=1000)
        if figure != "load":
            checked["c_load_pf"] = _float_param("c_load_pf",
                                                params["c_load_pf"])
        else:
            loads = _list_param(params, "loads_pf")
            if len(loads) * rates > MAX_GRID_CELLS:
                raise ValueError(f"{len(loads)} loads x {rates} rates "
                                 f"exceeds {MAX_GRID_CELLS} grid cells")
            checked["loads_pf"] = [_float_param("loads_pf", load)
                                   for load in loads]
    return figure_experiment(figure, {**params, **checked})


def replay_spec_from_params(params: Mapping[str, object]) -> ReplaySpec:
    """The replay spec a ``replay`` request describes, every parameter
    checked before the payload is built."""
    params = {**REPLAY_DEFAULTS, **params}
    link = dict(
        interfaces=tuple(_list_param(params, "interfaces",
                                     available_interfaces())),
        data_rate_hz=_float_param("data_rate_gbps",
                                  params["data_rate_gbps"]) * GBPS,
        c_load_farads=_float_param("c_load_pf",
                                   params["c_load_pf"]) * PICOFARAD,
        channels=_int_param(params, "channels", maximum=1024),
        byte_lanes=_int_param(params, "lanes", maximum=1024),
        window=_int_param(params, "window", maximum=65536),
        line_bytes=_int_param(params, "line_bytes", maximum=65536))
    payload_hex = params.get("payload_hex")
    if payload_hex is not None:
        if not isinstance(payload_hex, str):
            raise ValueError(f"payload_hex must be a string, got "
                             f"{type(payload_hex).__name__}")
        if len(payload_hex) > 2 * MAX_QUERY_SAMPLES:
            raise ValueError("payload_hex too large")
        try:
            payload = bytes.fromhex(payload_hex)
        except ValueError as error:
            raise ValueError(f"payload_hex must be pairs of hex digits: "
                             f"{error}") from None
        if not payload:
            raise ValueError("payload_hex decodes to an empty payload")
    else:
        payload = RandomPopulation(
            count=_int_param(params, "bursts", maximum=MAX_QUERY_SAMPLES),
            seed=_int_param(params, "seed", minimum=0)).to_bytes()
    return interface_replay_experiment(payload, name="service-replay",
                                       **link)


class ExperimentService:
    """Transport-independent request handler (one per daemon).

    Holds the shared cache and artifact directory; :meth:`handle` maps
    one request dict to one response dict and never raises — errors
    become ``{"ok": false, "error": ...}`` responses.
    """

    def __init__(self, cache: Optional[ActivityCache] = None,
                 artifact_dir: Optional[str] = None,
                 backend: Optional[str] = None,
                 request_timeout: Optional[float] = None,
                 max_connections: Optional[int] = None) -> None:
        self.cache = cache if cache is not None else ActivityCache()
        self.artifact_dir = (os.path.abspath(artifact_dir)
                             if artifact_dir else None)
        self.backend = backend
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.started = time.time()
        # Uptime is measured on the monotonic clock — a wall-clock step
        # (NTP, DST) must not warp it.
        self._started_monotonic = time.monotonic()
        self.served: Dict[str, int] = {}
        self.busy_rejections = 0
        self._lock = threading.Lock()

    def note_busy_rejection(self) -> None:
        with self._lock:
            self.busy_rejections += 1

    # -- ops -----------------------------------------------------------------

    def _op_ping(self, params: Mapping[str, object]) -> Dict[str, object]:
        del params
        from .. import __version__

        return {"ok": True, "pong": True, "version": __version__}

    def _op_stats(self, params: Mapping[str, object]) -> Dict[str, object]:
        del params
        cache_dir = (self.cache.directory
                     if isinstance(self.cache, DiskActivityCache) else None)
        with self._lock:
            served = dict(self.served)
        return {
            "ok": True,
            "stats": {
                "cache_entries": len(self.cache),
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_dir": cache_dir,
                "artifact_dir": self.artifact_dir,
                "served": served,
                "uptime_s": time.monotonic() - self._started_monotonic,
            },
        }

    def _op_health(self, params: Mapping[str, object]) -> Dict[str, object]:
        del params
        cache_health = (self.cache.health()
                        if hasattr(self.cache, "health")
                        else {"tier": type(self.cache).__name__,
                              "degraded": False})
        with self._lock:
            served = dict(self.served)
            busy = self.busy_rejections
        return {
            "ok": True,
            "health": {
                "cache": cache_health,
                "served": served,
                "busy_rejections": busy,
                "request_timeout_s": self.request_timeout,
                "max_connections": self.max_connections,
                "uptime_s": time.monotonic() - self._started_monotonic,
            },
        }

    def _op_sweep(self, params: Mapping[str, object]) -> Dict[str, object]:
        spec = sweep_spec_from_params(params)
        result = run_experiment(spec, backend=self.backend, cache=self.cache)
        return {"ok": True, "artifact": result_to_json(result)}

    def _op_replay(self, params: Mapping[str, object]) -> Dict[str, object]:
        spec = replay_spec_from_params(params)
        result = run_replay(spec, backend=self.backend, cache=self.cache)
        return {"ok": True, "artifact": replay_result_to_json(result)}

    def _artifact_names(self):
        if self.artifact_dir is None or not os.path.isdir(self.artifact_dir):
            return []
        return sorted(name for name in os.listdir(self.artifact_dir)
                      if name.endswith(".json"))

    def _op_artifact(self, params: Mapping[str, object]) -> Dict[str, object]:
        if self.artifact_dir is None:
            return {"ok": False,
                    "error": "daemon started without --artifact-dir"}
        name = params.get("name")
        if name is None:
            return {"ok": True, "artifacts": self._artifact_names()}
        name = str(name)
        if name != os.path.basename(name) or name not in self._artifact_names():
            return {"ok": False,
                    "error": f"unknown artifact {name!r} (try op=artifact "
                             "with no name to list)"}
        with open(os.path.join(self.artifact_dir, name), "r",
                  encoding="utf-8") as handle:
            return {"ok": True, "name": name, "artifact": json.load(handle)}

    _OPS = {"ping": _op_ping, "stats": _op_stats, "sweep": _op_sweep,
            "replay": _op_replay, "artifact": _op_artifact,
            "health": _op_health}

    def handle(self, request: object) -> Dict[str, object]:
        if not isinstance(request, dict):
            return {"ok": False,
                    "error": "request must be a JSON object with an 'op'"}
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {"ok": False,
                    "error": f"unknown op {op!r}; known: "
                             f"{sorted(self._OPS)}"}
        with self._lock:
            self.served[op] = self.served.get(op, 0) + 1
        try:
            return handler(self, request)
        except Exception as error:  # serve errors, don't die on them
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}


class _LineHandler(socketserver.StreamRequestHandler):
    """One JSON-lines connection; requests stream until the client closes.

    The per-connection socket deadline (``request_timeout``) bounds
    every read and write; a deadline hit or a client that vanishes
    mid-response simply ends this connection — never the daemon.

    Each answer leaves in one write, and Nagle's algorithm is off, so no
    part of an answer waits for the peer's delayed ACK of the part
    before it (~40 ms per request for a newline sent on its own).
    """

    disable_nagle_algorithm = True

    def setup(self) -> None:
        timeout = getattr(self.server, "request_timeout", None)
        if timeout is not None:
            self.timeout = timeout  # applied to the socket by super()
        super().setup()

    def _send(self, response: Dict[str, object]) -> bool:
        line = json.dumps(response, separators=(",", ":")).encode("utf-8")
        try:
            self.wfile.write(line + b"\n")
            self.wfile.flush()
            return True
        except OSError:  # client gone / stalled past the deadline
            return False

    def handle(self) -> None:
        service: ExperimentService = self.server.service  # type: ignore
        slots = getattr(self.server, "connection_slots", None)
        if slots is not None and not slots.acquire(timeout=BUSY_GRACE_S):
            service.note_busy_rejection()
            self._send({"ok": False, "retryable": True,
                        "error": "busy: connection limit reached, "
                                 "retry later"})
            return
        try:
            while True:
                try:
                    raw = self.rfile.readline()
                except OSError:  # deadline exceeded or connection reset
                    return
                if not raw:
                    return
                line = raw.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError) as error:
                    response = {"ok": False,
                                "error": f"bad request line: {error}"}
                else:
                    response = service.handle(request)
                if not self._send(response):
                    return  # client disconnected mid-response
        finally:
            if slots is not None:
                slots.release()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    #: Per-connection socket deadline in seconds (None = unbounded).
    request_timeout: Optional[float] = None
    #: Semaphore bounding concurrent connections (None = unbounded).
    connection_slots = None


class ExperimentDaemon:
    """Bind-and-serve wrapper around :class:`ExperimentService`.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`address` (the ``repro serve`` CLI prints it, so scripts can
    parse the listening line).  :meth:`serve_forever` blocks;
    tests/embedders run it on a thread and call :meth:`shutdown`.
    """

    #: Default bound on concurrent connections (0/None = unbounded).
    DEFAULT_MAX_CONNECTIONS = 64

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[str] = None,
                 artifact_dir: Optional[str] = None,
                 backend: Optional[str] = None,
                 request_timeout: Optional[float] = None,
                 max_connections: Optional[int] = DEFAULT_MAX_CONNECTIONS
                 ) -> None:
        if request_timeout is not None and not (
                0 < request_timeout < math.inf):
            raise ValueError(f"request_timeout must be finite and > 0, got "
                             f"{request_timeout}")
        if (max_connections or 0) < 0:
            raise ValueError(f"max_connections must be >= 0, got "
                             f"{max_connections}")
        cache = (DiskActivityCache(cache_dir) if cache_dir
                 else ActivityCache())
        max_connections = max_connections or None
        self.service = ExperimentService(cache=cache,
                                         artifact_dir=artifact_dir,
                                         backend=backend,
                                         request_timeout=request_timeout,
                                         max_connections=max_connections)
        self._server = _Server((host, port), _LineHandler)
        self._server.service = self.service  # type: ignore[attr-defined]
        self._server.request_timeout = request_timeout
        self._server.connection_slots = (
            threading.BoundedSemaphore(max_connections)
            if max_connections else None)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
