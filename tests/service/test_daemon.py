"""Query daemon: protocol, canonical equivalence to direct runs, errors.

The daemon under test runs in-process on an ephemeral port (``port=0``),
one per test class via fixtures; the smoke driver
(:mod:`repro.service.smoke`, exercised by CI) covers the
subprocess-spawned path.
"""

from __future__ import annotations

import json
import socket
import threading
import types

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    ExperimentDaemon,
    ExperimentService,
    _LineHandler,
    replay_spec_from_params,
    sweep_spec_from_params,
)
from repro.sim.experiments import (
    replay_result_to_json,
    result_to_json,
    run_experiment,
    run_replay,
    save_artifact,
)

SWEEP_PARAMS = {"figure": "alpha", "samples": 120, "points": 5, "seed": 42}
REPLAY_PARAMS = {"bursts": 60, "seed": 9, "channels": 2, "lanes": 2,
                 "interfaces": ["pod135", "lvstl11"]}


@pytest.fixture()
def daemon(tmp_path):
    instance = ExperimentDaemon(port=0, cache_dir=str(tmp_path / "cache"),
                                artifact_dir=str(tmp_path / "artifacts"))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    thread.join(timeout=10)


@pytest.fixture()
def client(daemon):
    host, port = daemon.address
    with ServiceClient(host, port, timeout=60) as connected:
        yield connected


class TestProtocol:
    def test_ping(self, client):
        response = client.ping()
        assert response["pong"] is True
        assert "version" in response

    def test_unknown_op(self, client):
        response = client.request({"op": "fridge"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_non_object_request(self, client):
        response = client.request({"op": "ping"})  # warm the connection
        assert response["ok"]
        raw = client._file
        raw.write(b"[1, 2, 3]\n")
        raw.flush()
        response = json.loads(raw.readline())
        assert response["ok"] is False

    def test_bad_json_line_keeps_connection_alive(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            error = json.loads(handle.readline())
            assert error["ok"] is False
            assert "bad request line" in error["error"]
            handle.write(b'{"op": "ping"}\n')
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True

    def test_blank_lines_ignored(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"\n\n{\"op\": \"ping\"}\n")
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True


class TestSweep:
    def test_matches_direct_run_canonically(self, client):
        artifact = client.sweep(**SWEEP_PARAMS)
        direct = result_to_json(
            run_experiment(sweep_spec_from_params(SWEEP_PARAMS)))
        assert (canonical_artifact_json(artifact)
                == canonical_artifact_json(direct))

    def test_warm_query_hits_disk_cache(self, client):
        cold = client.sweep(**SWEEP_PARAMS)
        assert cold["provenance"]["encodes"] > 0
        warm = client.sweep(**SWEEP_PARAMS)
        assert warm["provenance"]["encodes"] == 0
        assert (canonical_artifact_json(cold)
                == canonical_artifact_json(warm))
        stats = client.stats()
        assert stats["cache_entries"] > 0
        assert stats["served"]["sweep"] == 2

    def test_bad_figure_is_an_error_response(self, client):
        with pytest.raises(ServiceError, match="unknown figure"):
            client.sweep(figure="pie")

    def test_oversized_request_rejected(self, client):
        with pytest.raises(ServiceError, match="samples"):
            client.sweep(figure="alpha", samples=10_000_000)


class TestReplay:
    def test_matches_direct_run_canonically(self, client):
        artifact = client.replay(**REPLAY_PARAMS)
        direct = replay_result_to_json(
            run_replay(replay_spec_from_params(REPLAY_PARAMS)))
        assert (canonical_artifact_json(artifact)
                == canonical_artifact_json(direct))

    def test_payload_hex(self, client):
        payload = bytes(range(64)) * 8
        artifact = client.replay(payload_hex=payload.hex(), channels=2,
                                 lanes=2)
        assert artifact["kind"] == "replay"
        assert artifact["spec"]["payload"]["bytes"] == len(payload)


class TestArtifacts:
    def test_list_fetch_and_reject(self, daemon, client, tmp_path):
        assert client.artifacts() == []
        result = run_experiment(sweep_spec_from_params(SWEEP_PARAMS))
        (tmp_path / "artifacts").mkdir(exist_ok=True)
        save_artifact(result, tmp_path / "artifacts" / "fig.json")
        assert client.artifacts() == ["fig.json"]
        fetched = client.artifact("fig.json")
        assert (canonical_artifact_json(fetched)
                == canonical_artifact_json(result_to_json(result)))
        with pytest.raises(ServiceError, match="unknown artifact"):
            client.artifact("missing.json")
        with pytest.raises(ServiceError, match="unknown artifact"):
            client.artifact("../secrets.json")

    def test_without_artifact_dir(self):
        daemon = ExperimentDaemon(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = daemon.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="artifact-dir"):
                    client.artifacts()
        finally:
            daemon.shutdown()
            thread.join(timeout=10)


class TestErrorPaths:
    def test_replay_burst_budget_enforced(self, client):
        with pytest.raises(ServiceError, match="bursts"):
            client.replay(bursts=10_000_000)

    def test_malformed_then_valid_requests_interleave(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            for garbage in (b"{truncated\n", b'"just a string"\n',
                            b"[]\n"):
                handle.write(garbage)
                handle.flush()
                assert json.loads(handle.readline())["ok"] is False
            handle.write(b'{"op": "ping"}\n')
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True

    def test_client_disconnect_mid_response_daemon_survives(self, daemon):
        host, port = daemon.address
        # Send a sweep request and slam the connection shut without
        # reading the (large) response; the daemon must shrug it off.
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(json.dumps({"op": "sweep", **SWEEP_PARAMS})
                         .encode("utf-8") + b"\n")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST
        # A fresh client still gets full service.
        with ServiceClient(host, port, timeout=60) as client:
            assert client.ping()["pong"] is True
            artifact = client.sweep(**SWEEP_PARAMS)
            assert artifact["provenance"]["grid_cells"] > 0

    def test_health_op(self, client):
        health = client.health()
        assert health["cache"]["tier"] == "disk"
        assert health["cache"]["degraded"] is False
        assert health["busy_rejections"] == 0
        assert health["uptime_s"] >= 0
        assert "served" in health


class TestServingLimits:
    def test_request_timeout_drops_idle_connections(self, tmp_path):
        daemon = ExperimentDaemon(port=0, request_timeout=0.3)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = daemon.address
            with socket.create_connection((host, port), timeout=30) as sock:
                handle = sock.makefile("rwb")
                # Say nothing: the daemon's deadline closes the stream.
                assert handle.readline() == b""
            # Prompt clients are unaffected.
            with ServiceClient(host, port) as client:
                assert client.ping()["pong"] is True
        finally:
            daemon.shutdown()
            thread.join(timeout=10)

    def test_connection_limit_sends_retryable_busy(self):
        daemon = ExperimentDaemon(port=0, max_connections=1)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = daemon.address
            with socket.create_connection((host, port), timeout=30):
                with socket.create_connection((host, port),
                                              timeout=30) as second:
                    line = second.makefile("rb").readline()
                    busy = json.loads(line)
                    assert busy["ok"] is False
                    assert busy["retryable"] is True
            with ServiceClient(host, port) as client:
                health = client.health()
                assert health["busy_rejections"] == 1
        finally:
            daemon.shutdown()
            thread.join(timeout=10)

    def test_closed_connection_frees_its_slot_for_the_next(self):
        """A client that connects right after another has closed is
        served, not refused: the closed connection's handler frees its
        slot within the daemon's busy grace."""
        daemon = ExperimentDaemon(port=0, max_connections=1)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = daemon.address
            answers = []
            for __ in range(300):
                with socket.create_connection((host, port),
                                              timeout=30) as sock:
                    sock.sendall(b'{"op": "ping"}\n')
                    answers.append(json.loads(sock.makefile("rb").readline()))
            assert [answer for answer in answers if not answer["ok"]] == []
            assert daemon.service.busy_rejections == 0
        finally:
            daemon.shutdown()
            thread.join(timeout=10)


class TestConcurrentClients:
    def test_interleaved_sweep_and_stats(self, daemon):
        host, port = daemon.address
        failures = []

        def sweeper():
            try:
                with ServiceClient(host, port, timeout=120) as client:
                    artifact = client.sweep(**SWEEP_PARAMS)
                    assert artifact["provenance"]["grid_cells"] > 0
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        def poller():
            try:
                with ServiceClient(host, port, timeout=120) as client:
                    for __ in range(10):
                        stats = client.stats()
                        assert "served" in stats
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=sweeper),
                   threading.Thread(target=poller)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert failures == []

    def test_parallel_queries_consistent(self, daemon):
        host, port = daemon.address
        outputs = []
        lock = threading.Lock()

        def query():
            with ServiceClient(host, port, timeout=120) as client:
                artifact = client.sweep(**SWEEP_PARAMS)
                with lock:
                    outputs.append(canonical_artifact_json(artifact))

        threads = [threading.Thread(target=query) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outputs) == 4
        assert len(set(outputs)) == 1


class _RecordingFile:
    def __init__(self) -> None:
        self.writes = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class TestAnswerFraming:
    """An answer split over two writes waits ~40 ms per request for the
    peer's delayed ACK of the first."""

    def test_one_write_per_answer(self):
        handler = _LineHandler.__new__(_LineHandler)
        handler.wfile = recorder = _RecordingFile()
        assert handler._send({"ok": True, "pong": True})
        (line,) = recorder.writes
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == {"ok": True, "pong": True}

    def test_connections_disable_nagle(self):
        """A large answer's last segment must not wait for an ACK."""
        server = types.SimpleNamespace(service=ExperimentService())
        listener = socket.create_server(("127.0.0.1", 0))
        with listener, socket.create_connection(
                listener.getsockname()) as peer:
            connection, address = listener.accept()
            with connection:
                peer.shutdown(socket.SHUT_WR)  # the handler sees EOF
                _LineHandler(connection, address, server)
                assert connection.getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY)


class TestRequestBounds:
    def test_nan_load_capacitance_is_refused(self):
        """NaN used to slip past ``<= 0`` and come back as a NaN series
        with ``ok: true``."""
        response = ExperimentService().handle(
            {"op": "sweep", "figure": "rate", "samples": 50, "max_gbps": 1,
             "c_load_pf": float("nan")})
        assert response["ok"] is False
        assert "finite" in response["error"]

    def test_oversized_load_grid_is_refused(self, monkeypatch):
        """One request line cannot ask for more than MAX_GRID_CELLS
        cells, and is refused before any grid point is built."""
        from repro.service import daemon as daemon_module

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for an oversized request")

        monkeypatch.setattr("repro.sim.experiments.load_experiment", no_grid)
        loads = 1 + daemon_module.MAX_GRID_CELLS // 2
        response = ExperimentService().handle(
            {"op": "sweep", "figure": "load", "samples": 50, "max_gbps": 1,
             "loads_pf": [3.0] * loads})
        assert response["ok"] is False
        assert "grid cells" in response["error"]

    def test_grid_at_the_cap_is_served(self, monkeypatch):
        from repro.service import daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_GRID_CELLS", 8)
        params = {"figure": "load", "samples": 10, "max_gbps": 2}
        spec = sweep_spec_from_params({**params, "loads_pf": [1.0, 3.0]})
        assert len(spec.grid) == 8
        with pytest.raises(ValueError, match="grid cells"):
            sweep_spec_from_params({**params, "loads_pf": [1.0, 2.0, 3.0]})


class TestRequestTypes:
    @pytest.mark.parametrize("request_, name", [
        ({"op": "sweep", "samples": True}, "samples"),
        ({"op": "sweep", "samples": 2.7}, "samples"),
        ({"op": "sweep", "figure": "alpha", "points": 9.5}, "points"),
        ({"op": "sweep", "seed": -1}, "seed"),
        ({"op": "sweep", "figure": "load", "loads_pf": 3}, "loads_pf"),
        ({"op": "sweep", "figure": "load", "loads_pf": []}, "loads_pf"),
        ({"op": "sweep", "figure": "rate", "interface": "lvstl11"},
         "interface"),
        ({"op": "replay", "interfaces": "pod135"}, "interfaces"),
        ({"op": "replay", "interfaces": ["pod135", "ecl"]}, "interfaces"),
        ({"op": "replay", "bursts": 2.5}, "bursts"),
        ({"op": "replay", "channels": True}, "channels"),
        ({"op": "replay", "seed": -1}, "seed"),
        ({"op": "replay", "payload_hex": 12}, "payload_hex"),
        ({"op": "replay", "bursts": 10, "data_rate_gbps": True},
         "data_rate_gbps"),
        ({"op": "replay", "data_rate_gbps": -1}, "data_rate_gbps"),
        ({"op": "replay", "c_load_pf": "3"}, "c_load_pf"),
        ({"op": "replay", "c_load_pf": float("inf")}, "c_load_pf"),
        ({"op": "sweep", "figure": "rate", "c_load_pf": "3"}, "c_load_pf"),
        ({"op": "sweep", "figure": "rate", "c_load_pf": 10 ** 400},
         "c_load_pf"),
        ({"op": "sweep", "figure": "load", "loads_pf": [1, "x"]},
         "loads_pf"),
        ({"op": "sweep", "figure": "load", "loads_pf": [1, 0]}, "loads_pf"),
        ({"op": "replay", "payload_hex": "zz"}, "payload_hex"),
        ({"op": "replay", "payload_hex": "0"}, "payload_hex"),
    ])
    def test_bad_parameter_is_refused_by_name(self, request_, name):
        """Each of these used to run (booleans, fractions, numeric
        strings) or answer a bare error from deep inside that did not
        name the parameter."""
        response = ExperimentService().handle(request_)
        assert response["ok"] is False
        assert name in response["error"]

    def test_integral_float_is_an_integer(self):
        response = ExperimentService().handle(
            {"op": "sweep", "figure": "alpha", "samples": 40.0,
             "points": 3.0})
        assert response["ok"] is True
        assert response["artifact"]["provenance"]["population_bursts"] == 40

    @pytest.mark.parametrize("limits", [
        {"request_timeout": -1.0}, {"request_timeout": 0},
        {"request_timeout": float("nan")}, {"request_timeout": float("inf")},
        {"max_connections": -1},
    ])
    def test_daemon_limits_are_checked_at_construction(self, limits):
        """A bad timeout used to start a daemon whose every connection
        failed with an empty reply."""
        with pytest.raises(ValueError, match=next(iter(limits))):
            ExperimentDaemon(port=0, **limits)
