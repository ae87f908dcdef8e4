"""``service-mixed``: two closed-loop clients against one ``repro serve``.

Set-up spawns a daemon with a fresh ``--cache-dir`` and pre-warms it
with the workload's warm requests; it is repeated ``SETUPS`` times and
the last daemon serves the measured loop.  Each client holds one
connection and sends its next request only after the previous answer
arrived.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

import calib
import env
import inputs
from outcome import Outcome

SETUPS = 3
#: Requests per client in each phase of the traced run.
TRACED_REQUESTS = 120
#: Distinct cold requests whose answers are checked against a direct run.
COLD_SAMPLES = 2

LISTENING_RE = re.compile(rb"listening on (\S+):(\d+)")


class Daemon:
    """A ``repro serve`` process (or the traced launcher) on a free port."""

    def __init__(self, tmp: str, index: int, traced: bool = False) -> None:
        # The client's import must not run inside the first set-up time.
        from repro.service.client import ServiceClient

        self.client_class = ServiceClient
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--cache-dir", os.path.join(tmp, f"cache-{index}")]
        self.spans_path = os.path.join(tmp, f"serve-{index}.spans.json")
        args = ([os.path.join(env.HERE, "serve_child.py"), self.spans_path,
                 "--", *serve] if traced else ["-m", "repro", *serve])
        self.child = env.Child(env.python_argv(*args),
                               stdout=subprocess.PIPE)
        timer = threading.Timer(60.0, self.child.process.kill)
        timer.start()
        try:
            line = self.child.process.stdout.readline()
        finally:
            timer.cancel()
        match = LISTENING_RE.search(line)
        if match is None:
            self.child.process.kill()
            self.child.wait(30.0)
            raise RuntimeError("daemon did not report a listening address")
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def client(self):
        return self.client_class(self.host, self.port, timeout=60.0)

    def stop(self) -> int:
        self.child.interrupt()
        return self.child.wait(30.0)


class Log:
    """Client-timed requests, shared by the client threads."""

    def __init__(self, warm_seeds) -> None:
        self.warm_seeds = warm_seeds
        #: ``(start, end)`` perf_counter times of each answered request.
        self.intervals: List[Tuple[float, float]] = []
        #: The loop window each answered request was sent in.
        self.slots: List[int] = []
        self.slot = 0
        self.kinds: Dict[str, int] = {"warm": 0, "cold": 0, "replay": 0,
                                      "other": 0}
        self.errors: List[str] = []
        self.samples: Dict[str, Tuple[dict, dict]] = {}
        self._cold_samples = 0
        self._lock = threading.Lock()

    def send(self, client, request: dict) -> Optional[dict]:
        start = time.perf_counter()
        try:
            response = client.request(request)
        except (OSError, ConnectionError) as error:
            with self._lock:
                self.errors.append(f"{request['op']}: {error}")
            return None
        end = time.perf_counter()
        kind = inputs.request_kind(request, self.warm_seeds)
        with self._lock:
            self.intervals.append((start, end))
            self.slots.append(self.slot)
            self.kinds[kind] += 1
            if not response.get("ok"):
                self.errors.append(f"{request['op']}: "
                                   f"{response.get('error')}")
            key = json.dumps(request, sort_keys=True)
            if kind != "other" and key not in self.samples and (
                    kind != "cold" or self._cold_samples < COLD_SAMPLES):
                self._cold_samples += kind == "cold"
                self.samples[key] = (request, response)
        return response


def set_up(tmp: str, index: int, seed: int, log: Log,
           traced: bool = False) -> Daemon:
    daemon = Daemon(tmp, index, traced=traced)
    try:
        with daemon.client() as client:
            for request in inputs.warm_requests(seed):
                log.send(client, request)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def closed_loop(daemon: Daemon, seed: int, log: Log, count: int) -> float:
    """Run the clients for *count* requests each; returns the loop's
    wall time."""

    def client_main(index: int) -> None:
        requests = itertools.islice(inputs.client_requests(seed, index),
                                    count)
        with daemon.client() as client:
            for request in requests:
                if log.send(client, request) is None:
                    return

    threads = [threading.Thread(target=client_main, args=(index,))
               for index in range(inputs.CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


#: The measured loop runs in windows this long, with both clients paused
#: between windows while the host's speed is sampled on the idle CPU.
WINDOW_S = 1.0


def windowed_loop(daemon: Daemon, seed: int, log: Log,
                  seconds: float) -> Tuple[float, List[float]]:
    """Run the clients for *seconds* of loop time in ``WINDOW_S`` windows.

    Returns the loop's wall time, pauses excluded, and
    :func:`calib.cpu_slowness` sampled before the first window and after
    every window.
    """
    gate = threading.Barrier(inputs.CLIENTS + 1)
    state = {"end": 0.0, "stop": False}

    def client_main(index: int) -> None:
        requests = inputs.client_requests(seed, index)
        try:
            with daemon.client() as client:
                while True:
                    gate.wait()
                    if state["stop"]:
                        return
                    while time.monotonic() < state["end"]:
                        if log.send(client, next(requests)) is None:
                            gate.abort()
                            return
                    gate.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException:
            gate.abort()
            raise

    threads = [threading.Thread(target=client_main, args=(index,))
               for index in range(inputs.CLIENTS)]
    for thread in threads:
        thread.start()
    wall = 0.0
    slowness = [calib.cpu_slowness()]
    try:
        for slot in range(max(1, round(seconds / WINDOW_S))):
            log.slot = slot
            state["end"] = time.monotonic() + WINDOW_S
            gate.wait()
            begin = time.perf_counter()
            gate.wait()
            wall += time.perf_counter() - begin
            slowness.append(calib.cpu_slowness())
        state["stop"] = True
        gate.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed; its error is in the log
    except BaseException:
        gate.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    return wall, slowness


def check(log: Log, out: Outcome) -> None:
    """Every answer ok, a nonzero cold share, and sampled artifacts equal
    to a direct in-process run."""
    from repro.analysis.artifacts import canonical_artifact_json
    from repro.service.daemon import (replay_spec_from_params,
                                      sweep_spec_from_params)
    from repro.sim.experiments import (replay_result_to_json,
                                       result_to_json, run_experiment,
                                       run_replay)

    out.attempt(len(log.intervals) + len(log.errors))
    out.failures.extend(log.errors)
    if log.kinds["cold"] == 0:
        out.attempt()
        out.fail("the request sequence sent no cold sweep")
    for request, response in log.samples.values():
        out.attempt()
        if not response.get("ok"):
            continue  # already counted as an error
        params = {key: value for key, value in request.items()
                  if key != "op"}
        if request["op"] == "sweep":
            direct = result_to_json(run_experiment(
                sweep_spec_from_params(params)))
        else:
            direct = replay_result_to_json(run_replay(
                replay_spec_from_params(params)))
        if (canonical_artifact_json(response["artifact"])
                != canonical_artifact_json(direct)):
            out.fail(f"daemon artifact differs from a direct run: {params}")


def _warm_seeds(seed: int):
    return tuple(request["seed"] for request in inputs.warm_requests(seed)
                 if request["op"] == "sweep")


def run(seed: int, seconds: float, tmp: str) -> Outcome:
    """Set-ups, then the closed loop until time is up.

    Daemon and clients share one CPU: wake-ups across a shared host's
    vCPUs are slow and erratic.  ``setup_s`` is the median of
    ``SETUPS`` set-ups, each scaled by ``calib.host_slowness`` sampled
    around it.  Latencies are client wall times over the whole loop.

    A round trip is a fixed wait that host speed does not move (about
    the median request: mostly a TCP delayed-ACK timer) plus work that
    slows with the host.  So only the part of a latency above the run's
    median is divided by the slowness of its window (the geometric mean
    of the samples at the window's two ends).  p90 is taken over these
    scaled latencies, and throughput divides the request count by the
    loop's wall time shrunk as their sum shrank.  p50 is the raw median.
    """
    out = Outcome()
    calib.pin_one_cpu()
    setup_log = Log(_warm_seeds(seed))
    setups: List[float] = []
    before = calib.host_slowness()
    for index in range(SETUPS):
        daemon = set_up(tmp, index, seed, setup_log)
        wall = time.monotonic() - daemon.child.start
        if index < SETUPS - 1:
            daemon.stop()
        after = calib.host_slowness()
        setups.append(calib.scaled_between(wall, before, after))
        before = after
    log = Log(setup_log.warm_seeds)
    try:
        wall, slowness = windowed_loop(daemon, seed, log, seconds)
    finally:
        status = daemon.stop()
    if status != 0:
        out.fail(f"daemon exited {status}")
    out.failures.extend(setup_log.errors)
    check(log, out)
    if not log.intervals or wall <= 0:
        return out
    latencies = [end - start for start, end in log.intervals]
    floor = median(latencies)
    # A window cut short by a failure has only its opening sample.
    factors = [(before * after) ** 0.5
               for before, after in zip(slowness, slowness[1:])]
    factors.append(slowness[-1])
    scaled = [floor + (latency - floor) / factors[slot]
              for latency, slot in zip(latencies, log.slots)]
    out.metrics = {
        "setup_s": median(setups),
        "op_p50_ms": 1000 * floor,
        "op_p90_ms": 1000 * env.quantile(scaled, 0.9),
        "ops_per_s": len(latencies) / (wall * sum(scaled) / sum(latencies)),
        "peak_rss_mib": daemon.child.maxrss_mib,
    }
    out.notes["requests"] = dict(log.kinds)
    out.notes["op_p90_ms_unscaled"] = round(
        1000 * env.quantile(latencies, 0.9), 3)
    out.notes["ops_per_s_unscaled"] = round(len(latencies) / wall, 3)
    out.notes["slowness_median"] = round(median(slowness), 3)
    return out


def run_traced(seed: int, tmp: str) -> Outcome:
    """A fixed request phase against a plain and a traced daemon."""
    out = Outcome()
    walls = []
    for index, traced in enumerate((False, True)):
        log = Log(_warm_seeds(seed))
        daemon = set_up(tmp, index, seed, log, traced=traced)
        try:
            walls.append(closed_loop(daemon, seed, log,
                                     count=TRACED_REQUESTS))
            with daemon.client() as client:
                stats = log.send(client, {"op": "stats"})
        finally:
            status = daemon.stop()
        if status != 0:
            out.fail(f"daemon exited {status}")
        check(log, out)
    layers: Dict[str, float] = {}
    if os.path.exists(daemon.spans_path):
        with open(daemon.spans_path, encoding="utf-8") as handle:
            layers = json.load(handle)
    if stats is not None and stats.get("ok"):
        hits = stats["stats"]["cache_hits"]
        misses = stats["stats"]["cache_misses"]
        layers["service.DiskActivityCache.hits"] = hits
        layers["service.DiskActivityCache.misses"] = misses
        layers["service.DiskActivityCache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    layers["service.transport_s"] = (
        sum(end - start for start, end in log.intervals)
        - layers.get("service.ExperimentService.handle.s", 0.0))
    layers["bench.trace_overhead_s"] = walls[1] - walls[0]
    out.metrics = layers
    return out
