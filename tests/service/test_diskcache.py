"""Disk-cache tier: round-trips, layering, and concurrent writers.

Everything here is NumPy-free by design — the service layer is pure
stdlib and this module runs on the no-NumPy CI leg.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.analysis.sso import SsoStatistics
from repro.extensions.reliability import FaultCoverageRow
from repro.service.diskcache import (
    CACHE_FORMAT,
    DiskActivityCache,
    decode_record,
    encode_record,
    open_cache,
    resolve_cache_dir,
)
from repro.sim.experiments import (
    ActivityCache,
    ActivityTotals,
    ReplayTotals,
    alpha_experiment,
    run_experiment,
)
from repro.workloads.population import RandomPopulation

SAMPLE_RECORDS = [
    ActivityTotals(transitions=12345, zeros=678, bursts=1000),
    ReplayTotals(transactions=32, bytes_written=2048, beats=256,
                 channels=((10, 20, 128), (30, 40, 128))),
    FaultCoverageRow(rate=1e-3, injected_faults=17, total_beats=8000,
                     bit_errors=23, corrupted_beats=19, dbi_lane_faults=2),
    SsoStatistics(beats=4000, max_switching=8, total_switching=16123,
                  histogram={0: 120, 3: 1800, 8: 11}),
]


class TestRecordCodec:
    @pytest.mark.parametrize("record", SAMPLE_RECORDS,
                             ids=["activity", "replay", "fault", "sso"])
    def test_roundtrip(self, record):
        kind, payload = encode_record(record)
        # The payload must survive JSON (what the disk tier does).
        restored = decode_record(kind, json.loads(json.dumps(payload)))
        assert restored == record

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_record(object())
        with pytest.raises(ValueError):
            decode_record("martian", {})


class TestDiskActivityCache:
    def test_store_get_roundtrip_all_kinds(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        for index, record in enumerate(SAMPLE_RECORDS):
            key = f"key-{index}"
            cache.store(key, record)
            assert key in cache
            assert cache.get(key) == record
        assert len(cache) == len(SAMPLE_RECORDS)
        assert sorted(cache.iter_keys()) == sorted(
            f"key-{index}" for index in range(len(SAMPLE_RECORDS)))

    def test_read_through_populates_memory(self, tmp_path):
        writer = DiskActivityCache(tmp_path)
        writer.store("shared", SAMPLE_RECORDS[0])
        reader = DiskActivityCache(tmp_path)
        assert "shared" in reader  # read from disk
        # Remove the file: the memory tier must still serve it.
        for name in os.listdir(tmp_path):
            os.unlink(tmp_path / name)
        assert reader.get("shared") == SAMPLE_RECORDS[0]
        # A fresh instance sees the (now empty) truth on disk.
        assert "shared" not in DiskActivityCache(tmp_path)

    def test_missing_key(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        assert "nope" not in cache
        with pytest.raises(KeyError):
            cache.get("nope")

    def test_corrupt_entry_is_a_miss_and_recoverable(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        cache.store("k", SAMPLE_RECORDS[0])
        path = Path(cache._path("k"))
        path_content = path.read_text()
        path.write_text(path_content[: len(path_content) // 2])
        fresh = DiskActivityCache(tmp_path)
        assert "k" not in fresh
        fresh.store("k", SAMPLE_RECORDS[0])
        assert fresh.get("k") == SAMPLE_RECORDS[0]

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        cache.store("original", SAMPLE_RECORDS[0])
        path = Path(cache._path("original"))
        payload = json.loads(path.read_text())
        assert payload["format"] == CACHE_FORMAT
        payload["key"] = "someone-else"
        path.write_text(json.dumps(payload))
        assert "original" not in DiskActivityCache(tmp_path)

    def test_foreign_json_files_ignored(self, tmp_path):
        (tmp_path / "notes.json").write_text("[1, 2, 3]\n")
        cache = DiskActivityCache(tmp_path)
        assert list(cache.iter_keys()) == []

    def test_clear_removes_files(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        cache.store("k", SAMPLE_RECORDS[0])
        cache.clear()
        assert len(cache) == 0
        assert "k" not in DiskActivityCache(tmp_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        for index in range(20):
            cache.store(f"k{index}", SAMPLE_RECORDS[0])
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


class TestDegradation:
    def test_write_failure_downgrades_to_memory_only(self, tmp_path,
                                                     monkeypatch):
        cache = DiskActivityCache(tmp_path)

        def full_disk(temp, path):
            raise OSError(28, "no space left on device")

        monkeypatch.setattr(cache, "_publish", full_disk)
        cache.store("k", SAMPLE_RECORDS[0])  # must not raise
        assert cache.get("k") == SAMPLE_RECORDS[0]  # memory keeps serving
        health = cache.health()
        assert health["tier"] == "memory-only"
        assert health["degraded"] is True
        assert "no space left" in health["degraded_reason"]
        assert health["write_failures"] == 1
        # Degradation is sticky: later stores skip disk entirely.
        cache.store("k2", SAMPLE_RECORDS[0])
        assert cache.get("k2") == SAMPLE_RECORDS[0]
        assert DiskActivityCache(tmp_path)._load("k2") is None

    def test_no_temp_files_after_failed_publish(self, tmp_path,
                                                monkeypatch):
        cache = DiskActivityCache(tmp_path)
        monkeypatch.setattr(
            cache, "_publish",
            lambda temp, path: (_ for _ in ()).throw(OSError(28, "full")))
        cache.store("k", SAMPLE_RECORDS[0])
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_unwritable_directory_degrades_at_construction(self):
        cache = DiskActivityCache("/proc/definitely/not/writable")
        assert cache.health()["tier"] == "memory-only"
        cache.store("k", SAMPLE_RECORDS[0])  # memory tier still works
        assert cache.get("k") == SAMPLE_RECORDS[0]

    def test_corrupt_entry_quarantined_once(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        cache.store("k", SAMPLE_RECORDS[0])
        path = cache._path("k")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        fresh = DiskActivityCache(tmp_path)
        assert "k" not in fresh
        assert os.path.exists(f"{path}.bad")
        assert not os.path.exists(path)
        assert fresh.health()["quarantined"] == 1
        # The quarantined copy is never re-parsed; a clean store heals.
        fresh.store("k", SAMPLE_RECORDS[0])
        assert DiskActivityCache(tmp_path).get("k") == SAMPLE_RECORDS[0]

    def test_healthy_cache_health_snapshot(self, tmp_path):
        cache = DiskActivityCache(tmp_path)
        cache.store("k", SAMPLE_RECORDS[0])
        health = cache.health()
        assert health["tier"] == "disk"
        assert health["degraded"] is False
        assert health["degraded_reason"] is None
        assert health["memory_entries"] == 1
        assert health["write_failures"] == 0
        assert health["quarantined"] == 0

    def test_memory_cache_health_baseline(self):
        health = ActivityCache().health()
        assert health["tier"] == "memory"
        assert health["degraded"] is False


class TestEngineIntegration:
    def test_warm_run_skips_all_encodes(self, tmp_path):
        population = RandomPopulation(count=120, seed=11)
        spec = alpha_experiment(population, points=7, include_fixed=True)
        cold = run_experiment(spec, cache=DiskActivityCache(tmp_path))
        assert cold.provenance["encodes"] > 0
        warm = run_experiment(spec, cache=DiskActivityCache(tmp_path))
        assert warm.provenance["encodes"] == 0
        assert warm.series == cold.series
        assert warm.totals == cold.totals

    def test_baseline_matches_memory_cache(self, tmp_path):
        population = RandomPopulation(count=100, seed=5)
        spec = alpha_experiment(population, points=5)
        plain = run_experiment(spec)
        disk = run_experiment(spec, cache=DiskActivityCache(tmp_path))
        assert disk.series == plain.series


class TestResolution:
    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/env/dir")
        assert resolve_cache_dir("/flag/dir") == "/flag/dir"
        assert resolve_cache_dir(None) == "/env/dir"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir(None) is None
        assert open_cache(None) is None

    def test_open_cache_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cache = open_cache(str(target))
        assert isinstance(cache, DiskActivityCache)
        assert os.path.isdir(target)

    def test_shared_cache_survives_process_restart(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = alpha_experiment(RandomPopulation(count=80, seed=2), points=5)
        cold = run_experiment(spec, cache=open_cache())
        assert cold.provenance["encodes"] > 0
        # Simulate a new process: a fresh cache, same environment.
        warm = run_experiment(spec, cache=open_cache())
        assert warm.provenance["encodes"] == 0
        assert warm.series == cold.series


# -- concurrent writers ------------------------------------------------------

#: Workers hammer disjoint *and* overlapping keys; overlapping keys are
#: content-addressed (same record from every writer), like the engine's.
N_WORKERS = 6
ROUNDS = 3
PRIVATE_KEYS = 15
SHARED_KEYS = 15


def _expected_record(key: str):
    """Deterministic content per key — wide enough to widen race windows."""
    seed = sum(key.encode())
    return ReplayTotals(
        transactions=seed * 3 + 1,
        bytes_written=seed * 64,
        beats=seed * 8,
        channels=tuple((seed + channel, seed * 2 + channel, channel)
                       for channel in range(32)))


def _worker_keys(worker: int):
    private = [f"private-{worker}-{index}" for index in range(PRIVATE_KEYS)]
    shared = [f"shared-{index}" for index in range(SHARED_KEYS)]
    return private + shared


def _hammer(directory: str, worker: int, barrier, queue) -> None:
    cache = DiskActivityCache(directory)
    barrier.wait()  # maximise write overlap
    stored = 0
    for __ in range(ROUNDS):
        for key in _worker_keys(worker):
            cache.store(key, _expected_record(key))
            stored += 1
            # Interleave reads of keys other workers are writing.
            probe = f"shared-{stored % SHARED_KEYS}"
            if probe in cache:
                assert cache.get(probe) == _expected_record(probe)
    queue.put((worker, stored))


def _run_workers(target, args_per_worker, count):
    """Spawn *count* processes, collect one queue item each, join."""
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    workers = [context.Process(target=target, args=args + (queue,))
               for args in args_per_worker]
    for process in workers:
        process.start()
    results = [queue.get(timeout=180) for __ in range(count)]
    for process in workers:
        process.join(timeout=60)
        assert process.exitcode == 0
    return results


def test_concurrent_writers_no_torn_entries(tmp_path):
    """N processes × overlapping keys: every entry intact, totals serial.

    The serial expectation is computed first; the parallel hammering
    must leave the cache in exactly that state — same keys, same
    records, no leftover temp files, every file parseable.
    """
    expected = {}
    for worker in range(N_WORKERS):
        for key in _worker_keys(worker):
            expected[key] = _expected_record(key)

    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(N_WORKERS)
    counts = _run_workers(
        _hammer, [(str(tmp_path), worker, barrier)
                  for worker in range(N_WORKERS)], N_WORKERS)
    assert sorted(worker for worker, __ in counts) == list(range(N_WORKERS))
    assert all(count == ROUNDS * (PRIVATE_KEYS + SHARED_KEYS)
               for __, count in counts)

    # No torn/partial entries: every file parses and carries its key.
    survivor = DiskActivityCache(tmp_path)
    assert not [name for name in os.listdir(tmp_path)
                if name.endswith(".tmp")]
    assert sorted(survivor.iter_keys()) == sorted(expected)
    assert len(survivor) == len(expected)
    for key, record in expected.items():
        assert survivor.get(key) == record


def _engine_run(directory, queue) -> None:
    cache = DiskActivityCache(directory) if directory else None
    spec = alpha_experiment(RandomPopulation(count=150, seed=9), points=7,
                            include_fixed=True)
    queue.put(run_experiment(spec, cache=cache).series)


def test_concurrent_engine_runs_share_one_cache(tmp_path):
    """Two processes running the same experiment against one directory
    finish with the serial run's series, whoever wins each encode."""
    series = _run_workers(_engine_run, [(str(tmp_path),), (str(tmp_path),)],
                          2)
    context = multiprocessing.get_context("spawn")
    reference_queue = context.Queue()
    _engine_run(None, reference_queue)
    expected = reference_queue.get(timeout=60)
    assert series[0] == expected
    assert series[1] == expected
