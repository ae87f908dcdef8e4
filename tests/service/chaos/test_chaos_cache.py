"""Chaos: seeded cache-fault schedules never corrupt results.

The differential invariant under test: for any planned fault schedule,
the final artifact is either bit-identical (canonical JSON) to the
fault-free run or a loud typed error — never silently wrong.  Runs on
both CI legs (NumPy and no-NumPy); everything here is stdlib-only.
"""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.service.diskcache import DiskActivityCache
from repro.service.faults import FaultPlan, FaultyCache
from repro.service.retry import TRANSIENT_ERRORS, RetryPolicy
from repro.sim.experiments import (
    alpha_experiment,
    result_to_json,
    run_experiment,
)
from repro.workloads.population import RandomPopulation

#: Generous budget for the whole run: every plan's horizon is finite, so
#: the schedule always runs dry before the attempts do.  An injected
#: ``oserror`` fails the run; the retry re-runs it over the same cache.
CHAOS_RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.0,
                          retryable=TRANSIENT_ERRORS + (OSError,))


def _spec(samples=120, points=5):
    return alpha_experiment(RandomPopulation(count=samples, seed=0x0DB1),
                            points=points, include_fixed=True)


def _canonical(result):
    return canonical_artifact_json(result_to_json(result))


def _run_under_chaos(cache):
    return CHAOS_RETRY.call(lambda: run_experiment(_spec(), cache=cache))


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference artifact every chaos run must match."""
    return _canonical(run_experiment(_spec()))


class TestSeededSchedules:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_survives_seeded_cache_chaos(self, seed, clean, tmp_path):
        plan = FaultPlan.seeded(seed, horizon=24, rate=0.4)
        cache = FaultyCache(DiskActivityCache(tmp_path / "cache"), plan)
        result = _run_under_chaos(cache)
        assert sum(cache.injected.values()) > 0, plan.describe()
        assert _canonical(result) == clean

    def test_same_seed_injects_identically(self, clean, tmp_path):
        counts = []
        for attempt in ("a", "b"):
            plan = FaultPlan.seeded(5, horizon=24, rate=0.4)
            cache = FaultyCache(
                DiskActivityCache(tmp_path / f"cache-{attempt}"), plan)
            assert _canonical(_run_under_chaos(cache)) == clean
            counts.append(dict(cache.injected))
        assert sum(counts[0].values()) > 0
        assert counts[0] == counts[1]


class TestDegradedCache:
    def test_memory_only_tier_is_bit_identical(self, clean, tmp_path,
                                               monkeypatch):
        cache = DiskActivityCache(tmp_path / "cache")
        monkeypatch.setattr(
            cache, "_publish",
            lambda temp, path: (_ for _ in ()).throw(OSError(28, "full")))
        result = run_experiment(_spec(), cache=cache)
        assert cache.health()["degraded"] is True
        assert _canonical(result) == clean

    def test_corrupted_entries_quarantined_then_bit_identical(
            self, clean, tmp_path):
        # A chaos writer garbles every published entry...
        plan = FaultPlan({index: "corrupt" for index in range(64)})
        dirty = FaultyCache(DiskActivityCache(tmp_path / "cache"), plan)
        run_experiment(_spec(), cache=dirty)
        assert dirty.injected["corrupt"] > 0
        # ...so a fresh reader of the same directory must quarantine
        # every entry, re-encode, and still produce the clean bytes.
        fresh = DiskActivityCache(tmp_path / "cache")
        result = run_experiment(_spec(), cache=fresh)
        assert fresh.quarantined > 0
        assert _canonical(result) == clean
