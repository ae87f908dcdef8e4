"""Chaos harness primitives: plans and the faulty cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.service.diskcache import DiskActivityCache
from repro.service.faults import CACHE_FAULTS, FaultPlan, FaultyCache
from repro.sim.experiments import ActivityCache, ActivityTotals

TOTALS = ActivityTotals(transitions=10, zeros=20, bursts=4)


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        one = FaultPlan.seeded(42)
        two = FaultPlan.seeded(42)
        assert one.schedule == two.schedule
        assert one.describe() == two.describe()

    def test_seeds_differ(self):
        assert FaultPlan.seeded(1).schedule != FaultPlan.seeded(2).schedule

    def test_bounded_horizon(self):
        plan = FaultPlan.seeded(7, horizon=16, rate=1.0)
        assert len(plan) == 16
        assert plan.fault_at(16) is None  # clean beyond the horizon
        assert all(kind in CACHE_FAULTS for kind in plan.schedule.values())

    def test_explicit_schedule(self):
        plan = FaultPlan({0: "stale", 3: "oserror"})
        assert plan.fault_at(0) == "stale"
        assert plan.fault_at(1) is None
        assert plan.fault_at(3) == "oserror"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, kinds=())
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, rate=1.5)

    def test_describe_is_canonical_json(self):
        plan = FaultPlan({2: "torn", 0: "stale"}, label="unit")
        payload = json.loads(plan.describe())
        assert payload["label"] == "unit"
        assert payload["schedule"] == {"0": "stale", "2": "torn"}


class TestFaultyCacheMemory:
    def test_clean_plan_is_transparent(self):
        cache = FaultyCache(ActivityCache(), FaultPlan({}))
        assert "k" not in cache
        cache.store("k", TOTALS)
        assert "k" in cache
        assert cache.get("k") == TOTALS
        assert cache.injected == {}

    def test_stale_forces_a_miss_once(self):
        # index 0 = first store, index 1 = the next lookup.
        cache = FaultyCache(ActivityCache(), FaultPlan({1: "stale"}))
        cache.store("k", TOTALS)
        assert "k" not in cache      # injected stale miss
        assert "k" in cache          # plan exhausted: truth again
        assert cache.injected == {"stale": 1}

    def test_oserror_raises_and_drops_the_store(self):
        cache = FaultyCache(ActivityCache(), FaultPlan({0: "oserror"}))
        with pytest.raises(OSError):
            cache.store("k", TOTALS)
        assert "k" not in cache
        cache.store("k", TOTALS)     # next attempt succeeds
        assert cache.get("k") == TOTALS

    def test_get_never_consumes_plan_indices(self):
        cache = FaultyCache(ActivityCache(), FaultPlan({1: "stale"}))
        cache.store("k", TOTALS)     # index 0
        for __ in range(5):          # gets are free
            assert cache.get("k") == TOTALS
        assert "k" not in cache      # index 1 fires only now


class TestFaultyCacheDisk:
    def test_torn_store_leaves_orphan_temp_and_no_entry(self, tmp_path):
        inner = DiskActivityCache(tmp_path / "cache")
        cache = FaultyCache(inner, FaultPlan({0: "torn"}))
        cache.store("k", TOTALS)
        assert len(inner) == 0       # publish never happened
        orphans = [name for name in os.listdir(inner.directory)
                   if name.endswith(".chaos.tmp")]
        assert len(orphans) == 1
        fresh = DiskActivityCache(tmp_path / "cache")
        assert "k" not in fresh      # orphan is ignored, not an entry

    def test_corrupt_store_poisons_fresh_readers_only(self, tmp_path):
        inner = DiskActivityCache(tmp_path / "cache")
        cache = FaultyCache(inner, FaultPlan({0: "corrupt"}))
        cache.store("k", TOTALS)
        # The running process keeps serving from its memory tier...
        assert cache.get("k") == TOTALS
        # ...but a fresh reader quarantines the garbled entry.
        fresh = DiskActivityCache(tmp_path / "cache")
        assert "k" not in fresh
        assert fresh.quarantined == 1

    def test_health_merges_inner_and_injection_counters(self, tmp_path):
        inner = DiskActivityCache(tmp_path / "cache")
        plan = FaultPlan({1: "stale"}, label="unit")
        cache = FaultyCache(inner, plan)
        cache.store("k", TOTALS)
        assert "k" not in cache
        health = cache.health()
        assert health["tier"] == "disk"
        assert health["injected_faults"] == {"stale": 1}
        assert health["fault_plan"] == "unit"

