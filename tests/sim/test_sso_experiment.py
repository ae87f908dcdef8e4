"""The simultaneous-switching experiment axis: caching, artifacts, CLI glue."""

import pytest

from repro.analysis.sso import SsoStatistics, sso_of_scheme
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.schemes import get_scheme
from repro.sim.experiments import (
    ActivityCache,
    SsoSpec,
    load_artifact,
    load_sso_artifact,
    run_sso,
    sso_experiment,
)
from repro.workloads.population import RandomPopulation


@pytest.fixture
def population():
    return RandomPopulation(count=60, seed=0x5550)


@pytest.fixture
def spec(population):
    return sso_experiment(population, schemes=("raw", "dbi-dc", "dbi-opt"),
                          interfaces=("pod135", "lvstl11"))


class TestSsoSpec:
    def test_validation(self, population):
        slot = (("raw", get_scheme("raw")),)
        with pytest.raises(ValueError):
            SsoSpec(name="x", population=population, slots=())
        with pytest.raises(ValueError):
            SsoSpec(name="x", population=population, slots=slot,
                    interfaces=())
        with pytest.raises(ValueError):
            SsoSpec(name="x", population=population,
                    slots=slot + slot)  # duplicate slot names
        with pytest.raises(ValueError):
            SsoSpec(name="x", population=population, slots=slot,
                    threshold=10)
        with pytest.raises(KeyError):
            SsoSpec(name="x", population=population, slots=slot,
                    interfaces=("not-a-preset",))

    def test_key_binds_chained_flag(self, population):
        slot = (("raw", get_scheme("raw")),)
        plain = SsoSpec(name="x", population=population, slots=slot)
        chained = SsoSpec(name="x", population=population, slots=slot,
                          chained=True)
        assert plain.sso_key(get_scheme("raw")) != chained.sso_key(
            get_scheme("raw"))

    def test_default_interfaces_cover_all_presets(self, population):
        from repro.phy.interface import available_interfaces
        built = sso_experiment(population)
        assert list(built.interfaces) == available_interfaces()


class TestRunSso:
    def test_series_matches_scalar_engine(self, spec):
        result = run_sso(spec)
        bursts = list(spec.population.bursts())
        for slot_name, scheme in spec.slots:
            expected = sso_of_scheme(scheme, bursts)
            for row in result.series[slot_name]:
                assert row["beats"] == expected.beats
                assert row["max_switching"] == expected.max_switching
                assert row["total_switching"] == expected.total_switching
                assert row["mean_switching"] == expected.mean_switching
                assert row["exceed_fraction"] == expected.exceed_fraction(
                    spec.threshold)

    def test_interface_only_changes_currents(self, spec):
        result = run_sso(spec)
        for rows in result.series.values():
            pod, lvstl = rows
            assert pod["max_switching"] == lvstl["max_switching"]
            assert pod["peak_current_amps"] != lvstl["peak_current_amps"]

    def test_cache_reuse(self, spec):
        cache = ActivityCache()
        first = run_sso(spec, cache=cache)
        assert first.provenance["cache_misses"] == len(spec.slots)
        second = run_sso(spec, cache=cache)
        assert second.provenance["cache_misses"] == 0
        assert second.provenance["cache_hits"] == len(spec.slots)
        assert first.series == second.series

    def test_backends_identical(self, spec):
        assert (run_sso(spec, backend="reference").series
                == run_sso(spec, backend=None).series)

    def test_totals_are_statistics(self, spec):
        result = run_sso(spec)
        assert len(result.totals) == len(spec.slots)
        assert all(isinstance(stats, SsoStatistics)
                   for stats in result.totals.values())


class TestSsoArtifacts:
    def test_roundtrip(self, spec, tmp_path):
        result = run_sso(spec)
        path = tmp_path / "sso.json"
        result.save(path)
        loaded = load_sso_artifact(path)
        assert loaded.series == result.series
        assert loaded.totals == result.totals
        assert loaded.spec.interfaces == spec.interfaces
        assert loaded.spec.chained == spec.chained
        assert loaded.provenance["loaded_from"] == str(path)

    def test_loaded_spec_reruns_identically(self, spec, tmp_path):
        result = run_sso(spec)
        path = tmp_path / "sso.json"
        result.save(path)
        rerun = run_sso(load_sso_artifact(path).spec)
        assert rerun.series == result.series

    @pytest.mark.parametrize("known", [True, False],
                             ids=["mixed", "all-unknown"])
    def test_render_only_slots_kept_and_refused(self, population, tmp_path,
                                                known):
        """Slots whose scheme no longer rebuilds load render-only and
        refuse to re-run, whether or not another slot rebuilds."""
        slots = (("odd", DbiOptimal(CostModel(0.3, 0.7))),)
        if known:
            slots = (("dc", get_scheme("dbi-dc")),) + slots
        result = run_sso(SsoSpec(name="odd", population=population,
                                 slots=slots))
        path = tmp_path / "sso.json"
        result.save(path)
        loaded = load_sso_artifact(path)
        assert ([slot_name for slot_name, __ in loaded.spec.slots]
                == [slot_name for slot_name, __ in slots])
        assert loaded.spec.slots[-1][1] is None
        assert loaded.series == result.series
        with pytest.raises(RuntimeError, match="render-only"):
            run_sso(loaded.spec)

    def test_kind_is_discriminated(self, spec, tmp_path):
        result = run_sso(spec)
        path = tmp_path / "sso.json"
        result.save(path)
        with pytest.raises(ValueError, match="load_sso_artifact"):
            load_artifact(path)
