"""Equivalence and behaviour tests for the experiment engine.

The heart of this module is the *legacy equivalence suite*: straight-line
reimplementations of the original bespoke sweep loops (as shipped before
the engine refactor) are compared against the engine-backed functions for
**bit-identical** output on every available backend.  On top of that:
``--jobs`` determinism, activity-cache accounting (including the
OPT (Fixed) / tracking-OPT ratio dedup), artifact round-trips and
re-renders, and the provenance contract.
"""

import os
import sys
import threading

import pytest

from repro.baselines import DbiAc, DbiDc, Raw
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.vectorized import available_backends
from repro.phy.power import GBPS, InterfaceEnergyModel, PICOFARAD
from repro.phy.pod import pod135
from repro.sim.experiments import (
    ActivityCache,
    ExperimentSpec,
    GridPoint,
    SchemeSlot,
    alpha_experiment,
    load_artifact,
    load_experiment,
    population_activity,
    rate_experiment,
    run_experiment,
    save_artifact,
)
from repro.sim.report import format_alpha_sweep, format_load_sweep
from repro.sim.sweep import (
    alpha_sweep,
    collect_activity,
    data_rate_sweep,
    load_sweep,
    to_alpha_result,
    to_figure_result,
    to_load_result,
    to_rate_result,
)
from repro.workloads.population import ExplicitPopulation, RandomPopulation

pytestmark = []

ENCODER_ENERGY = {"dbi-dc": 0.2e-12, "dbi-ac": 0.3e-12,
                  "dbi-opt-fixed": 1.7e-12}


@pytest.fixture(scope="module")
def population():
    return RandomPopulation(120, seed=0xBEEF)


@pytest.fixture(scope="module")
def bursts(population):
    return population.bursts()


# -- straight-line reimplementations of the pre-engine sweep loops -----------

def legacy_alpha_sweep(bursts, points, include_fixed, backend):
    ac_costs = [i / (points - 1) for i in range(points)]
    static_schemes = {"raw": Raw(), "dbi-dc": DbiDc(), "dbi-ac": DbiAc()}
    if include_fixed:
        static_schemes["dbi-opt-fixed"] = DbiOptimal(CostModel.fixed())
    static_activity = {name: collect_activity(scheme, bursts, backend=backend)
                       for name, scheme in static_schemes.items()}
    series = {name: [] for name in static_schemes}
    series["dbi-opt"] = []
    for ac_cost in ac_costs:
        model = CostModel.from_ac_fraction(ac_cost)
        for name, activity in static_activity.items():
            series[name].append(activity.mean_cost(model))
        optimal = collect_activity(DbiOptimal(model), bursts, backend=backend)
        series["dbi-opt"].append(optimal.mean_cost(model))
    return ac_costs, series


def legacy_data_rate_sweep(bursts, rates, c_load, backend):
    pod = pod135()
    static_activity = {
        "raw": collect_activity(Raw(), bursts, backend=backend),
        "dbi-dc": collect_activity(DbiDc(), bursts, backend=backend),
        "dbi-ac": collect_activity(DbiAc(), bursts, backend=backend),
        "dbi-opt-fixed": collect_activity(DbiOptimal(CostModel.fixed()),
                                          bursts, backend=backend),
    }
    normalized = {name: [] for name in list(static_activity) + ["dbi-opt"]}
    absolute = {name: [] for name in normalized}
    for rate in rates:
        energy_model = InterfaceEnergyModel(pod, rate, c_load)
        raw_energy = static_activity["raw"].mean_energy(energy_model)
        for name, activity in static_activity.items():
            energy = activity.mean_energy(energy_model)
            absolute[name].append(energy)
            normalized[name].append(energy / raw_energy)
        optimal = collect_activity(DbiOptimal(energy_model.cost_model()),
                                   bursts, backend=backend)
        energy = optimal.mean_energy(energy_model)
        absolute["dbi-opt"].append(energy)
        normalized["dbi-opt"].append(energy / raw_energy)
    return normalized, absolute


def legacy_load_sweep(bursts, rates, loads, encoder_energy_j, backend):
    pod = pod135()
    activity = {
        "dbi-dc": collect_activity(DbiDc(), bursts, backend=backend),
        "dbi-ac": collect_activity(DbiAc(), bursts, backend=backend),
        "dbi-opt-fixed": collect_activity(DbiOptimal(CostModel.fixed()),
                                          bursts, backend=backend),
    }
    normalized = {}
    for c_load in loads:
        series = []
        for rate in rates:
            energy_model = InterfaceEnergyModel(pod, rate, c_load)
            totals = {name: activity[name].mean_energy(energy_model)
                      + encoder_energy_j[name] for name in activity}
            conventional = min(totals["dbi-dc"], totals["dbi-ac"])
            series.append(totals["dbi-opt-fixed"] / conventional)
        normalized[c_load] = series
    return normalized


@pytest.mark.parametrize("backend", available_backends())
class TestLegacyEquivalence:
    """Engine results must be bit-identical to the pre-engine loops."""

    def test_alpha_sweep(self, bursts, backend):
        ac_costs, series = legacy_alpha_sweep(bursts, points=7,
                                              include_fixed=True,
                                              backend=backend)
        result = alpha_sweep(bursts, points=7, include_fixed=True,
                             backend=backend)
        assert result.ac_costs == ac_costs
        assert result.series == series

    def test_data_rate_sweep(self, bursts, backend):
        rates = [2 * GBPS, 8 * GBPS, 14 * GBPS]
        c_load = 3 * PICOFARAD
        normalized, absolute = legacy_data_rate_sweep(bursts, rates, c_load,
                                                      backend)
        result = data_rate_sweep(bursts, c_load_farads=c_load,
                                 data_rates_hz=rates, backend=backend)
        assert result.data_rates_hz == rates
        assert result.normalized == normalized
        assert result.absolute == absolute

    def test_load_sweep(self, bursts, backend):
        rates = [4 * GBPS, 10 * GBPS]
        loads = [1 * PICOFARAD, 3 * PICOFARAD]
        normalized = legacy_load_sweep(bursts, rates, loads, ENCODER_ENERGY,
                                       backend)
        result = load_sweep(bursts, c_loads_farads=loads, data_rates_hz=rates,
                            encoder_energy_j=ENCODER_ENERGY, backend=backend)
        assert result.normalized == normalized

    def test_population_activity_matches_collect(self, population, bursts,
                                                 backend):
        for scheme in (Raw(), DbiDc(), DbiOptimal(CostModel.fixed())):
            chunked = population_activity(scheme, population,
                                          backend=backend, chunk_size=17)
            assert chunked == collect_activity(scheme, bursts,
                                               backend=backend)


class TestParallelExecution:
    def test_jobs_determinism(self, population):
        spec = alpha_experiment(population, points=5, include_fixed=True)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=4)
        assert parallel.series == serial.series
        assert parallel.totals == serial.totals

    def test_jobs_validation(self, population):
        spec = alpha_experiment(population, points=3)
        with pytest.raises(ValueError):
            run_experiment(spec, jobs=0)

    def test_legacy_wrappers_accept_jobs(self, bursts):
        serial = alpha_sweep(bursts, points=4)
        parallel = alpha_sweep(bursts, points=4, jobs=2)
        assert parallel.series == serial.series


class TestActivityCache:
    def test_static_schemes_encode_once(self, population):
        """points=5 ⇒ raw/dc/ac/fixed once + OPT at 4 distinct ratios
        (the tracking OPT at AC fraction 0.5 reuses OPT (Fixed))."""
        spec = alpha_experiment(population, points=5, include_fixed=True)
        result = run_experiment(spec)
        assert result.provenance["encodes"] == 8
        assert result.provenance["cache_hits"] == 0

    def test_fixed_and_tracking_opt_share_totals(self, population):
        spec = alpha_experiment(population, points=5, include_fixed=True)
        result = run_experiment(spec)
        fixed = DbiOptimal(CostModel.fixed())
        tracking = DbiOptimal(CostModel.from_ac_fraction(0.5))
        assert fixed.fingerprint() == tracking.fingerprint()
        key = ActivityCache.key_for(fixed, spec.population)
        assert key in result.totals
        # the shared totals price both series identically at ac=0.5
        assert (result.series["dbi-opt"][2]
                == result.series["dbi-opt-fixed"][2])

    def test_shared_cache_across_experiments(self, population):
        cache = ActivityCache()
        first = run_experiment(alpha_experiment(population, points=3),
                               cache=cache)
        assert first.provenance["encodes"] == 6  # raw/dc/ac + 3 ratios
        second = run_experiment(
            alpha_experiment(population, points=3, include_fixed=True),
            cache=cache)
        # nothing is new: statics hit, and OPT (Fixed) shares the first
        # run's tracking-OPT entry at AC fraction 0.5
        assert second.provenance["encodes"] == 0
        assert second.series["raw"] == first.series["raw"]
        assert "dbi-opt-fixed" in second.series

    def test_rate_then_load_share_static_totals(self, population):
        cache = ActivityCache()
        run_experiment(rate_experiment(population, data_rates_hz=[4 * GBPS]),
                       cache=cache)
        result = run_experiment(
            load_experiment(population, data_rates_hz=[4 * GBPS],
                            c_loads_farads=[3 * PICOFARAD],
                            encoder_energy_j=ENCODER_ENERGY),
            cache=cache)
        # dc/ac/fixed were all encoded by the rate experiment already
        assert result.provenance["encodes"] == 0

    def test_fresh_cache_per_run_by_default(self, population):
        spec = alpha_experiment(population, points=3)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert second.provenance["cache_hits"] == 0
        assert second.series == first.series

    def test_threads_sharing_a_cache_lose_no_counts(self, population):
        """The daemon's handler threads share one cache: every run's
        lookups must land in ``hits + misses``, under forced switching."""
        spec = alpha_experiment(population, points=3)
        cache = ActivityCache()
        plan_size = run_experiment(spec, cache=cache).provenance[
            "cache_misses"]
        threads_n, runs = 2 * (os.cpu_count() or 1) + 2, 200
        errors = []

        def worker():
            try:
                for __ in range(runs):
                    provenance = run_experiment(spec, cache=cache).provenance
                    assert (provenance["cache_hits"]
                            + provenance["cache_misses"]) == plan_size
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for __ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "stress worker timed out"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert cache.hits + cache.misses == plan_size * (1 + threads_n * runs)


class TestArtifacts:
    def test_round_trip_bit_identical(self, population, tmp_path):
        spec = alpha_experiment(population, points=5, include_fixed=True)
        result = run_experiment(spec)
        path = tmp_path / "alpha.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert loaded.series == result.series
        assert loaded.totals == result.totals
        assert (format_alpha_sweep(to_alpha_result(loaded))
                == format_alpha_sweep(to_alpha_result(result)))

    def test_load_round_trip_renders_same_tables(self, population, tmp_path):
        spec = load_experiment(population, data_rates_hz=[4 * GBPS, 8 * GBPS],
                               c_loads_farads=[1e-12, 3e-12],
                               encoder_energy_j=ENCODER_ENERGY)
        result = run_experiment(spec)
        path = tmp_path / "load.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert (format_load_sweep(to_load_result(loaded))
                == format_load_sweep(to_load_result(result)))
        # float grid keys survive the JSON round trip exactly
        assert to_load_result(loaded).normalized.keys() \
            == to_load_result(result).normalized.keys()

    def test_declarative_artifact_reruns_identically(self, population,
                                                     tmp_path):
        spec = rate_experiment(population, data_rates_hz=[2 * GBPS, 6 * GBPS])
        result = run_experiment(spec)
        path = tmp_path / "rate.json"
        result.save(path)
        loaded = load_artifact(path)
        rerun = run_experiment(loaded.spec)
        assert rerun.series == result.series
        assert to_rate_result(rerun).normalized \
            == to_rate_result(result).normalized

    def test_explicit_population_is_render_only(self, bursts, tmp_path):
        spec = alpha_experiment(ExplicitPopulation(bursts[:20]), points=3)
        result = run_experiment(spec)
        path = tmp_path / "explicit.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert to_alpha_result(loaded).series == to_alpha_result(result).series
        with pytest.raises(RuntimeError):
            run_experiment(loaded.spec)

    def test_figure_dispatch(self, population, tmp_path):
        result = run_experiment(alpha_experiment(population, points=3))
        assert to_figure_result(result).series == result.series
        with pytest.raises(ValueError):
            to_rate_result(result)

    def test_format_validation(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something/else"}')
        with pytest.raises(ValueError):
            load_artifact(path)

    def test_provenance_contract(self, population, tmp_path):
        result = run_experiment(alpha_experiment(population, points=3),
                                jobs=1)
        for field in ("backend", "jobs", "encodes", "cache_hits",
                      "population", "repro_version", "created_unix"):
            assert field in result.provenance
        path = tmp_path / "prov.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert loaded.provenance["loaded_from"] == str(path)


class TestSpecValidation:
    def test_duplicate_slot_names(self, population):
        with pytest.raises(ValueError):
            ExperimentSpec(name="dup", population=population,
                           slots=(SchemeSlot("x", Raw()),
                                  SchemeSlot("x", DbiDc())),
                           grid=(GridPoint(1.0, 1.0),))

    def test_tracking_slot_rejects_instance(self):
        with pytest.raises(ValueError):
            SchemeSlot("dbi-opt", scheme=Raw(), tracks_point=True)

    def test_unknown_pricing(self, population):
        with pytest.raises(ValueError):
            ExperimentSpec(name="bad", population=population,
                           slots=(SchemeSlot("raw", Raw()),),
                           grid=(GridPoint(1.0, 1.0),), pricing="joules")

    def test_points_validation_preserved(self, bursts):
        with pytest.raises(ValueError):
            alpha_sweep(bursts, points=1)

    def test_encoder_energy_validation_preserved(self, bursts):
        with pytest.raises(KeyError):
            load_sweep(bursts[:10], data_rates_hz=[4 * GBPS],
                       encoder_energy_j={"dbi-dc": 0.0})

    def test_ragged_population_uses_reference_path(self):
        from repro.core.burst import Burst

        ragged = ExplicitPopulation([Burst([0x00] * 4), Burst([0xFF] * 6)])
        totals = population_activity(DbiDc(), ragged)
        reference = population_activity(DbiDc(), ragged, backend="reference")
        assert totals == reference
