"""The reliability and granularity experiment axes (PR 6)."""

import random
import types

import pytest

from repro.core.burst import Burst
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.schemes import get_scheme
from repro.extensions.granularity import (
    VALID_GROUP_SIZES,
    granularity_table,
)
from repro.extensions import reliability
from repro.extensions.reliability import (
    DEFAULT_FAULT_RATES,
    fault_coverage_curve,
)
from repro.sim.experiments import (
    ActivityCache,
    FaultSpec,
    GranularitySpec,
    fault_experiment,
    granularity_experiment,
    load_artifact,
    load_fault_artifact,
    load_granularity_artifact,
    run_faults,
    run_granularity,
)
from repro.workloads.patterns import pattern_population
from repro.workloads.population import RandomPopulation


@pytest.fixture(scope="module")
def population():
    return RandomPopulation(count=80, seed=17)


class TestFaultSpec:
    def test_validation(self, population):
        with pytest.raises(ValueError):
            fault_experiment(population, schemes=())
        with pytest.raises(ValueError):
            fault_experiment(population, rates=())
        with pytest.raises(ValueError):
            FaultSpec(name="dup", population=population,
                      slots=(("x", get_scheme("raw")),
                             ("x", get_scheme("dbi-dc"))))

    def test_coverage_key_binds_everything(self, population):
        spec = fault_experiment(population, rates=(0.01,), seed=5)
        scheme = get_scheme("dbi-opt")
        key = spec.coverage_key(scheme, 0.01)
        assert scheme.fingerprint() in key
        assert population.digest() in key
        assert "s=5" in key
        other_rate = spec.coverage_key(scheme, 0.02)
        assert key != other_rate


class TestRunFaults:
    def test_matches_direct_curve(self, population):
        spec = fault_experiment(population, rates=(0.01, 0.1), seed=11)
        result = run_faults(spec)
        for slot_name, scheme in spec.slots:
            direct = fault_coverage_curve(scheme, population.bursts(),
                                          rates=(0.01, 0.1), seed=11)
            assert ([row["bit_errors"] for row in result.series[slot_name]]
                    == [row.bit_errors for row in direct])
            assert ([row["amplification"]
                     for row in result.series[slot_name]]
                    == [row.amplification for row in direct])

    def test_cache_discipline(self, population):
        """Repeat runs hit; a superset of rates re-injects only the new
        ones and reproduces the shared rows exactly."""
        cache = ActivityCache()
        spec = fault_experiment(population, rates=(0.01, 0.1), seed=11)
        first = run_faults(spec, cache=cache)
        assert first.provenance["cache_misses"] == 2 * len(spec.slots)
        again = run_faults(spec, cache=cache)
        assert again.provenance["injections"] == 0
        assert again.series == first.series
        wider = fault_experiment(population, rates=(0.001, 0.01, 0.1),
                                 seed=11)
        widened = run_faults(wider, cache=cache)
        assert widened.provenance["cache_hits"] == 2 * len(spec.slots)
        for slot_name in first.series:
            assert widened.series[slot_name][1:] == first.series[slot_name]

    def test_backend_parity(self, population):
        spec = fault_experiment(population, rates=(0.05,), seed=3)
        vector = run_faults(spec, backend="vector")
        reference = run_faults(spec, backend="reference")
        assert vector.series == reference.series

    def test_batched_run_draws_no_burst(self, monkeypatch):
        """The batched engine reads only the population's beat count, so
        it builds no ``Burst``, with NumPy or without it."""
        spec = fault_experiment(RandomPopulation(count=300, seed=23),
                                rates=(0.01, 0.5), seed=5)
        expected = run_faults(spec, backend="reference").series

        def refuse(self, data):
            raise AssertionError("the batched fault engine built a Burst")

        monkeypatch.setattr(Burst, "__init__", refuse)
        assert run_faults(spec, backend="auto").series == expected

    def test_artifact_round_trip(self, population, tmp_path):
        spec = fault_experiment(population, rates=(0.02,), seed=9)
        result = run_faults(spec)
        path = tmp_path / "faults.json"
        result.save(path)
        loaded = load_fault_artifact(path)
        assert loaded.series == result.series
        assert loaded.spec.rates == spec.rates
        assert loaded.spec.seed == spec.seed
        # The spec is re-runnable and reproduces the series exactly.
        rerun = run_faults(loaded.spec)
        assert rerun.series == result.series

    @pytest.mark.parametrize("known", [True, False],
                             ids=["mixed", "all-unknown"])
    def test_render_only_slots_kept_and_refused(self, population, tmp_path,
                                                known):
        """A slot whose scheme no longer rebuilds from the registry (here
        a dbi-opt with non-registry coefficients) loads render-only: it
        stays in the spec beside any rebuilt slot, and re-running refuses
        instead of dropping it."""
        slots = (("odd", DbiOptimal(CostModel(0.3, 0.7))),)
        if known:
            slots = (("dc", get_scheme("dbi-dc")),) + slots
        result = run_faults(FaultSpec(name="odd", population=population,
                                      slots=slots, rates=(0.02,)))
        path = tmp_path / "faults.json"
        result.save(path)
        loaded = load_fault_artifact(path)
        assert ([slot_name for slot_name, __ in loaded.spec.slots]
                == [slot_name for slot_name, __ in slots])
        assert loaded.spec.slots[-1][1] is None
        assert loaded.series == result.series
        with pytest.raises(RuntimeError, match="render-only"):
            run_faults(loaded.spec)

    def test_kind_guards(self, population, tmp_path):
        path = tmp_path / "faults.json"
        run_faults(fault_experiment(population, rates=(0.02,))).save(path)
        with pytest.raises(ValueError, match="kind"):
            load_artifact(path)
        with pytest.raises(ValueError, match="kind"):
            load_granularity_artifact(path)


class TestSharedMaskDraws:
    @pytest.mark.parametrize("backend", ["vector", "reference"])
    def test_default_run_draws_each_rate_once(self, population, monkeypatch,
                                              backend):
        """Masks depend only on the seed, the rate and the beat count, so
        the four default slots share one draw per rate: 5, not 20."""
        streams = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                streams.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(reliability, "random",
                            types.SimpleNamespace(Random=CountingRandom))
        spec = fault_experiment(population)
        result = run_faults(spec, backend=backend)
        assert len(spec.slots) == 4
        assert len(streams) == len(set(streams)) == len(DEFAULT_FAULT_RATES)
        monkeypatch.undo()
        assert result.series == run_faults(spec, backend="reference").series


class TestGranularitySpec:
    def test_validation(self, population):
        with pytest.raises(ValueError):
            granularity_experiment(population, group_sizes=())
        with pytest.raises(ValueError):
            GranularitySpec(name="bad", population=population,
                            model=CostModel.fixed(), group_sizes=(3,))


class TestRunGranularity:
    def test_matches_granularity_table(self, population):
        result = run_granularity(granularity_experiment(population))
        table = granularity_table(population.bursts(), CostModel.fixed())
        assert [(row["group_size"], row["mean_zeros"],
                 row["mean_transitions"], row["mean_cost"],
                 row["lines_per_byte_lane"]) for row in result.rows] == table

    def test_cache_shares_ratio_keyed_encodes(self, population):
        """Two models with the same alpha/beta ratio share cached
        totals — the grouped fingerprint is ratio-keyed like DbiOptimal's."""
        cache = ActivityCache()
        run_granularity(granularity_experiment(
            population, model=CostModel(1.0, 1.0)), cache=cache)
        scaled = run_granularity(granularity_experiment(
            population, model=CostModel(2.0, 2.0)), cache=cache)
        assert scaled.provenance["encodes"] == 0
        assert scaled.provenance["cache_hits"] == len(VALID_GROUP_SIZES)

    def test_patterned_population(self):
        """The directed pattern suite runs through the axis as a
        rectangular batch population."""
        result = run_granularity(
            granularity_experiment(pattern_population(repeats=3)))
        assert [row["group_size"] for row in result.rows] == list(
            VALID_GROUP_SIZES)

    def test_artifact_round_trip(self, population, tmp_path):
        result = run_granularity(granularity_experiment(
            population, model=CostModel(2.0, 1.0), group_sizes=(4, 8)))
        path = tmp_path / "granularity.json"
        result.save(path)
        loaded = load_granularity_artifact(path)
        assert loaded.rows == result.rows
        assert loaded.spec.model == CostModel(2.0, 1.0)
        rerun = run_granularity(loaded.spec)
        assert rerun.rows == result.rows

    def test_kind_guards(self, population, tmp_path):
        path = tmp_path / "granularity.json"
        run_granularity(granularity_experiment(population)).save(path)
        with pytest.raises(ValueError, match="kind"):
            load_artifact(path)
        with pytest.raises(ValueError, match="kind"):
            load_fault_artifact(path)
