"""The one population encoder and the one tally on top of it.

Every tally, axis and engine gets its wire words from
``DbiScheme.wire_words``; these tests pin what that buys: populations
stay packed (no ``Burst`` objects on the NumPy paths), one chunked tally
serves the figure sweeps and ``evaluate`` in both transmission modes,
and the shared pack step treats a population like its bursts.
"""

import argparse
from unittest import mock

import pytest

from repro.core.burst import Burst
from repro.core.schemes import available_schemes, get_scheme
from repro.core.vectorized import HAVE_NUMPY, pack_bursts, try_pack_bursts
from repro.hw import bitsim
from repro.sim.experiments import (
    fault_experiment,
    granularity_experiment,
    population_activity,
    population_metrics,
    run_faults,
    run_granularity,
    run_sso,
    sso_experiment,
)
from repro.sim.metrics import SchemeMetrics
from repro.sim.runner import evaluate, evaluate_named
from repro.workloads.population import ExplicitPopulation, RandomPopulation

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")


@pytest.fixture(scope="module")
def population():
    return RandomPopulation(23, seed=0xC0DE)


def _forbid_bursts(monkeypatch):
    def forbidden(self, data):
        raise AssertionError("Burst constructed on a packed path")

    monkeypatch.setattr(Burst, "__init__", forbidden)


def test_collect_activity_is_population_activity():
    import repro.sim.experiments
    import repro.sim.sweep

    assert (repro.sim.sweep.collect_activity
            is repro.sim.experiments.population_activity)


class TestChainedTally:
    @pytest.mark.parametrize("chunk_size", (3, 7))
    @pytest.mark.parametrize("name", available_schemes())
    def test_chunk_seams_thread_the_bus_word(self, population, name,
                                             chunk_size):
        """Chained metrics equal the reference evaluate() for every
        scheme, stateful ones included, whatever the chunking."""
        scheme = get_scheme(name)
        expected = evaluate([scheme], population.bursts(), chained=True,
                            backend="reference")[name]
        for backend in (None, "reference"):
            metrics = population_metrics(scheme, population,
                                         backend=backend,
                                         chunk_size=chunk_size, chained=True)
            assert metrics == expected

    @pytest.mark.parametrize("chained", (False, True))
    @pytest.mark.parametrize("name", available_schemes())
    def test_evaluate_matches_per_burst_records(self, population, name,
                                                chained):
        """Every SchemeMetrics field, the inverted-byte count (DBI bit 0)
        included, equals folding the reference encodes one by one."""
        scheme = get_scheme(name)
        bursts = population.bursts()
        expected = SchemeMetrics(scheme="label")
        state = 0x1FF
        for burst in bursts:
            encoded = scheme.encode(burst, prev_word=state)
            expected.record(encoded)
            if chained:
                state = encoded.last_word()
        for backend in (None, "reference"):
            result = evaluate_named({"label": scheme}, bursts,
                                    chained=chained, backend=backend)
            assert result["label"] == expected

    def test_ragged_population_chains_on_the_reference_loop(self):
        ragged = ExplicitPopulation([Burst([0x00] * 4), Burst([0xFF] * 6),
                                     Burst([0x0F] * 3)])
        for name in ("raw", "dbi-dc", "dbi-opt"):
            expected = evaluate([name], ragged.bursts(), chained=True,
                                backend="reference")[name]
            metrics = population_metrics(get_scheme(name), ragged,
                                         chunk_size=2, chained=True)
            assert (metrics.transitions, metrics.zeros) == (
                expected.transitions, expected.zeros)


@needs_numpy
class TestPackStep:
    @pytest.mark.parametrize("count", (1, 5, 1000))
    def test_random_population_packs_like_its_bursts(self, count):
        population = RandomPopulation(count, seed=count)
        packed = pack_bursts(population)
        assert packed.dtype.name == "uint8"
        assert packed.tolist() == pack_bursts(population.bursts()).tolist()

    def test_explicit_population_packs_like_its_bursts(self):
        bursts = [Burst([value, 255 - value, 7]) for value in range(40)]
        population = ExplicitPopulation(bursts)
        assert (pack_bursts(population).tolist()
                == pack_bursts(population.bursts()).tolist())

    def test_ragged_population_does_not_pack(self):
        ragged = ExplicitPopulation([Burst([1, 2]), Burst([3])])
        assert try_pack_bursts(ragged) is None
        with pytest.raises(ValueError):
            pack_bursts(ragged)


@needs_numpy
class TestPopulationsStayPacked:
    """With NumPy, the axes and synthetic payloads never build a Burst,
    and give what the per-burst reference gives."""

    def test_faults_axis(self, population, monkeypatch):
        spec = fault_experiment(population, rates=(0.01, 0.1))
        expected = run_faults(spec, backend="reference").series
        _forbid_bursts(monkeypatch)
        assert run_faults(spec).series == expected
        with mock.patch.object(bitsim, "_np", None):
            assert run_faults(spec).series == expected

    def test_granularity_axis(self, population, monkeypatch):
        spec = granularity_experiment(population)
        expected = run_granularity(spec, backend="reference").rows
        _forbid_bursts(monkeypatch)
        assert run_granularity(spec).rows == expected

    def test_sso_axis(self, population, monkeypatch):
        spec = sso_experiment(population, interfaces=("pod135",))
        expected = run_sso(spec, backend="reference").series
        _forbid_bursts(monkeypatch)
        assert run_sso(spec).series == expected

    def test_figure_tally(self, population, monkeypatch):
        scheme = get_scheme("dbi-opt")
        expected = population_activity(scheme, population,
                                       backend="reference")
        _forbid_bursts(monkeypatch)
        assert population_activity(scheme, population) == expected

    def test_ctrl_payload(self, monkeypatch):
        from repro.cli import _ctrl_trace

        expected = b"".join(bytes(burst.data) for burst in
                            RandomPopulation(count=300, seed=5))
        args = argparse.Namespace(trace=None, trace_file=None, bursts=300,
                                  seed=5, bytes=None, chunk_bytes=4096)
        _forbid_bursts(monkeypatch)
        assert _ctrl_trace(args) == {"payload": expected}

    def test_daemon_replay_payload(self, monkeypatch):
        from repro.service.daemon import replay_spec_from_params

        expected = b"".join(bytes(burst.data) for burst in
                            RandomPopulation(count=60, seed=9))
        _forbid_bursts(monkeypatch)
        spec = replay_spec_from_params({"bursts": 60, "seed": 9})
        assert spec.payload == expected


class TestOneDrawPerAxisRun:
    """A faults, granularity or sso run draws its random population once
    and shares it across schemes, on every backend, NumPy or not; the
    batched fault engine reads only the population's beat count and
    draws none of it."""

    @staticmethod
    def count_draws(monkeypatch):
        # One RNG pass: the NumPy block generator, or the pure-Python
        # chunk stream.
        name = "_generation_blocks" if HAVE_NUMPY else "iter_chunks"
        original = getattr(RandomPopulation, name)
        draws = []

        def counted(self, *args, **kwargs):
            draws.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RandomPopulation, name, counted)
        return draws

    @pytest.mark.parametrize("backend", (None, "reference"))
    @pytest.mark.parametrize("run, make_spec", (
        (run_faults, fault_experiment),
        (run_granularity, granularity_experiment),
        (run_sso, sso_experiment),
    ))
    def test_one_draw(self, population, monkeypatch, run, make_spec,
                      backend):
        spec = make_spec(population)
        draws = self.count_draws(monkeypatch)
        run(spec, backend=backend)
        batched_faults = (run is run_faults
                          and bitsim.resolve_sim_backend(backend) == "vector")
        assert len(draws) == (0 if batched_faults else 1)


class TestInputForms:
    """The public entry points on the encoder take a burst list, an
    iterator or a population, with one answer."""

    @staticmethod
    def forms(population):
        return (population.bursts(), iter(population.bursts()), population)

    def test_tallies(self, population):
        from repro.sim.sweep import collect_activity

        scheme = get_scheme("dbi-opt")
        totals = [collect_activity(scheme, bursts)
                  for bursts in self.forms(population)]
        metrics = [evaluate([scheme], bursts)["dbi-opt"]
                   for bursts in self.forms(population)]
        assert totals[0] == totals[1] == totals[2]
        assert metrics[0] == metrics[1] == metrics[2]

    def test_encode_batch(self, population):
        scheme = get_scheme("dbi-ac")
        answers = [[encoded.words for encoded in scheme.encode_batch(bursts)]
                   for bursts in self.forms(population)]
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.parametrize("backend", (None, "reference"))
    def test_fault_engines(self, population, backend):
        from repro.extensions.reliability import (fault_coverage_curve,
                                                  fault_coverage_rows,
                                                  fault_sweep_batch)

        scheme = get_scheme("dbi-dc")
        answers = [(fault_sweep_batch(scheme, bursts, seed=3,
                                      backend=backend),)
                   for bursts in self.forms(population)]
        answers += [tuple(fault_coverage_curve(scheme, bursts, rates=(0.05,),
                                               backend=backend))
                    for bursts in self.forms(population)]
        answers += [tuple(fault_coverage_rows([(scheme, 0.05)], bursts,
                                              backend=backend))
                    for bursts in self.forms(population)]
        assert answers[0] == answers[1] == answers[2]
        assert answers[3] == answers[4] == answers[5]
        assert answers[3] == answers[6] == answers[7] == answers[8]

    @pytest.mark.parametrize("chained", (False, True))
    def test_sso_engine(self, population, chained):
        from repro.analysis.sso import sso_of_scheme_batch

        scheme = get_scheme("dbi-ac")
        answers = [sso_of_scheme_batch(scheme, bursts, chained=chained)
                   for bursts in self.forms(population)]
        assert answers[0] == answers[1] == answers[2]

    def test_byte_lane(self, population):
        from repro.phy.bus import ByteLane

        snapshots = []
        for bursts in self.forms(population):
            lane = ByteLane(scheme=get_scheme("dbi-dc"))
            lane.send_bursts(bursts, energy_model=None)
            snapshots.append((vars(lane.stats), lane.state_word))
        assert snapshots[0] == snapshots[1] == snapshots[2]
