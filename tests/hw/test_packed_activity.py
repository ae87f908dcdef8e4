"""The packed activity path at word and chunk seams.

:func:`repro.hw.activity.measure_activity` packs each byte lane of a
rectangular population into Python-int bit planes, one per
:data:`~repro.hw.activity.ACTIVITY_CHUNK_VECTORS`-vector chunk, and runs
the compiled netlist straight on them.  Its toggles must equal the
scalar interpreter (the specification) and the dict-vector engine,
whatever the population size, design, population form, or whether NumPy
is installed — and a population packed once for several designs must
give each the toggles of drawing it alone.
"""

from unittest import mock

import pytest

from repro.hw import activity, bitsim
from repro.hw.activity import (
    ACTIVITY_CHUNK_VECTORS,
    PackedPopulation,
    iter_vectors,
    measure_activity,
)
from repro.hw.bitsim import compile_netlist
from repro.hw.synthesis import _design_specs, synthesize, table_one
from repro.workloads.patterns import pattern_population
from repro.workloads.population import ExplicitPopulation, RandomPopulation

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Table I's designs, built once per session.
DESIGNS = {name: (spec, spec.build())
           for name, spec in _design_specs().items()}

#: Populations up to this size are also checked against the scalar
#: interpreter; larger ones against the dict-vector engine only.
SCALAR_LIMIT = 65

POPULATION_SIZES = (2, 3, 63, 64, 65, ACTIVITY_CHUNK_VECTORS,
                    ACTIVITY_CHUNK_VECTORS + 1)


def _coefficients(spec):
    return {"alpha": spec.alpha, "beta": spec.beta}


def _assert_matches_engines(netlist, population, coefficients):
    packed = measure_activity(netlist, population=population,
                              **coefficients)
    dict_vectors = compile_netlist(netlist).simulate_activity(
        iter_vectors(population, **coefficients))
    assert packed.gate_toggles == dict_vectors.gate_toggles
    assert packed.n_cycles == len(population) - 1
    if len(population) <= SCALAR_LIMIT:
        reference = measure_activity(netlist, population=population,
                                     backend="reference", **coefficients)
        assert packed.gate_toggles == reference.gate_toggles


@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("count", POPULATION_SIZES)
def test_random_population_at_seams(design, count):
    spec, netlist = DESIGNS[design]
    _assert_matches_engines(netlist, RandomPopulation(count=count, seed=count),
                            _coefficients(spec))


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_patterned_population(design):
    """Burst lists (the NumPy-free form) are packed through their bytes."""
    spec, netlist = DESIGNS[design]
    _assert_matches_engines(netlist, pattern_population(repeats=3),
                            _coefficients(spec))


@pytest.mark.parametrize("count", (63, 64, 65, 129))
def test_small_chunks_against_the_scalar_interpreter(monkeypatch, count):
    """Many chunk seams inside one scalar-checkable population."""
    monkeypatch.setattr(activity, "ACTIVITY_CHUNK_VECTORS", 64)
    spec, netlist = DESIGNS["dbi-opt-q3"]
    population = RandomPopulation(count=count, seed=count)
    packed = measure_activity(netlist, population=population,
                              **_coefficients(spec))
    reference = measure_activity(netlist, population=population,
                                 backend="reference", **_coefficients(spec))
    assert packed.gate_toggles == reference.gate_toggles


def test_both_packers_agree():
    """An array batch packed through NumPy and the same bursts as a list
    packed without it give equal planes."""
    if not HAVE_NUMPY:
        pytest.skip("the array packer needs NumPy")
    population = RandomPopulation(count=1000, seed=3)
    batch = next(population.iter_packed(len(population)))
    with mock.patch.object(bitsim, "_np", None):
        planes = activity._lane_planes(population.bursts())
    assert activity._lane_planes(batch) == planes


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_shared_population_equals_drawing_alone(design):
    spec, netlist = DESIGNS[design]
    population = RandomPopulation(count=3000, seed=0x0DB1)
    shared = PackedPopulation(population)
    first = measure_activity(netlist, population=shared, **_coefficients(spec))
    again = measure_activity(netlist, population=shared, **_coefficients(spec))
    alone = measure_activity(netlist, population=population,
                             **_coefficients(spec))
    assert first.gate_toggles == again.gate_toggles == alone.gate_toggles


def test_table_one_equals_per_design_synthesis():
    results = table_one(2000)
    for name, (spec, __) in DESIGNS.items():
        assert results[name] == synthesize(spec, activity_bursts=2000)


def test_packed_population_is_its_population():
    population = pattern_population(repeats=2)
    packed = PackedPopulation(population)
    assert len(packed) == len(population)
    assert packed.digest() == population.digest()
    assert packed.burst_length == population.burst_length
    assert packed.bursts() == population.bursts()
    with pytest.raises(ValueError, match="ragged"):
        PackedPopulation(ExplicitPopulation([[1, 2], [3]]))
