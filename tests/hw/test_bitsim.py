"""Differential parity suite for the bit-parallel compiled simulator.

The scalar interpreter of :meth:`Netlist.simulate_activity` /
:meth:`Netlist.evaluate` is the executable specification; the compiled
engine of :mod:`repro.hw.bitsim` must be *bit-identical* to it — same
per-gate toggle tallies, same outputs — whichever branch of
:func:`~repro.hw.bitsim.pack_planes` packs its inputs and however they
are chunked.  This suite enforces that over hypothesis-generated random
netlists, hand-built corner cases and every encoder design of
:mod:`repro.hw.encoders`.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.burst import Burst
from repro.hw import bitsim
from repro.hw.activity import iter_vectors, measure_activity, vectors_from_bursts
from repro.hw.bitsim import (
    CompiledNetlist,
    compile_netlist,
    pack_planes,
    resolve_sim_backend,
    word_function_from_truth_table,
)
from repro.hw.cells import LIBRARY, Cell
from repro.hw.encoders import (
    build_ac_encoder,
    build_dc_encoder,
    build_decoder,
    build_opt_encoder,
)
from repro.hw.netlist import CONST0, CONST1, Netlist

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: The :func:`~repro.hw.bitsim.pack_planes` branches testable here, by the
#: ids these legs have always had: ``int`` hides NumPy from the packer (its
#: ``bytes.translate`` branch), ``uint64`` packs through NumPy.
PACKERS = ("int", "uint64") if HAVE_NUMPY else ("int",)


def packed_on(packer):
    """A context running the packed engines on one packer branch."""
    hidden = None if packer == "int" else bitsim._np
    return mock.patch.object(bitsim, "_np", hidden)

CELL_NAMES = sorted(LIBRARY)


def random_vectors(netlist, count, seed):
    rng = random.Random(seed)
    return [
        {name: rng.getrandbits(len(nets))
         for name, nets in netlist.inputs.items()}
        for _ in range(count)
    ]


def assert_parity(netlist, vectors, chunk_vectors=None):
    """Scalar vs bit-parallel: identical reports and identical outputs."""
    reference = netlist.simulate_activity(iter(vectors), backend="reference")
    reference_outputs = [netlist.evaluate(vector) for vector in vectors]
    compiled = compile_netlist(netlist)
    for packer in PACKERS:
        with packed_on(packer):
            report = compiled.simulate_activity(iter(vectors),
                                                chunk_vectors=chunk_vectors)
            outputs = compiled.evaluate_batch(vectors,
                                              chunk_vectors=chunk_vectors)
        assert report.gate_toggles == reference.gate_toggles
        assert report.n_cycles == reference.n_cycles
        assert outputs == reference_outputs


# -- hypothesis-generated netlists -------------------------------------------

@st.composite
def netlists(draw):
    """A random combinational netlist over the full cell library."""
    nl = Netlist("random")
    nets = [CONST0, CONST1]
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        nets.extend(nl.add_input(f"in{index}",
                                 draw(st.integers(min_value=1, max_value=5))))
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        cell = LIBRARY[draw(st.sampled_from(CELL_NAMES))]
        inputs = [draw(st.sampled_from(nets))
                  for _ in range(cell.n_inputs)]
        nets.append(nl.gate(cell.name, *inputs))
    nl.mark_output("y", draw(st.lists(st.sampled_from(nets), min_size=1,
                                      max_size=6)))
    return nl


@settings(max_examples=60, deadline=None)
@given(netlist=netlists(), seed=st.integers(min_value=0, max_value=2**32),
       count=st.integers(min_value=2, max_value=70),
       chunk=st.sampled_from([None, 1, 2, 7, 16, 64]))
def test_random_netlist_parity(netlist, seed, count, chunk):
    vectors = random_vectors(netlist, count, seed)
    assert_parity(netlist, vectors, chunk_vectors=chunk)


# -- every encoder design ----------------------------------------------------

def _random_bursts(count, seed, length=8):
    rng = random.Random(seed)
    return [Burst([rng.getrandbits(8) for _ in range(length)])
            for _ in range(count)]


@pytest.mark.parametrize("build,coefficients", [
    (lambda: build_dc_encoder(8), {}),
    (lambda: build_ac_encoder(8), {}),
    (lambda: build_opt_encoder(8), {}),
    (lambda: build_opt_encoder(8, adder="carry-select"), {}),
    (lambda: build_opt_encoder(8, coefficient_bits=3),
     {"alpha": 3, "beta": 5}),
    (lambda: build_opt_encoder(4), {}),
], ids=["dc", "ac", "opt-fixed", "opt-carry-select", "opt-q3", "opt-len4"])
def test_encoder_parity(build, coefficients):
    netlist = build()
    length = sum(1 for name in netlist.inputs if name.startswith("byte"))
    vectors = vectors_from_bursts(_random_bursts(200, seed=0xBEEF,
                                                 length=length),
                                  **coefficients)
    assert_parity(netlist, vectors, chunk_vectors=77)


def test_decoder_parity():
    netlist = build_decoder(8)
    rng = random.Random(5)
    vectors = [{f"word{i}": rng.getrandbits(9) for i in range(8)}
               for _ in range(150)]
    assert_parity(netlist, vectors, chunk_vectors=64)


def test_measure_activity_backend_parity():
    """measure_activity's vector path (packed fast path when NumPy is
    present, dict packing otherwise) agrees with the scalar reference."""
    for build, coefficients in [
        (lambda: build_dc_encoder(8), {}),
        (lambda: build_opt_encoder(8), {}),
        (lambda: build_opt_encoder(8, coefficient_bits=3),
         {"alpha": 1, "beta": 1}),
    ]:
        netlist = build()
        reference = measure_activity(netlist, n_bursts=300,
                                     backend="reference", **coefficients)
        fast = measure_activity(netlist, n_bursts=300, backend="vector",
                                **coefficients)
        assert fast.gate_toggles == reference.gate_toggles
        assert fast.n_cycles == reference.n_cycles


# -- chunk boundaries --------------------------------------------------------

@pytest.mark.parametrize("packer", PACKERS)
@pytest.mark.parametrize("count", [2, 3, 63, 64, 65, 128, 129])
def test_chunk_boundaries(packer, count):
    """Vector counts straddling word and chunk boundaries; toggles that
    cross a chunk seam must still be counted exactly once."""
    netlist = build_dc_encoder(2)
    vectors = vectors_from_bursts(_random_bursts(count, seed=count, length=2))
    reference = netlist.simulate_activity(iter(vectors), backend="reference")
    compiled = compile_netlist(netlist)
    for chunk in (1, 2, 63, 64, 65, None):
        with packed_on(packer):
            report = compiled.simulate_activity(iter(vectors),
                                                chunk_vectors=chunk)
        assert report.gate_toggles == reference.gate_toggles, (chunk, count)
        assert report.n_cycles == count - 1


def test_alternating_input_every_cycle_toggles():
    nl = Netlist("alt")
    a, = nl.add_input("a", 1)
    nl.mark_output("y", [nl.gate("INV", a)])
    vectors = [{"a": i & 1} for i in range(130)]
    for packer in PACKERS:
        with packed_on(packer):
            report = compile_netlist(nl).simulate_activity(vectors,
                                                           chunk_vectors=32)
        assert report.gate_toggles == [129]


# -- validation and semantics parity -----------------------------------------

class TestValidation:
    def test_needs_two_vectors(self):
        nl = build_dc_encoder(2)
        compiled = compile_netlist(nl)
        with pytest.raises(ValueError, match="at least 2"):
            compiled.simulate_activity([])
        with pytest.raises(ValueError, match="at least 2"):
            compiled.simulate_activity(vectors_from_bursts([Burst([1, 2])]))

    def test_short_generator_fails_without_simulation(self):
        """The scalar path must fail fast on a 1-vector generator without
        propagating it through the netlist (satellite fix)."""
        from repro.hw.netlist import Gate

        nl = Netlist("probe")
        calls = []
        buf = LIBRARY["BUF"]
        probe = Cell("BUF", 1, buf.area_um2, buf.leakage_nw,
                     buf.toggle_energy_fj, buf.delay_ps,
                     lambda a: calls.append(1) or a)
        a, = nl.add_input("a", 1)
        output = nl.new_net()
        nl.gates.append(Gate(cell=probe, inputs=(a,), output=output))
        nl.mark_output("y", [output])
        with pytest.raises(ValueError, match="at least 2"):
            nl.simulate_activity(iter([{"a": 1}]), backend="reference")
        assert calls == []  # nothing was simulated

    def test_missing_input_raises_keyerror(self):
        nl = build_dc_encoder(2)
        compiled = compile_netlist(nl)
        with pytest.raises(KeyError, match="missing input"):
            compiled.simulate_activity([{"byte0": 1}] * 3)

    def test_input_overflow_rejected(self):
        nl = Netlist("w")
        nl.add_input("a", 2)
        nl.mark_output("y", [nl.inputs["a"][0]])
        with pytest.raises(ValueError, match="does not fit"):
            compile_netlist(nl).evaluate_batch([{"a": 4}])


class TestBackendDispatch:
    def test_netlist_level_dispatch(self):
        nl = build_dc_encoder(4)
        vectors = vectors_from_bursts(_random_bursts(40, seed=9, length=4))
        reference = nl.simulate_activity(iter(vectors), backend="reference")
        for backend in (None, "auto", "vector"):
            report = nl.simulate_activity(iter(vectors), backend=backend)
            assert report.gate_toggles == reference.gate_toggles
        assert nl.evaluate_batch(vectors, backend="vector") == \
            nl.evaluate_batch(vectors, backend="reference")

    def test_resolve_sim_backend(self):
        assert resolve_sim_backend("auto") == "vector"
        assert resolve_sim_backend("vector") == "vector"
        assert resolve_sim_backend("reference") == "reference"
        with pytest.raises(ValueError):
            resolve_sim_backend("fpga")

    def test_process_default_respected(self):
        import repro

        previous = repro.get_default_backend()
        try:
            repro.set_default_backend("reference")
            assert resolve_sim_backend() == "reference"
            repro.set_default_backend("auto")
            assert resolve_sim_backend() == "vector"
        finally:
            repro.set_default_backend(previous)


class TestCompilation:
    def test_compile_cache_reused(self):
        nl = build_dc_encoder(2)
        assert compile_netlist(nl) is compile_netlist(nl)

    def test_compile_cache_invalidated_by_new_gate(self):
        nl = Netlist("grow")
        a, = nl.add_input("a", 1)
        first = compile_netlist(nl)
        nl.mark_output("y", [nl.gate("INV", a)])
        second = compile_netlist(nl)
        assert second is not first
        assert second.evaluate_batch([{"a": 0}])[0]["y"] == 1

    def test_word_function_from_truth_table_matches_scalar(self):
        """The SOP fallback agrees with every library cell's scalar
        function on all input combinations, lane-wise."""
        from itertools import product

        for cell in list(LIBRARY.values()):
            synthesised = word_function_from_truth_table(cell)
            combos = list(product((0, 1), repeat=cell.n_inputs))
            mask = (1 << len(combos)) - 1
            # lane i of each input word carries combo i
            words = [
                sum(combo[pin] << i for i, combo in enumerate(combos))
                for pin in range(cell.n_inputs)
            ]
            expected = sum(cell.function(*combo) << i
                           for i, combo in enumerate(combos))
            assert synthesised(mask, *words) == expected, cell.name

    def test_cell_evaluate_words_fallback(self):
        bare = Cell("CUSTOM_AND", 2, 1.0, 1.0, 1.0, 1.0,
                    lambda a, b: a & b)
        assert bare.word_function is None
        assert bare.evaluate_words(0b1111, 0b0011, 0b0101) == 0b0001

    def test_undriven_net_reads_zero(self):
        nl = Netlist("undriven")
        a, = nl.add_input("a", 1)
        floating = nl.new_net()
        nl.mark_output("y", [nl.gate("OR2", a, floating)])
        vectors = [{"a": 1}, {"a": 0}, {"a": 1}]
        assert_parity(nl, vectors)

    def test_constants_in_outputs(self):
        nl = Netlist("consts")
        a, = nl.add_input("a", 1)
        nl.gate("INV", a)  # a gate whose output is not observed
        nl.mark_output("y", [CONST0, CONST1, a])
        vectors = [{"a": 1}, {"a": 0}]
        assert_parity(nl, vectors)


# -- the packer --------------------------------------------------------------

def _definition(values, width):
    """Bit *i* of plane *p* is bit *p* of ``values[i]``, one bit at a time."""
    return [sum(((value >> position) & 1) << index
                for index, value in enumerate(values))
            for position in range(width)]


PACKER_INPUTS = ("list", "bytes") + (("array",) if HAVE_NUMPY else ())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(min_value=1, max_value=16),
       length=st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 128, 300])
       | st.integers(min_value=0, max_value=300),
       form=st.sampled_from(PACKER_INPUTS))
def test_pack_planes_is_the_per_bit_definition(data, width, length, form):
    """Across byte and 64-bit seams, values wider than *width* included,
    both branches give the per-bit planes for every input form."""
    top = 0xFF if form == "bytes" else 0xFFFF
    values = data.draw(st.lists(st.integers(min_value=0, max_value=top),
                                min_size=length, max_size=length))
    if form == "bytes":
        packed = bytes(values)
    elif form == "array":
        import numpy

        packed = numpy.asarray(values, dtype=numpy.int64)
    else:
        packed = values
    expected = _definition(values, width)
    for packer in PACKERS:
        with packed_on(packer):
            assert pack_planes(packed, width) == expected, packer
