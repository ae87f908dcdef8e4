"""Unit tests for the synthesis estimator and the Table I reproduction.

Absolute numbers are calibration-dependent; these tests pin down the
*orderings and ratios* the paper's Table I establishes, and hold the
pinned encoder energies Fig. 8 reads to the table's exact values.
"""

import pytest

from repro.hw import ENCODER_ENERGY_PER_BURST_J
from repro.hw.synthesis import (
    SynthesisResult,
    TARGET_BURST_RATE_HZ,
    _design_specs,
    _leakage_derate,
    encoder_energy_per_burst,
    synthesize,
    table_one,
    table_one_markdown,
)


@pytest.fixture(scope="module")
def results():
    return table_one()


class TestLeakageDerate:
    def test_relaxed_designs_unpenalised(self):
        assert _leakage_derate(0.3) == 1.0
        assert _leakage_derate(0.6) == 1.0

    def test_monotone_increasing(self):
        values = [_leakage_derate(p) for p in (0.6, 0.8, 1.0, 2.0, 3.0)]
        assert values == sorted(values)

    def test_capped(self):
        assert _leakage_derate(100.0) == 30.0


class TestSynthesisResult:
    def test_derived_quantities(self):
        result = SynthesisResult(
            design="x", area_um2=100.0, static_power_w=1e-6,
            dynamic_power_w=2e-6, burst_rate_hz=1e9,
            max_burst_rate_hz=2e9, meets_target=True, n_gates=10,
            n_register_bits=8, critical_path_ps=500.0)
        assert result.total_power_w == pytest.approx(3e-6)
        assert result.energy_per_burst_j == pytest.approx(3e-15)
        assert result.data_rate_gbps == pytest.approx(8.0)


class TestTableOne:
    def test_all_four_designs(self, results):
        assert set(results) == {"dbi-dc", "dbi-ac", "dbi-opt-fixed",
                                "dbi-opt-q3"}

    def test_area_ordering(self, results):
        """Paper: 275 < 578 < 3807 < 16584 um2."""
        assert (results["dbi-dc"].area_um2
                < results["dbi-ac"].area_um2
                < results["dbi-opt-fixed"].area_um2
                < results["dbi-opt-q3"].area_um2)

    def test_timing_story(self, results):
        """Paper: DC/AC/OPT(Fixed) meet 1.5 GHz; the 3-bit design fails
        and runs around 0.5 GHz."""
        assert results["dbi-dc"].meets_target
        assert results["dbi-ac"].meets_target
        assert results["dbi-opt-fixed"].meets_target
        assert not results["dbi-opt-q3"].meets_target
        assert results["dbi-opt-q3"].burst_rate_hz < 0.8e9
        assert results["dbi-opt-q3"].burst_rate_hz > 0.2e9

    def test_target_rate_when_met(self, results):
        assert results["dbi-dc"].burst_rate_hz == TARGET_BURST_RATE_HZ

    def test_energy_ordering(self, results):
        """Paper: 0.14 < 0.28 < 1.66 < 17.6 pJ per burst."""
        energies = [results[name].energy_per_burst_j
                    for name in ("dbi-dc", "dbi-ac", "dbi-opt-fixed",
                                 "dbi-opt-q3")]
        assert energies == sorted(energies)

    def test_configurable_energy_blowup(self, results):
        """Paper: the 3-bit design burns ~10.6x the fixed design's energy
        per burst; require at least a substantial multiple."""
        ratio = (results["dbi-opt-q3"].energy_per_burst_j
                 / results["dbi-opt-fixed"].energy_per_burst_j)
        assert ratio > 4

    def test_fixed_area_overhead_is_insignificant(self, results):
        """The paper's headline: OPT (Fixed) costs only a few thousand um2
        — negligible against a GPU die (hundreds of mm2)."""
        die_mm2 = 300.0
        encoder_mm2 = results["dbi-opt-fixed"].area_um2 / 1e6
        # Even one encoder per byte lane x 12 channels is < 0.1% of die.
        assert 48 * encoder_mm2 / die_mm2 < 0.001

    def test_energy_magnitudes_same_order_as_paper(self, results):
        """Order-of-magnitude guardrails against calibration drift."""
        assert 0.05e-12 < results["dbi-dc"].energy_per_burst_j < 1e-12
        assert 0.5e-12 < results["dbi-opt-fixed"].energy_per_burst_j < 8e-12
        assert 4e-12 < results["dbi-opt-q3"].energy_per_burst_j < 50e-12

    def test_static_power_pressure_effect(self, results):
        """The timing-failing design shows the low-Vt leakage blow-up."""
        fixed_density = (results["dbi-opt-fixed"].static_power_w
                         / results["dbi-opt-fixed"].area_um2)
        q3_density = (results["dbi-opt-q3"].static_power_w
                      / results["dbi-opt-q3"].area_um2)
        assert q3_density > 2 * fixed_density


class TestHelpers:
    def test_markdown_contains_rows(self, results):
        text = table_one_markdown(results)
        assert "DBI OPT (Fixed Coeff.)" in text
        assert text.count("|") > 20

    def test_encoder_energy_map(self):
        energies = encoder_energy_per_burst()
        assert energies["raw"] == 0.0
        assert energies["dbi-dc"] > 0
        assert set(energies) >= {"raw", "dbi-dc", "dbi-ac",
                                 "dbi-opt-fixed", "dbi-opt-q3"}
        energies["dbi-dc"] = 0.0
        assert encoder_energy_per_burst() == dict(ENCODER_ENERGY_PER_BURST_J)

    def test_synthesize_relaxed_target(self):
        """At a relaxed 0.2 GHz target every design closes timing."""
        for spec in _design_specs().values():
            result = synthesize(spec, target_burst_rate_hz=0.2e9,
                                activity_bursts=20)
            assert result.meets_target


class TestPinnedEnergies:
    """Fig. 8 reads Table I's energies from constants; they must be what
    the table computes, bit for bit, with or without NumPy."""

    def test_pinned_energies_are_the_tables(self, results):
        assert set(ENCODER_ENERGY_PER_BURST_J) == set(results) | {"raw"}
        drifted = {name: f"computed {result.energy_per_burst_j.hex()}, "
                         f"pinned {ENCODER_ENERGY_PER_BURST_J[name].hex()}"
                   for name, result in results.items()
                   if result.energy_per_burst_j
                   != ENCODER_ENERGY_PER_BURST_J[name]}
        assert not drifted, (
            f"re-pin repro.hw.ENCODER_ENERGY_PER_BURST_J: {drifted}")
