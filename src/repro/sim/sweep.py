"""Parameter sweeps reproducing the paper's figures.

* :func:`alpha_sweep` — Figs. 3/4: abstract cost per burst as the AC-cost
  fraction runs from 0 to 1 (alpha = ac, beta = 1 − ac) over a random
  burst population.
* :func:`data_rate_sweep` — Fig. 7: physical interface energy per burst
  versus per-pin data rate, normalised to RAW.
* :func:`load_sweep` — Fig. 8: OPT (Fixed) energy *including encoding
  energy* versus data rate for several load capacitances, normalised to
  the best conventional scheme.

All three are thin wrappers over the declarative experiment engine
(:mod:`repro.sim.experiments`): each builds an
:class:`~repro.sim.experiments.ExperimentSpec`, runs it through
:func:`~repro.sim.experiments.run_experiment` (content-addressed
activity cache, optional process-pool ``jobs``), and converts the
result back to the legacy dataclasses with bit-identical numbers.  The
``to_*_result`` converters also re-render persisted artifacts
(:func:`~repro.sim.experiments.load_artifact`) without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.burst import Burst
from ..core.schemes import DbiScheme
from ..phy.pod import PodInterface
from ..phy.power import PICOFARAD
from .experiments import (
    ActivityCache,
    ActivityTotals,
    ExperimentResult,
    alpha_experiment,
    load_experiment,
    population_activity,
    rate_experiment,
    run_experiment,
)

__all__ = [
    "ActivityTotals",
    "AlphaSweepResult",
    "DataRateSweepResult",
    "LoadSweepResult",
    "alpha_sweep",
    "collect_activity",
    "data_rate_sweep",
    "load_sweep",
    "to_alpha_result",
    "to_figure_result",
    "to_load_result",
    "to_rate_result",
]


#: The one population tally, under the name the figure code has always
#: used (the same function object).
collect_activity = population_activity


@dataclass
class AlphaSweepResult:
    """Fig. 3/4 data: mean cost per burst per scheme per AC-cost point."""

    ac_costs: List[float]
    #: scheme name -> list of mean costs aligned with :attr:`ac_costs`.
    series: Dict[str, List[float]] = field(default_factory=dict)

    def advantage_over_conventional(self) -> List[float]:
        """Relative OPT gain vs best(DC, AC) at each point (the shaded area)."""
        gains = []
        for index in range(len(self.ac_costs)):
            conventional = min(self.series["dbi-dc"][index],
                               self.series["dbi-ac"][index])
            gains.append(1.0 - self.series["dbi-opt"][index] / conventional)
        return gains

    def crossover_ac_cost(self, first: str = "dbi-ac",
                          second: str = "dbi-dc") -> Optional[float]:
        """First sweep point where *first* becomes cheaper than *second*."""
        for ac_cost, a, b in zip(self.ac_costs, self.series[first],
                                 self.series[second]):
            if a < b:
                return ac_cost
        return None


def alpha_sweep(bursts: Sequence[Burst], points: int = 51,
                include_fixed: bool = False,
                extra_schemes: Optional[Dict[str, DbiScheme]] = None,
                backend: Optional[str] = None, jobs: int = 1,
                cache: Optional[ActivityCache] = None) -> AlphaSweepResult:
    """Reproduce Fig. 3 (and Fig. 4 with ``include_fixed=True``).

    RAW/DC/AC/OPT(Fixed) encode once (their decisions don't depend on the
    swept coefficients); OPT re-encodes at every point with a distinct
    alpha/beta ratio.  Delegates to the experiment engine — ``jobs`` fans
    the encodes out to a process pool, ``cache`` shares activity totals
    across calls.
    """
    spec = alpha_experiment(bursts, points=points,
                            include_fixed=include_fixed,
                            extra_schemes=extra_schemes)
    result = run_experiment(spec, backend=backend, jobs=jobs, cache=cache)
    return to_alpha_result(result)


@dataclass
class DataRateSweepResult:
    """Fig. 7 data: normalised energy per burst per scheme per data rate."""

    data_rates_hz: List[float]
    #: scheme name -> normalised-to-RAW energies aligned with data rates.
    normalized: Dict[str, List[float]] = field(default_factory=dict)
    #: scheme name -> absolute energies in joules.
    absolute: Dict[str, List[float]] = field(default_factory=dict)

    def best_gain(self, scheme: str) -> Tuple[float, float]:
        """(data rate, normalised energy) at *scheme*'s best point."""
        series = self.normalized[scheme]
        index = min(range(len(series)), key=series.__getitem__)
        return self.data_rates_hz[index], series[index]


def data_rate_sweep(bursts: Sequence[Burst],
                    interface: Optional[PodInterface] = None,
                    c_load_farads: float = 3 * PICOFARAD,
                    data_rates_hz: Optional[Sequence[float]] = None,
                    backend: Optional[str] = None, jobs: int = 1,
                    cache: Optional[ActivityCache] = None
                    ) -> DataRateSweepResult:
    """Reproduce Fig. 7: interface energy vs data rate, normalised to RAW.

    OPT re-encodes at every rate with the physical (E_transition, E_zero)
    weights; OPT (Fixed) encodes once with alpha=beta=1 but its activity is
    priced with the physical model, exactly as hardware with hardwired
    coefficients would behave.
    """
    spec = rate_experiment(bursts, interface=interface,
                           c_load_farads=c_load_farads,
                           data_rates_hz=data_rates_hz)
    result = run_experiment(spec, backend=backend, jobs=jobs, cache=cache)
    return to_rate_result(result)


@dataclass
class LoadSweepResult:
    """Fig. 8 data: OPT(Fixed)+encoder energy vs best conventional."""

    data_rates_hz: List[float]
    #: c_load (farads) -> normalised series aligned with data rates.
    normalized: Dict[float, List[float]] = field(default_factory=dict)

    def best_gain(self, c_load_farads: float) -> Tuple[float, float]:
        """(data rate, normalised energy) at the load's best point."""
        series = self.normalized[c_load_farads]
        index = min(range(len(series)), key=series.__getitem__)
        return self.data_rates_hz[index], series[index]


def load_sweep(bursts: Sequence[Burst],
               interface: Optional[PodInterface] = None,
               c_loads_farads: Sequence[float] = (1e-12, 2e-12, 3e-12,
                                                  4e-12, 6e-12, 8e-12),
               data_rates_hz: Optional[Sequence[float]] = None,
               encoder_energy_j: Optional[Dict[str, float]] = None,
               backend: Optional[str] = None, jobs: int = 1,
               cache: Optional[ActivityCache] = None) -> LoadSweepResult:
    """Reproduce Fig. 8: total (interface + encoder) energy per burst of
    OPT (Fixed), normalised to the better of DBI DC / DBI AC, across loads.

    ``encoder_energy_j`` maps scheme name -> encoding energy per burst in
    joules; when omitted, the gate-level synthesis estimates from
    :mod:`repro.hw.synthesis` are used.  The engine hoists the per-cell
    interface-energy coefficients into the grid, so the three schemes'
    totals are priced without re-deriving the energy model per scheme.
    """
    spec = load_experiment(bursts, interface=interface,
                           c_loads_farads=c_loads_farads,
                           data_rates_hz=data_rates_hz,
                           encoder_energy_j=encoder_energy_j)
    result = run_experiment(spec, backend=backend, jobs=jobs, cache=cache)
    return to_load_result(result)


# -- engine-result converters ------------------------------------------------

def _require_figure(result: ExperimentResult, figure: str) -> None:
    if result.spec.figure != figure:
        raise ValueError(
            f"experiment {result.spec.name!r} renders figure "
            f"{result.spec.figure!r}, not {figure!r}")


def to_alpha_result(result: ExperimentResult) -> AlphaSweepResult:
    """Convert an engine result (or loaded artifact) to Fig. 3/4 form."""
    _require_figure(result, "alpha")
    ac_costs = list(result.spec.figure_params["ac_costs"])
    sweep = AlphaSweepResult(ac_costs=ac_costs)
    for name, values in result.series.items():
        sweep.series[name] = list(values)
    return sweep


def to_rate_result(result: ExperimentResult) -> DataRateSweepResult:
    """Convert an engine result (or loaded artifact) to Fig. 7 form."""
    _require_figure(result, "rate")
    rates = list(result.spec.figure_params["data_rates_hz"])
    sweep = DataRateSweepResult(data_rates_hz=rates)
    raw_series = result.series["raw"]
    for name, values in result.series.items():
        sweep.absolute[name] = list(values)
        sweep.normalized[name] = [energy / raw_energy
                                  for energy, raw_energy in zip(values,
                                                                raw_series)]
    return sweep


def to_load_result(result: ExperimentResult) -> LoadSweepResult:
    """Convert an engine result (or loaded artifact) to Fig. 8 form."""
    _require_figure(result, "load")
    params = result.spec.figure_params
    loads = list(params["c_loads_farads"])
    rates = list(params["data_rates_hz"])
    encoder_energy_j = params["encoder_energy_j"]
    sweep = LoadSweepResult(data_rates_hz=rates)
    for load_index, c_load in enumerate(loads):
        series: List[float] = []
        for rate_index in range(len(rates)):
            cell = load_index * len(rates) + rate_index
            totals = {
                name: result.series[name][cell] + encoder_energy_j[name]
                for name in ("dbi-dc", "dbi-ac", "dbi-opt-fixed")
            }
            conventional = min(totals["dbi-dc"], totals["dbi-ac"])
            series.append(totals["dbi-opt-fixed"] / conventional)
        sweep.normalized[c_load] = series
    return sweep


_CONVERTERS = {
    "alpha": to_alpha_result,
    "rate": to_rate_result,
    "load": to_load_result,
}


def to_figure_result(result: ExperimentResult):
    """Dispatch an engine result to its figure-specific legacy form."""
    converter = _CONVERTERS.get(result.spec.figure)
    if converter is None:
        raise ValueError(
            f"experiment {result.spec.name!r} has no figure renderer "
            f"(figure={result.spec.figure!r})")
    return converter(result)
