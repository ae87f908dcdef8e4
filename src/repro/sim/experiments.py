"""Declarative experiment engine behind every figure, replay and ablation.

Every result the repro reports is one computation: run a workload (a
burst population, or a byte trace through the memory controller) under
each scheme, tally exact integer totals, then price those totals at a
grid of operating points.  Totals live in a content-addressed
:class:`ActivityCache` keyed by *what produced them* (scheme fingerprint,
cost-model ratio, fault rate, ... ``@`` population or trace digest), so
two requests that provably produce the same totals share one entry and
pricing never re-encodes.

Each experiment kind is one :class:`Axis` entry holding only what differs
between kinds: plan the cache keys, execute the missing ones, price, and
convert the spec to and from JSON.  One run loop owns the rest — backend
resolution, the fresh-cache default, hit/miss accounting, the render-only
refusal, ``elapsed_s`` and the version stamp — and one
``repro.experiment/1`` artifact codec (discriminated by ``kind``) plus one
totals codec (:func:`totals_to_json`, also the disk cache's record
format) persist every kind::

    kind         spec builder                 run function     loader
    -----------  ---------------------------  ---------------  -------------------------
    experiment   alpha_experiment,            run_experiment   load_artifact
                 rate_experiment,
                 load_experiment
    replay       interface_replay_experiment  run_replay       load_replay_artifact
    faults       fault_experiment             run_faults       load_fault_artifact
    granularity  granularity_experiment       run_granularity  load_granularity_artifact
    sso          sso_experiment               run_sso          load_sso_artifact

    kind         cache key                                        counter
    -----------  -----------------------------------------------  ----------
    experiment   fingerprint@population                           encodes
    replay       ctrl[link,r=ratio]@trace (fixed points),         replays
                 ctrl[link,sched=...|track=...]@trace (adaptive)
    faults       fault[p=rate,s=seed]fingerprint@population       injections
    granularity  fingerprint@population                           encodes
    sso          sso[chained=0|1]fingerprint@population           encodes

The figure kind reproduces Figs. 3/4, 7 and 8 (the legacy functions in
:mod:`repro.sim.sweep` are thin wrappers with bit-identical results);
granularity entries share the figure kind's keys, so an ablation reuses
any encode a sweep already paid for.  Replays deduplicate operating
points by differential cost ratio (SSTL and LVSTL, both transition-only,
replay once), faults by (rate, seed, fingerprint), and SSO tallies are
interface-independent, so one encode serves a whole interface column.

Pricing is the linear form shared by the abstract cost model and the
physical energy model: ``alpha`` per transition, ``beta`` per zero.  Two
term orders exist only to preserve IEEE-754 bit-identity with the legacy
code paths (``cost`` mirrors :meth:`~repro.core.costs.CostModel.activity_cost`,
``energy`` mirrors :meth:`~repro.phy.power.InterfaceEnergyModel.burst_energy`).
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import platform
import threading
import time
from dataclasses import dataclass, field, fields
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..baselines import DbiAc, DbiDc, Raw
from ..core import vectorized
from ..core.bitops import ALL_ONES_WORD, WORD_WIDTH
from ..core.costs import CostModel
from ..core.encoder import DbiOptimal
from ..core.schemes import DbiScheme, get_scheme
from ..core.vectorized import resolve_backend
# Each axis imports its engine (the controller, the extensions, trace
# sources, the SSO tally) where it runs, so a cold call loads only its own.
from ..ctrl import CACHE_LINE_BYTES
from ..ctrl.adaptive import (
    OperatingPoint,
    OperatingPointSchedule,
    TrackingConfig,
)
from ..extensions import DEFAULT_FAULT_RATES, VALID_GROUP_SIZES
from ..phy.interface import get_interface
from ..phy.pod import PodInterface, pod135
from ..phy.power import GBPS, InterfaceEnergyModel, PICOFARAD
from ..workloads import DEFAULT_TRACE_CHUNK_BYTES
from ..workloads.population import (
    DEFAULT_CHUNK_SIZE,
    BurstPopulation,
    OpaquePopulation,
    RandomPopulation,
    as_population,
)
from .metrics import SchemeMetrics

#: Identifier written into every persisted artifact.
ARTIFACT_FORMAT = "repro.experiment/1"

#: Recognised pricing term orders (see module docstring).
PRICINGS = ("cost", "energy")


# -- activity totals ---------------------------------------------------------

@dataclass(frozen=True)
class ActivityTotals:
    """Population-level (transitions, zeros) totals for one encoding run."""

    transitions: int
    zeros: int
    bursts: int

    @property
    def mean_transitions(self) -> float:
        return self.transitions / self.bursts

    @property
    def mean_zeros(self) -> float:
        return self.zeros / self.bursts

    def mean_cost(self, model) -> float:
        """Mean abstract cost per burst."""
        return model.activity_cost(self.transitions, self.zeros) / self.bursts

    def mean_energy(self, energy_model) -> float:
        """Mean physical energy per burst in joules.

        Differential (zeros + transitions) pricing only: the totals carry
        no beat count, so the level-independent ``E_one`` floor of
        SSTL/LVSTL standards is not included — exact for POD, constant
        offset elsewhere (use the controller replay axis for full
        non-POD accounting).
        """
        return energy_model.burst_energy(self.transitions, self.zeros) / self.bursts


def population_metrics(scheme: DbiScheme, population,
                       backend: Optional[str] = None,
                       chunk_size: int = DEFAULT_CHUNK_SIZE,
                       chained: bool = False) -> SchemeMetrics:
    """The one population tally, behind every figure sweep and
    :func:`repro.sim.runner.evaluate`.

    The population streams through in chunks of its own form
    (:meth:`~repro.workloads.population.BurstPopulation.iter_batches`),
    each tallied by :func:`~repro.core.vectorized.scheme_batch_activity`.
    Every burst starts from the idle-high bus or, with ``chained``, from
    the last word before it, across chunk seams too.  Chunking and
    backend never change the result.
    """
    population = as_population(population)
    metrics = SchemeMetrics(scheme=scheme.name, bursts=len(population))
    last = ALL_ONES_WORD
    for chunk in population.iter_batches(chunk_size):
        transitions, zeros, inverted, beats, last = (
            vectorized.scheme_batch_activity(
                scheme, chunk, last if chained else ALL_ONES_WORD, chained,
                backend))
        metrics.transitions += transitions
        metrics.zeros += zeros
        metrics.inverted_bytes += inverted
        metrics.total_bytes += beats
    return metrics


def population_activity(scheme: DbiScheme, population,
                        backend: Optional[str] = None,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> ActivityTotals:
    """The (transitions, zeros) totals of :func:`population_metrics`,
    every burst from the idle-high bus;
    :func:`repro.sim.sweep.collect_activity` is this function."""
    metrics = population_metrics(scheme, population, backend, chunk_size)
    return ActivityTotals(transitions=metrics.transitions,
                          zeros=metrics.zeros, bursts=metrics.bursts)


def _one_batch(population):
    """The whole population as one batch in its own form (see
    :meth:`~repro.workloads.population.BurstPopulation.iter_batches`: a
    packed array for a random population with NumPy, a burst list
    otherwise), drawn once per axis run and shared by every scheme."""
    return next(population.iter_batches(len(population)))


# -- the activity cache ------------------------------------------------------

class ActivityCache:
    """Content-addressed store of every kind's totals records.

    A key (shapes in the module docstring) names what produced its
    totals — *content*, not object identity — so any two requests that
    provably produce the same totals collapse to one entry: OPT (Fixed)
    and the tracking OPT slot at AC fraction 0.5, two replay points with
    one differential cost ratio, or a granularity row and a figure
    encode of the same scheme.

    ``hits`` and ``misses`` count unique key lookups per run on every
    kind; ``misses`` equals the number of encodes/replays/injections
    actually executed.  Threads sharing one cache (the service daemon's)
    update them through :meth:`count_lookups`, under a lock.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, "CachedTotals"] = {}
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    @staticmethod
    def key_for(scheme: DbiScheme, population: BurstPopulation) -> str:
        return f"{scheme.fingerprint()}@{population.digest()}"

    def __len__(self) -> int:
        return len(self._totals)

    def __contains__(self, key: str) -> bool:
        return key in self._totals

    def get(self, key: str) -> "CachedTotals":
        return self._totals[key]

    def store(self, key: str, totals: "CachedTotals") -> None:
        self._totals[key] = totals

    def count_lookups(self, hits: int, misses: int) -> None:
        """Add one run's hit/miss tallies (``+=`` is not atomic)."""
        with self._counter_lock:
            self.hits += hits
            self.misses += misses

    def clear(self) -> None:
        self._totals.clear()
        with self._counter_lock:
            self.hits = 0
            self.misses = 0

    def health(self) -> Dict[str, object]:
        """Degradation/health snapshot; a plain memory tier never degrades.

        The disk tier (:class:`repro.service.diskcache.DiskActivityCache`)
        overrides this with write-failure / quarantine counters; the
        service daemon's ``health`` op serves whatever the active cache
        reports.
        """
        return {
            "tier": "memory",
            "degraded": False,
            "memory_entries": len(self._totals),
            "hits": self.hits,
            "misses": self.misses,
        }


# -- the spec ----------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    """One operating point: pricing coefficients plus labelling axes.

    ``alpha`` prices a lane transition, ``beta`` a zero-beat — abstract
    weights for Figs. 3/4, per-event joules for Figs. 7/8 (computed once
    here at spec-build time instead of per scheme per cell).
    """

    alpha: float
    beta: float
    #: Ordered (axis name, value) labels, e.g. ``(("ac_cost", 0.3),)`` or
    #: ``(("c_load_farads", 3e-12), ("data_rate_hz", 2e9))``.
    axes: Tuple[Tuple[str, float], ...] = ()

    def axis(self, name: str) -> float:
        for axis_name, value in self.axes:
            if axis_name == name:
                return value
        raise KeyError(f"grid point has no axis {name!r}")

    def cost_model(self) -> CostModel:
        return CostModel(self.alpha, self.beta)


@dataclass(frozen=True)
class SchemeSlot:
    """One output series of an experiment.

    Either *static* (a fixed scheme instance, encoded once per
    experiment) or *tracking* (``tracks_point=True``: a
    :class:`~repro.core.encoder.DbiOptimal` built from each grid point's
    coefficients — the paper's OPT following the operating point).
    """

    name: str
    scheme: Optional[DbiScheme] = None
    tracks_point: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slot name must be non-empty")
        if self.tracks_point and self.scheme is not None:
            raise ValueError(
                f"slot {self.name!r}: tracking slots build their scheme "
                "from the grid point; do not pass an instance")

    def resolve(self, point: GridPoint) -> DbiScheme:
        """The scheme to run for *point* (static slots ignore the point)."""
        if self.tracks_point:
            return DbiOptimal(CostModel(point.alpha, point.beta))
        return _require_scheme(self.name, self.scheme)


def _require_scheme(slot_name: str, scheme: Optional[DbiScheme]) -> DbiScheme:
    """A slot's scheme, or the render-only refusal when it did not rebuild."""
    if scheme is None:
        raise RuntimeError(
            f"slot {slot_name!r} is render-only (loaded from an "
            "artifact without a registry-reconstructible scheme)")
    return scheme


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: population × scheme slots × operating grid."""

    name: str
    population: BurstPopulation
    slots: Tuple[SchemeSlot, ...]
    grid: Tuple[GridPoint, ...]
    #: Pricing term order — ``cost`` mirrors ``CostModel.activity_cost``,
    #: ``energy`` mirrors ``InterfaceEnergyModel.burst_energy``.
    pricing: str = "cost"
    #: Figure family for re-rendering (``alpha``/``rate``/``load``), or
    #: ``None`` for free-form experiments.
    figure: Optional[str] = None
    #: JSON-serialisable parameters the figure renderer needs
    #: (axis lists, encoder energies, ...).
    figure_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_slot_names("spec", [slot.name for slot in self.slots])
        if not self.grid:
            raise ValueError("spec needs at least one grid point")
        if self.pricing not in PRICINGS:
            raise ValueError(
                f"unknown pricing {self.pricing!r}; choose from {PRICINGS}")


def _check_slot_names(what: str, names: Sequence[str]) -> None:
    if not names:
        raise ValueError(f"{what} needs at least one scheme slot")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate slot names in {names}")


# -- the executor ------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Everything :func:`run_experiment` produced for one spec.

    ``series`` maps slot name → priced mean value per grid point (in grid
    order); ``totals`` keeps the exact integer activity tallies under
    their cache keys; ``provenance`` records how the run was executed.
    """

    spec: ExperimentSpec
    series: Dict[str, List[float]]
    totals: Dict[str, ActivityTotals]
    provenance: Dict[str, object]

    def save(self, path) -> None:
        save_artifact(self, path)


def _price_cell(totals: ActivityTotals, point: GridPoint,
                pricing: str) -> float:
    if pricing == "cost":
        return (point.alpha * totals.transitions
                + point.beta * totals.zeros) / totals.bursts
    return (totals.zeros * point.beta
            + totals.transitions * point.alpha) / totals.bursts


def _plan_grid(spec: ExperimentSpec):
    """Static slots resolve once; tracking slots once per grid point
    (points with one alpha/beta ratio share a fingerprint, hence a key)."""
    for slot in spec.slots:
        key = None
        for index, point in enumerate(spec.grid):
            if key is None or slot.tracks_point:
                scheme = slot.resolve(point)
                key = ActivityCache.key_for(scheme, spec.population)
            yield (slot.name, index), key, scheme


def _encode_task(population: BurstPopulation, scheme: DbiScheme,
                 backend: str, chunk_size: int) -> ActivityTotals:
    return population_activity(scheme, population, backend=backend,
                               chunk_size=chunk_size)


def _encode_missing(spec: ExperimentSpec, schemes, backend: str, jobs: int,
                    chunk_size: int):
    return _fan_out(jobs, spec.population, _encode_task,
                    [(scheme, backend, chunk_size) for scheme in schemes])


def _price_grid(spec: ExperimentSpec, cells, cache) -> Dict[str, object]:
    return {"series": {
        slot.name: [_price_cell(cache.get(cells[(slot.name, index)]), point,
                                spec.pricing)
                    for index, point in enumerate(spec.grid)]
        for slot in spec.slots}}


def _describe_grid(spec: ExperimentSpec) -> Dict[str, object]:
    return {"grid_cells": len(spec.grid),
            **_population_provenance(spec.population)}


# -- figure spec builders ----------------------------------------------------

#: A figure sweep's parameters by CLI name and their defaults, read by
#: the ``repro sweep-*`` flags and the daemon's ``sweep`` op.
FIGURE_DEFAULTS: Dict[str, object] = {
    "samples": 2000, "seed": 0x0DB1, "points": 26, "interface": "pod135",
    "c_load_pf": 3.0, "max_gbps": 20,
    "loads_pf": (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)}

#: The paper's four schemes by registry name, the default of the axes
#: that rank registry schemes.
PAPER_SCHEMES = ("raw", "dbi-dc", "dbi-ac", "dbi-opt")

#: A figure sweep's interfaces: its grid prices zeros and transitions
#: only, exact only for POD (see :meth:`ActivityTotals.mean_energy`).
FIGURE_INTERFACES = ("pod135", "pod12")


def rate_grid(max_gbps: int) -> List[float]:
    """The figures' data-rate axis: 0.5 Gbps steps up to *max_gbps*."""
    return [0.5 * GBPS * step for step in range(1, 2 * max_gbps + 1)]


def _static_slots(include_raw: bool = True) -> List[SchemeSlot]:
    slots = []
    if include_raw:
        slots.append(SchemeSlot("raw", Raw()))
    slots.append(SchemeSlot("dbi-dc", DbiDc()))
    slots.append(SchemeSlot("dbi-ac", DbiAc()))
    return slots


def alpha_experiment(population, points: int = 51,
                     include_fixed: bool = False,
                     extra_schemes: Optional[Dict[str, DbiScheme]] = None,
                     name: str = "fig3-alpha-sweep") -> ExperimentSpec:
    """Figs. 3/4 as a spec: abstract cost across the AC-fraction grid."""
    if points < 2:
        raise ValueError("points must be >= 2")
    ac_costs = [i / (points - 1) for i in range(points)]
    slots = _static_slots()
    if include_fixed:
        slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    if extra_schemes:
        slots.extend(SchemeSlot(slot_name, scheme)
                     for slot_name, scheme in extra_schemes.items())
    slots.append(SchemeSlot("dbi-opt", tracks_point=True))
    grid = tuple(GridPoint(alpha=ac_cost, beta=1.0 - ac_cost,
                           axes=(("ac_cost", ac_cost),))
                 for ac_cost in ac_costs)
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=grid, pricing="cost",
                          figure="alpha",
                          figure_params={"ac_costs": ac_costs})


def _default_rates(data_rates_hz) -> List[float]:
    if data_rates_hz is not None:
        return list(data_rates_hz)
    return rate_grid(FIGURE_DEFAULTS["max_gbps"])


def rate_experiment(population, interface: Optional[PodInterface] = None,
                    c_load_farads: float = 3 * PICOFARAD,
                    data_rates_hz=None,
                    name: str = "fig7-rate-sweep") -> ExperimentSpec:
    """Fig. 7 as a spec: interface energy across the data-rate grid."""
    pod = interface if interface is not None else pod135()
    rates = _default_rates(data_rates_hz)
    if not rates:
        raise ValueError("no data rates given")
    slots = _static_slots()
    slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    slots.append(SchemeSlot("dbi-opt", tracks_point=True))
    grid = []
    for rate in rates:
        energy_model = InterfaceEnergyModel(pod, rate, c_load_farads)
        grid.append(GridPoint(alpha=energy_model.energy_per_transition,
                              beta=energy_model.energy_per_zero,
                              axes=(("data_rate_hz", rate),)))
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=tuple(grid),
                          pricing="energy", figure="rate",
                          figure_params={"data_rates_hz": rates,
                                         "c_load_farads": c_load_farads})


def load_experiment(population, interface: Optional[PodInterface] = None,
                    c_loads_farads=(1e-12, 2e-12, 3e-12, 4e-12, 6e-12, 8e-12),
                    data_rates_hz=None,
                    encoder_energy_j: Optional[Dict[str, float]] = None,
                    name: str = "fig8-load-sweep") -> ExperimentSpec:
    """Fig. 8 as a spec: (load × rate) grid, encoder energy in the params.

    The per-cell (E_transition, E_zero) coefficients are evaluated once
    here, so pricing the three schemes never re-derives the interface
    energy model — the totals come from the cache, the coefficients from
    the grid.  ``encoder_energy_j`` defaults to Table I's pinned energies
    (:data:`repro.hw.ENCODER_ENERGY_PER_BURST_J`), so building the spec
    runs no gate-level simulation.
    """
    pod = interface if interface is not None else pod135()
    rates = _default_rates(data_rates_hz)
    if not rates:
        raise ValueError("no data rates given")
    loads = list(c_loads_farads)
    if not loads:
        raise ValueError("no load capacitances given")
    if encoder_energy_j is None:
        from ..hw import ENCODER_ENERGY_PER_BURST_J
        encoder_energy_j = ENCODER_ENERGY_PER_BURST_J
    for required in ("dbi-dc", "dbi-ac", "dbi-opt-fixed"):
        if required not in encoder_energy_j:
            raise KeyError(f"encoder_energy_j missing entry for {required!r}")
    slots = _static_slots(include_raw=False)
    slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    grid = []
    for c_load in loads:
        for rate in rates:
            energy_model = InterfaceEnergyModel(pod, rate, c_load)
            grid.append(GridPoint(
                alpha=energy_model.energy_per_transition,
                beta=energy_model.energy_per_zero,
                axes=(("c_load_farads", c_load), ("data_rate_hz", rate))))
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=tuple(grid),
                          pricing="energy", figure="load",
                          figure_params={
                              "c_loads_farads": loads,
                              "data_rates_hz": rates,
                              "encoder_energy_j": dict(encoder_energy_j)})


def figure_experiment(figure: str,
                      params: Mapping[str, object]) -> ExperimentSpec:
    """The ``alpha``, ``rate`` or ``load`` sweep from its parameters by
    CLI name (the rest from :data:`FIGURE_DEFAULTS`): the one builder of
    ``repro sweep-*`` and the daemon's ``sweep`` op."""
    value = {**FIGURE_DEFAULTS, **params}
    population = RandomPopulation(count=value["samples"], seed=value["seed"])
    if figure == "alpha":
        return alpha_experiment(population, value["points"],
                                include_fixed=True)
    if value["interface"] not in FIGURE_INTERFACES:
        raise ValueError(f"interface must be one of {FIGURE_INTERFACES}, "
                         f"got {value['interface']!r}")
    pod = get_interface(value["interface"])
    rates = rate_grid(value["max_gbps"])
    if figure == "rate":
        return rate_experiment(population, pod,
                               float(value["c_load_pf"]) * PICOFARAD, rates)
    if figure == "load":
        return load_experiment(population, pod, [
            float(load) * PICOFARAD for load in value["loads_pf"]], rates)
    raise ValueError(f"unknown figure {figure!r}; choose from "
                     "('alpha', 'rate', 'load')")


# -- the controller-replay axis ----------------------------------------------

#: One electrical operating point of a controller replay (interface
#: preset × data rate × load): the controller's own point type, so fixed
#: points, schedules and trackers share one class and one codec.
ReplayPoint = OperatingPoint


@dataclass(frozen=True)
class ReplaySpec:
    """A trace-driven controller replay: trace × link geometry × points.

    The trace is either an inline ``payload`` (the original axis) or a
    streaming ``source`` (any :class:`repro.workloads.source.TraceSource`
    — file, synthetic, registry trace) consumed ``chunk_bytes`` at a
    time in bounded memory; exactly one of the two must be set.  Because
    a source's digest is format-identical to the inline payload digest
    of the same bytes, migrating a spec from ``payload=`` to ``source=``
    keeps every cached replay warm.

    Two optional adaptive axes ride on top of the fixed ``points`` grid
    (and may replace it entirely):

    * ``schedule`` — an :class:`~repro.ctrl.adaptive.OperatingPointSchedule`
      replayed once with planned DVFS switching; chunking-independent,
      so its cache key binds only the schedule descriptor.
    * ``tracking`` — a :class:`~repro.ctrl.adaptive.TrackingConfig`
      replayed once with online alpha/beta tracking; the tracker observes
      per submitted chunk, so its cache key additionally binds
      ``chunk_bytes``.

    The two are mutually exclusive per spec (run two specs to compare).
    """

    name: str
    payload: bytes = b""
    points: Tuple[ReplayPoint, ...] = ()
    channels: int = 2
    byte_lanes: int = 4
    window: int = 16
    line_bytes: int = CACHE_LINE_BYTES
    source: Optional[object] = None
    chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES
    schedule: Optional[OperatingPointSchedule] = None
    tracking: Optional[TrackingConfig] = None

    def __post_init__(self) -> None:
        if bool(self.payload) == (self.source is not None):
            raise ValueError(
                "replay spec needs exactly one of payload / source")
        if self.schedule is not None and self.tracking is not None:
            raise ValueError(
                "schedule and tracking are mutually exclusive; "
                "run two specs to compare them")
        if not self.points and self.adaptive_label is None:
            raise ValueError("replay spec needs at least one operating point")
        if min(self.channels, self.byte_lanes, self.window,
               self.line_bytes) < 1:
            raise ValueError("channels/byte_lanes/window/line_bytes must be >= 1")
        if self.chunk_bytes < 1:
            raise ValueError(
                f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        labels = [point.label for point in self.points]
        if self.adaptive_label is not None:
            labels.append(self.adaptive_label)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels in {labels}")

    @property
    def adaptive_label(self) -> Optional[str]:
        """Series label of the adaptive axis (``None`` without one)."""
        if self.schedule is not None:
            return self.schedule.label
        if self.tracking is not None:
            return self.tracking.label
        return None

    def payload_digest(self) -> str:
        """Content identifier of the trace (the trace half of cache keys).

        Hashed once per spec and memoised — callers key every operating
        point with it.  Source-backed specs delegate to the source's
        incremental digest, which reproduces the inline format exactly.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            if self.source is not None:
                cached = self.source.digest()
            else:
                cached = (f"sha256:"
                          f"{hashlib.sha256(self.payload).hexdigest()[:32]}")
            object.__setattr__(self, "_digest", cached)
        return cached

    def replay_key(self, model: CostModel) -> str:
        """Cache key of one fixed-point replay: link geometry +
        cost-model *ratio* @ trace digest.

        Like :meth:`repro.core.encoder.DbiOptimal.fingerprint`, only the
        alpha/beta ratio is keyed — uniform scaling never changes the
        trellis — so operating points with coinciding differential
        ratios collapse to one replay.  Chunked and inline replays of
        the same bytes share keys (chunk seams never change decisions).
        """
        return self._link_key(f"r={model.ac_fraction.hex()}")

    def adaptive_key(self) -> str:
        """Cache key of the adaptive replay (requires one adaptive axis).

        A scheduled replay splits batches at exact transaction/address
        boundaries, so its result is chunking-independent and the key
        binds only the schedule descriptor; a tracked replay observes
        committed activity per submitted chunk, so the key additionally
        binds ``chunk_bytes``.
        """
        if self.schedule is not None:
            axis = f"sched={self.schedule.describe()}"
        elif self.tracking is not None:
            axis = (f"track={self.tracking.describe()},"
                    f"chunk={self.effective_chunk_bytes()}")
        else:
            raise ValueError(
                f"spec {self.name!r} has no schedule/tracking axis")
        return self._link_key(axis)

    def _link_key(self, axis: str) -> str:
        return (f"ctrl[ch={self.channels},l={self.byte_lanes},"
                f"w={self.window},line={self.line_bytes},"
                f"{axis}]@{self.payload_digest()}")

    def trace_source(self):
        """The spec's trace as a :class:`TraceSource` (payload wrapped)."""
        from ..workloads.source import BytesTraceSource

        if self.source is not None:
            return self.source
        return BytesTraceSource(self.payload, chunk_bytes=self.chunk_bytes)

    def effective_chunk_bytes(self) -> int:
        """The chunk size replays actually stream at.

        A source streams at its own chunk size; ``chunk_bytes`` applies
        to wrapped inline payloads (and to duck-typed sources that do
        not expose theirs).
        """
        if self.source is not None:
            return int(getattr(self.source, "chunk_bytes",
                               self.chunk_bytes))
        return self.chunk_bytes

    def trace_bytes_total(self) -> int:
        """Total trace size in bytes, without materialising a source."""
        return (self.source.size() if self.source is not None
                else len(self.payload))


@dataclass(frozen=True)
class ReplayTotals:
    """Integer activity of one controller replay, exact per channel."""

    transactions: int
    bytes_written: int
    beats: int
    #: Per-channel (zeros, transitions, beats) triples, channel order.
    channels: Tuple[Tuple[int, int, int], ...]
    #: Adaptive runs only: per-dwell-interval
    #: ``(point label, zeros, transitions, beats)`` rows in switch order;
    #: the rows sum exactly to the channel totals.  Empty for fixed-point
    #: replays.
    segments: Tuple[Tuple[str, int, int, int], ...] = ()

    @property
    def zeros(self) -> int:
        return sum(channel[0] for channel in self.channels)

    @property
    def transitions(self) -> int:
        return sum(channel[1] for channel in self.channels)


#: What an :class:`ActivityCache` stores (see its docstring).
CachedTotals = Union[ActivityTotals, ReplayTotals, "FaultCoverageRow",
                     "SsoStatistics"]


@dataclass
class ReplayResult:
    """Everything :func:`run_replay` produced for one spec.

    ``series`` maps point label → priced energies; ``totals`` keeps the
    exact integer tallies under their cache keys, with ``point_keys``
    mapping point label → cache key (use :meth:`totals_for` rather than
    reconstructing keys).
    """

    spec: ReplaySpec
    series: Dict[str, Dict[str, object]]
    totals: Dict[str, ReplayTotals]
    provenance: Dict[str, object]
    point_keys: Dict[str, str] = field(default_factory=dict)

    def totals_for(self, label: str) -> ReplayTotals:
        """The integer tallies behind one operating point's series."""
        return self.totals[self.point_keys[label]]


def _replay_once(spec: ReplaySpec, model: Optional[CostModel],
                 backend: str) -> ReplayTotals:
    """One streaming pass of the spec's trace through the write path.

    At the fixed cost ``model``, or under the spec's schedule or tracker
    when ``model`` is ``None``.  Streaming an inline payload is
    bit-identical to submitting it in one shot — the lane encoders'
    pending state depends only on cumulative pushed bytes, never on how
    submissions were chunked (the chunk-seam invariant
    ``tests/ctrl/test_chunk_seams.py`` enforces).
    """
    from ..ctrl.controller import MemoryController

    if model is not None:
        setting = {"model": model}
    elif spec.schedule is not None:
        setting = {"schedule": spec.schedule}
    else:
        setting = {"tracker": spec.tracking.build()}
    controller = MemoryController(channels=spec.channels,
                                  byte_lanes=spec.byte_lanes,
                                  window=spec.window,
                                  line_bytes=spec.line_bytes,
                                  backend=backend, **setting)
    controller.submit_source(spec.trace_source())
    stats = controller.flush()
    per_channel = tuple(
        (merged.zeros, merged.transitions, merged.beats)
        for merged in (controller.channel_statistics(channel)
                       for channel in range(controller.channels)))
    segments = tuple(
        (segment.label, segment.zeros, segment.transitions, segment.beats)
        for segment in controller.segments())
    return ReplayTotals(transactions=stats.transactions,
                        bytes_written=stats.bytes_written,
                        beats=stats.beats, channels=per_channel,
                        segments=segments)


def _replay_missing(spec: ReplaySpec, models, backend: str, jobs: int):
    """Source-backed specs replay serially: the trace never ships to
    worker processes."""
    return _fan_out(jobs if spec.source is None else 1, spec, _replay_once,
                    [(model, backend) for model in models])


def _priced(totals: ReplayTotals, energy: float,
            **breakdown) -> Dict[str, object]:
    return {"energy_joules": energy,
            "energy_per_byte": (energy / totals.bytes_written
                                if totals.bytes_written else 0.0),
            **breakdown}


def _price_replay(totals: ReplayTotals,
                  energy_model: InterfaceEnergyModel) -> Dict[str, object]:
    return _priced(
        totals, energy_model.burst_energy(
            totals.transitions, totals.zeros,
            lane_beats=WORD_WIDTH * totals.beats),
        per_channel_energy=[
            energy_model.burst_energy(transitions, zeros,
                                      lane_beats=WORD_WIDTH * beats)
            for zeros, transitions, beats in totals.channels])


def _price_adaptive(totals: ReplayTotals,
                    points_by_label: Mapping[str, OperatingPoint]
                    ) -> Dict[str, object]:
    """Price an adaptive replay: each segment at its own operating point."""
    energy = 0.0
    per_segment = []
    for label, zeros, transitions, beats in totals.segments:
        segment_energy = points_by_label[label].energy_model().burst_energy(
            transitions, zeros, lane_beats=WORD_WIDTH * beats)
        per_segment.append({"label": label, "beats": beats,
                            "energy_joules": segment_energy})
        energy += segment_energy
    return _priced(totals, energy, per_segment_energy=per_segment)


def _plan_replays(spec: ReplaySpec):
    """One key per point label; the adaptive axis's task is ``None``."""
    for point in spec.points:
        model = point.energy_model().cost_model()
        yield point.label, spec.replay_key(model), model
    if spec.adaptive_label is not None:
        yield spec.adaptive_label, spec.adaptive_key(), None


def _price_replays(spec: ReplaySpec, cells, cache) -> Dict[str, object]:
    series = {
        point.label: _price_replay(cache.get(cells[point.label]),
                                   point.energy_model())
        for point in spec.points
    }
    if spec.adaptive_label is not None:
        axis = spec.schedule if spec.schedule is not None else spec.tracking
        series[spec.adaptive_label] = _price_adaptive(
            cache.get(cells[spec.adaptive_label]), axis.points_by_label())
    return {"series": series, "point_keys": dict(cells)}


def _describe_replay(spec: ReplaySpec) -> Dict[str, object]:
    provenance: Dict[str, object] = {
        "points": len(spec.points),
        "payload": spec.payload_digest(),
        "payload_bytes": spec.trace_bytes_total(),
    }
    if spec.source is not None:
        provenance["streamed"] = True
        provenance["chunk_bytes"] = spec.effective_chunk_bytes()
        provenance["source"] = spec.source.describe()
    return provenance


#: A synthetic replay's parameters by CLI name and their defaults, read
#: by ``repro ctrl``'s flags and the daemon's ``replay`` op.
REPLAY_DEFAULTS: Dict[str, object] = {
    "bursts": 2000, "seed": FIGURE_DEFAULTS["seed"],
    "interfaces": ("pod135",), "data_rate_gbps": 12.0,
    "c_load_pf": FIGURE_DEFAULTS["c_load_pf"], "channels": 2, "lanes": 4,
    "window": 16, "line_bytes": CACHE_LINE_BYTES}


def interface_replay_experiment(payload: bytes,
                                interfaces: Sequence[str] = (
                                    "pod135", "pod12", "sstl15", "lvstl11"),
                                data_rate_hz: float = 3.2 * GBPS,
                                c_load_farads: float = 3 * PICOFARAD,
                                channels: int = 2, byte_lanes: int = 4,
                                window: int = 16,
                                line_bytes: int = CACHE_LINE_BYTES,
                                name: str = "ctrl-interface-replay") -> ReplaySpec:
    """The standard replay axis: one payload across electrical standards.

    Transition-only points (SSTL, LVSTL — identical differential ratio)
    automatically share a single replay through the cache.
    """
    points = tuple(ReplayPoint(interface=interface_name,
                               data_rate_hz=data_rate_hz,
                               c_load_farads=c_load_farads)
                   for interface_name in interfaces)
    return ReplaySpec(name=name, payload=bytes(payload), points=points,
                      channels=channels, byte_lanes=byte_lanes,
                      window=window, line_bytes=line_bytes)


# -- the reliability axis ----------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """A fault-coverage experiment: schemes × fault-rate grid × population.

    One row per (scheme slot, rate): every lane-beat of the population's
    wire words flips independently with the row's rate
    (:func:`repro.extensions.reliability.fault_coverage_curve`), and the
    decoded-error tallies are cached like replays — the cache key binds
    the rate, the mask seed, the scheme fingerprint and the population
    digest.  Rates draw per-``(seed, rate)`` independent mask streams, so
    a row never depends on which other rates the spec contains.

    Rows are independent of the electrical interface, and of the scheme:
    fault statistics count decoded *bits*, and the DBI bit always says
    how a byte was sent, so only the fault masks decide which bits
    decode wrongly — one spec serves every interface operating point.
    """

    name: str
    population: BurstPopulation
    #: Ordered ``(slot name, scheme)`` pairs, one output series each.
    slots: Tuple[Tuple[str, DbiScheme], ...]
    rates: Tuple[float, ...] = DEFAULT_FAULT_RATES
    seed: int = 7

    def __post_init__(self) -> None:
        _check_slot_names("fault spec", [name for name, __ in self.slots])
        if not self.rates:
            raise ValueError("fault spec needs at least one fault rate")

    def coverage_key(self, scheme: DbiScheme, rate: float) -> str:
        """Cache key of one (scheme, rate) coverage row."""
        return (f"fault[p={float(rate).hex()},s={self.seed}]"
                f"{scheme.fingerprint()}@{self.population.digest()}")


def _coverage_row_json(row: "FaultCoverageRow") -> Dict[str, object]:
    """The row's totals record plus its derived rates: the fault kind's
    series rows and artifact ``totals``."""
    return {**totals_to_json(row)[1],
            "bit_error_rate": row.bit_error_rate,
            "beat_error_rate": row.beat_error_rate,
            "amplification": row.amplification}


@dataclass
class FaultResult:
    """Everything :func:`run_faults` produced for one spec.

    ``series`` maps slot name → coverage rows (dicts, rate order, the
    integer tallies plus the derived rates); ``totals`` keeps the exact
    :class:`~repro.extensions.reliability.FaultCoverageRow` records under
    their cache keys.
    """

    spec: FaultSpec
    series: Dict[str, List[Dict[str, object]]]
    totals: Dict[str, "FaultCoverageRow"]
    provenance: Dict[str, object]

    def save(self, path) -> None:
        save_artifact(self, path)


def _plan_faults(spec: FaultSpec):
    for slot_name, scheme in spec.slots:
        scheme = _require_scheme(slot_name, scheme)
        for rate in spec.rates:
            yield ((slot_name, rate), spec.coverage_key(scheme, rate),
                   (scheme, rate))


def _inject_missing(spec: FaultSpec, tasks, backend: str):
    """The missing ``(scheme, rate)`` rows, in task order.

    Rates draw per-``(seed, rate)`` independent mask streams, so a row
    never depends on which other rates the run computes, and each rate's
    masks are drawn once for every slot that misses it (the batched
    engine tallies them once, too, and draws no burst of the population).
    """
    from ..extensions.reliability import fault_coverage_rows

    return fault_coverage_rows(tasks, spec.population, seed=spec.seed,
                               backend=backend)


def _price_faults(spec: FaultSpec, cells, cache) -> Dict[str, object]:
    return {"series": {
        slot_name: [_coverage_row_json(cache.get(cells[(slot_name, rate)]))
                    for rate in spec.rates]
        for slot_name, __ in spec.slots}}


def _describe_faults(spec: FaultSpec) -> Dict[str, object]:
    return {"rates": len(spec.rates), "seed": spec.seed,
            **_population_provenance(spec.population)}


def fault_experiment(population,
                     schemes: Sequence[str] = PAPER_SCHEMES,
                     rates: Sequence[float] = DEFAULT_FAULT_RATES,
                     seed: int = 7,
                     name: str = "fault-coverage") -> FaultSpec:
    """The standard reliability axis: registry schemes × rate grid."""
    slots = tuple((scheme_name, get_scheme(scheme_name))
                  for scheme_name in schemes)
    return FaultSpec(name=name, population=as_population(population),
                     slots=slots, rates=tuple(float(rate) for rate in rates),
                     seed=seed)


# -- the granularity axis ----------------------------------------------------

@dataclass(frozen=True)
class GranularitySpec:
    """A DBI-granularity ablation: group sizes × population × cost model.

    One row per group size, each an independent
    :class:`~repro.extensions.granularity.GroupedDbiOptimal` encode of
    the population, cached under the scheme's ratio-keyed fingerprint +
    population digest — exactly the encode-entry discipline of
    :func:`run_experiment`, so granularity rows share the cache with
    figure sweeps.
    """

    name: str
    population: BurstPopulation
    model: CostModel
    group_sizes: Tuple[int, ...] = VALID_GROUP_SIZES

    def __post_init__(self) -> None:
        if not self.group_sizes:
            raise ValueError("granularity spec needs at least one group size")
        for group_size in self.group_sizes:
            if group_size not in VALID_GROUP_SIZES:
                raise ValueError(
                    f"group_size must be one of {VALID_GROUP_SIZES}, "
                    f"got {group_size}")

    def scheme_for(self, group_size: int) -> "GroupedDbiOptimal":
        from ..extensions.granularity import GroupedDbiOptimal

        return GroupedDbiOptimal(self.model, group_size=group_size)


@dataclass
class GranularityResult:
    """Everything :func:`run_granularity` produced for one spec.

    ``rows`` matches :func:`repro.extensions.granularity
    .granularity_table` exactly (as dicts, group-size order); ``totals``
    keeps the exact integer tallies under their cache keys.
    """

    spec: GranularitySpec
    rows: List[Dict[str, object]]
    totals: Dict[str, ActivityTotals]
    provenance: Dict[str, object]

    def save(self, path) -> None:
        save_artifact(self, path)


def _plan_groups(spec: GranularitySpec):
    for group_size in spec.group_sizes:
        scheme = spec.scheme_for(group_size)
        yield group_size, ActivityCache.key_for(scheme, spec.population), scheme


def _encode_groups(spec: GranularitySpec, schemes, backend: str):
    """Totals are exact and identical across backends
    (:meth:`GroupedDbiOptimal.activity_totals` guarantees bit-identity)."""
    batch = _one_batch(spec.population)
    for scheme in schemes:
        zeros, transitions = scheme.activity_totals(batch, backend=backend)
        yield ActivityTotals(transitions=transitions, zeros=zeros,
                             bursts=len(spec.population))


def _price_groups(spec: GranularitySpec, cells, cache) -> Dict[str, object]:
    """Rows equal :func:`repro.extensions.granularity.granularity_table`."""
    count = len(spec.population)
    rows: List[Dict[str, object]] = []
    for group_size in spec.group_sizes:
        totals = cache.get(cells[group_size])
        rows.append({
            "group_size": group_size,
            "mean_zeros": totals.mean_zeros,
            "mean_transitions": totals.mean_transitions,
            "mean_cost": spec.model.activity_cost(
                totals.transitions, totals.zeros) / count,
            "lines_per_byte_lane": 8 + 8 // group_size,
        })
    return {"rows": rows}


def _describe_groups(spec: GranularitySpec) -> Dict[str, object]:
    return {"group_sizes": list(spec.group_sizes),
            **_population_provenance(spec.population)}


def granularity_experiment(population, model: Optional[CostModel] = None,
                           group_sizes: Sequence[int] = VALID_GROUP_SIZES,
                           name: str = "granularity-ablation"
                           ) -> GranularitySpec:
    """The standard granularity axis (fixed-coefficient model default)."""
    return GranularitySpec(
        name=name, population=as_population(population),
        model=model if model is not None else CostModel.fixed(),
        group_sizes=tuple(group_sizes))


# -- the simultaneous-switching axis -----------------------------------------

@dataclass(frozen=True)
class SsoSpec:
    """A simultaneous-switching sweep: schemes × interface presets.

    One cached :class:`~repro.analysis.sso.SsoStatistics` per scheme slot
    (the cache key binds the chained flag, the scheme fingerprint and the
    population digest), then one priced row per (slot, interface): the
    integer switching tallies are interface-independent, so the whole
    interface column reuses a single encode — the same
    dedup-by-fingerprint discipline as :class:`FaultSpec`.

    ``chained`` selects the boundary condition of
    :func:`~repro.analysis.sso.sso_of_words`: ``False`` resets every
    burst to the idle-high bus (the paper's convention), ``True``
    threads the last word of each burst into the next.
    """

    name: str
    population: BurstPopulation
    #: Ordered ``(slot name, scheme)`` pairs, one output series each.
    slots: Tuple[Tuple[str, DbiScheme], ...]
    #: Interface preset names (:func:`repro.phy.interface.get_interface`).
    interfaces: Tuple[str, ...] = ("pod135",)
    chained: bool = False
    #: ``exceed_fraction`` reports beats with more than this many toggles.
    threshold: int = WORD_WIDTH // 2
    line_impedance_ohms: float = 50.0

    def __post_init__(self) -> None:
        _check_slot_names("sso spec", [name for name, __ in self.slots])
        if not self.interfaces:
            raise ValueError("sso spec needs at least one interface")
        if not 0 <= self.threshold <= WORD_WIDTH:
            raise ValueError(
                f"threshold must be in [0, {WORD_WIDTH}], got {self.threshold}")
        if self.line_impedance_ohms <= 0:
            raise ValueError("line_impedance_ohms must be positive, got "
                             f"{self.line_impedance_ohms}")
        for interface_name in self.interfaces:
            get_interface(interface_name)  # raises KeyError with known names

    def sso_key(self, scheme: DbiScheme) -> str:
        """Cache key of one slot's switching statistics."""
        return (f"sso[chained={int(self.chained)}]"
                f"{scheme.fingerprint()}@{self.population.digest()}")


@dataclass
class SsoResult:
    """Everything :func:`run_sso` produced for one spec.

    ``series`` maps slot name → one priced row per interface (declaration
    order); ``totals`` keeps the exact
    :class:`~repro.analysis.sso.SsoStatistics` records under their cache
    keys, histogram included.
    """

    spec: SsoSpec
    series: Dict[str, List[Dict[str, object]]]
    totals: Dict[str, "SsoStatistics"]
    provenance: Dict[str, object]

    def save(self, path) -> None:
        save_artifact(self, path)


def _plan_sso(spec: SsoSpec):
    """One key per slot; interfaces enter only at pricing."""
    for slot_name, scheme in spec.slots:
        scheme = _require_scheme(slot_name, scheme)
        yield slot_name, spec.sso_key(scheme), scheme


def _tally_switching(spec: SsoSpec, schemes, backend: str):
    """Statistics are bit-identical across backends (enforced by
    ``tests/analysis/test_sso_batch.py``)."""
    from ..analysis.sso import sso_of_scheme_batch

    batch = _one_batch(spec.population)
    for scheme in schemes:
        yield sso_of_scheme_batch(scheme, batch, chained=spec.chained,
                                  backend=backend)


def _price_interfaces(spec: SsoSpec, cells, cache) -> Dict[str, object]:
    presets = [(name, get_interface(name)) for name in spec.interfaces]
    series: Dict[str, List[Dict[str, object]]] = {}
    for slot_name, __ in spec.slots:
        stats = cache.get(cells[slot_name])
        series[slot_name] = [{
            "interface": interface_name,
            "beats": stats.beats,
            "max_switching": stats.max_switching,
            "mean_switching": stats.mean_switching,
            "total_switching": stats.total_switching,
            "exceed_fraction": stats.exceed_fraction(spec.threshold),
            "peak_current_amps": stats.peak_current_amps(
                interface, spec.line_impedance_ohms),
            "mean_current_amps": stats.mean_current_amps(
                interface, spec.line_impedance_ohms),
        } for interface_name, interface in presets]
    return {"series": series}


def _describe_sso(spec: SsoSpec) -> Dict[str, object]:
    return {"chained": spec.chained, "threshold": spec.threshold,
            "line_impedance_ohms": spec.line_impedance_ohms,
            "interfaces": len(spec.interfaces),
            **_population_provenance(spec.population)}


def sso_experiment(population,
                   schemes: Sequence[str] = PAPER_SCHEMES,
                   interfaces: Optional[Sequence[str]] = None,
                   chained: bool = False,
                   threshold: int = WORD_WIDTH // 2,
                   line_impedance_ohms: float = 50.0,
                   name: str = "sso-ranking") -> SsoSpec:
    """The standard SSO axis: registry schemes × every interface preset."""
    from ..phy.interface import available_interfaces

    slots = tuple((scheme_name, get_scheme(scheme_name))
                  for scheme_name in schemes)
    if interfaces is None:
        interfaces = available_interfaces()
    return SsoSpec(name=name, population=as_population(population),
                   slots=slots, interfaces=tuple(interfaces),
                   chained=chained, threshold=threshold,
                   line_impedance_ohms=line_impedance_ohms)


# -- the totals codec --------------------------------------------------------

def _int_rows(rows) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(value) for value in row) for row in rows)


def _segment_rows(rows) -> Tuple[Tuple[str, int, int, int], ...]:
    return tuple((str(label), int(zeros), int(transitions), int(beats))
                 for label, zeros, transitions, beats in rows)


def _histogram(record: Mapping[str, object]) -> Dict[int, int]:
    return {int(k): int(count) for k, count in record.items()}


@functools.lru_cache(maxsize=None)
def _totals_codec() -> Dict[str, Tuple[type, Dict[str, Callable]]]:
    """Record kind -> (totals type, JSON decoder of each persisted field)."""
    from ..analysis.sso import SsoStatistics
    from ..extensions.reliability import FaultCoverageRow

    return {
        "activity": (ActivityTotals, {"transitions": int, "zeros": int,
                                      "bursts": int}),
        "replay": (ReplayTotals, {"transactions": int, "bytes_written": int,
                                  "beats": int, "channels": _int_rows,
                                  "segments": _segment_rows}),
        "fault": (FaultCoverageRow, {"rate": float, "injected_faults": int,
                                     "total_beats": int, "bit_errors": int,
                                     "corrupted_beats": int,
                                     "dbi_lane_faults": int}),
        "sso": (SsoStatistics, {"beats": int, "max_switching": int,
                                "total_switching": int,
                                "histogram": _histogram}),
    }


def totals_to_json(totals: "CachedTotals") -> Tuple[str, Dict[str, object]]:
    """``(kind, JSON record)`` of any cached-totals value.

    The one encoding of totals: artifact ``totals`` members and
    :class:`~repro.service.diskcache.DiskActivityCache` entry files both
    use it.  Row tuples become lists and histogram keys sorted strings;
    an empty row field — a fixed-point replay's ``segments`` — is left
    out, so records written before adaptive replays existed keep their
    exact bytes.
    """
    for kind, (totals_type, decoders) in _totals_codec().items():
        if isinstance(totals, totals_type):
            break
    else:
        raise TypeError(f"cannot persist totals of type "
                        f"{type(totals).__name__}")
    record: Dict[str, object] = {}
    for name in decoders:
        value = getattr(totals, name)
        if isinstance(value, tuple):
            if not value:
                continue
            value = [list(row) for row in value]
        elif isinstance(value, dict):
            value = {str(k): count for k, count in sorted(value.items())}
        record[name] = value
    return kind, record


def totals_from_json(kind: str,
                     record: Mapping[str, object]) -> "CachedTotals":
    """Inverse of :func:`totals_to_json` (absent fields take defaults)."""
    try:
        totals_type, decoders = _totals_codec()[kind]
    except KeyError:
        raise ValueError(f"unknown totals record kind {kind!r}") from None
    return totals_type(**{name: decode(record[name])
                          for name, decode in decoders.items()
                          if name in record})


# -- spec codecs -------------------------------------------------------------

def _population_to_json(population: BurstPopulation) -> Dict[str, object]:
    loaded = getattr(population, "_artifact_record", None)
    if loaded is not None:
        return dict(loaded)
    record: Dict[str, object] = {
        "digest": population.digest(),
        "count": len(population),
        "burst_length": population.burst_length,
    }
    if isinstance(population, RandomPopulation):
        record["kind"] = "random"
        record["seed"] = population.seed
    else:
        record["kind"] = "explicit"
    return record


def _population_from_json(record: Mapping[str, object]) -> BurstPopulation:
    digest = record["digest"]
    count = int(record["count"])
    burst_length = record.get("burst_length")
    if record.get("kind") == "random" and int(record["seed"]) >= 0:
        population = RandomPopulation(count=count,
                                      burst_length=int(burst_length),
                                      seed=int(record["seed"]))
        if population.digest() == digest:
            return population
    # Anything else re-renders only: an explicit population, or one drawn
    # by another generator (older NumPy-free runs tagged theirs ``py``
    # and took negative seeds too).
    opaque = OpaquePopulation(digest=str(digest), count=count,
                              burst_length=burst_length)
    # Saved back as loaded, so a re-save keeps the record as written.
    opaque._artifact_record = dict(record)
    return opaque


def _slot_to_json(slot) -> Dict[str, object]:
    """A figure :class:`SchemeSlot`, or another kind's ``(name, scheme)``."""
    if isinstance(slot, SchemeSlot):
        record: Dict[str, object] = {"name": slot.name,
                                     "tracks_point": slot.tracks_point}
        scheme = slot.scheme
    else:
        record = {"name": slot[0]}
        scheme = slot[1]
    if scheme is not None:
        record["scheme"] = scheme.name
        record["fingerprint"] = scheme.fingerprint()
    return record


def _slot_from_json(record: Mapping[str, object]):
    """The slot decoder of every kind; it keeps every slot.

    A registry scheme whose fingerprint still matches is rebuilt, so the
    slot can re-run.  Any other slot comes back scheme-less: it
    re-renders, and running it raises the render-only
    :class:`RuntimeError`.  Figure slots (their records carry
    ``tracks_point``) decode to :class:`SchemeSlot`, the other kinds'
    to ``(name, scheme)`` pairs.
    """
    name = str(record["name"])
    scheme: Optional[DbiScheme] = None
    if not record.get("tracks_point"):
        try:
            scheme = get_scheme(str(record["scheme"]))
        except KeyError:  # no scheme recorded, or no longer in the registry
            pass
        if (scheme is not None
                and scheme.fingerprint() != record.get("fingerprint")):
            scheme = None
    if "tracks_point" in record:
        return SchemeSlot(name, scheme=scheme,
                          tracks_point=bool(record["tracks_point"]))
    return name, scheme


def _fields_to_json(value) -> Dict[str, object]:
    """A spec (or a dataclass inside one) as JSON: its fields in
    declaration order, tuples as lists, mappings as dicts, and
    :data:`_FIELD_CODECS` for fields that are not plain JSON values."""
    record: Dict[str, object] = {}
    for item in fields(value):
        field_value = getattr(value, item.name)
        if field_value is not None and item.name in _FIELD_CODECS:
            field_value = _FIELD_CODECS[item.name][0](field_value)
        elif isinstance(field_value, tuple):
            field_value = list(field_value)
        elif isinstance(field_value, Mapping):
            field_value = dict(field_value)
        record[item.name] = field_value
    return record


def _fields_from_json(cls, record: Mapping[str, object]):
    """Inverse of :func:`_fields_to_json`; absent fields take defaults."""
    values: Dict[str, object] = {}
    for item in fields(cls):
        if item.name not in record:
            continue
        value = record[item.name]
        if value is not None and item.name in _FIELD_CODECS:
            value = _FIELD_CODECS[item.name][1](value)
        elif isinstance(value, list):
            value = tuple(value)
        values[item.name] = value
    return cls(**values)


def _nested(cls) -> Tuple[Callable, Callable]:
    return _fields_to_json, functools.partial(_fields_from_json, cls)


def _nested_tuple(cls) -> Tuple[Callable, Callable]:
    return (lambda values: [_fields_to_json(value) for value in values],
            lambda records: tuple(_fields_from_json(cls, record)
                                  for record in records))


#: Spec fields that are not plain JSON values, by field name:
#: ``(encode, decode)``.
_FIELD_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "population": (_population_to_json, _population_from_json),
    "slots": (lambda slots: [_slot_to_json(slot) for slot in slots],
              lambda records: tuple(map(_slot_from_json, records))),
    # Written out for speed: a served sweep encodes every grid point.
    "grid": (lambda grid: [{"alpha": point.alpha, "beta": point.beta,
                            "axes": dict(point.axes)} for point in grid],
             lambda records: tuple(
                 GridPoint(alpha=point["alpha"], beta=point["beta"],
                           axes=tuple(point.get("axes", {}).items()))
                 for point in records)),
    "points": _nested_tuple(OperatingPoint),
    "model": _nested(CostModel),
    "schedule": _nested(OperatingPointSchedule),
    "tracking": _nested(TrackingConfig),
}


#: Replay payloads up to this size are inlined into the artifact (hex),
#: keeping the artifact re-runnable; larger payloads persist digest-only
#: and load as render-only specs.
REPLAY_PAYLOAD_INLINE_LIMIT = 65536


def _replay_spec_to_json(result: "ReplayResult") -> Dict[str, object]:
    """The spec's fields, the trace as one ``payload`` record: its digest
    and size, plus the hex of a small inline payload or a source's
    descriptor — never the bytes of a large trace."""
    spec = result.spec
    payload: Dict[str, object] = {"digest": spec.payload_digest(),
                                  "bytes": spec.trace_bytes_total()}
    if getattr(spec, "_render_only", False):
        payload["bytes"] = int(result.provenance.get("payload_bytes", 0))
    elif spec.source is not None:
        # The loader rebuilds the source when the descriptor resolves in
        # its environment and falls back to render-only when it doesn't.
        payload["source"] = spec.source.describe()
    elif len(spec.payload) <= REPLAY_PAYLOAD_INLINE_LIMIT:
        payload["hex"] = spec.payload.hex()
    record = dict(_fields_to_json(spec), payload=payload)
    del record["source"]
    return {name: value for name, value in record.items()
            if value is not None}


def _replay_spec_from_json(record: Mapping[str, object]) -> ReplaySpec:
    from ..workloads.source import source_from_json

    payload = record["payload"]
    source = (source_from_json(payload["source"])
              if "source" in payload else None)
    render_only = "hex" not in payload and source is None
    spec = _fields_from_json(ReplaySpec, dict(
        record, source=source,
        payload=(bytes.fromhex(payload["hex"]) if "hex" in payload
                 else b"\x00" if render_only else b"")))
    if source is not None or render_only:
        # Pin the persisted digest: a render-only spec has no trace to
        # hash (replay keys and totals_for must still resolve), and a
        # rebuilt source would re-derive the same digest by streaming the
        # whole trace — loads stay O(1).
        object.__setattr__(spec, "_digest", str(payload["digest"]))
    if render_only:
        object.__setattr__(spec, "_render_only", True)
    return spec


# -- the axis protocol -------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    """What one experiment kind adds to the shared run loop and codecs.

    Everything else — backend resolution, the fresh-cache default,
    hit/miss accounting, the render-only refusal, provenance and the
    artifact envelope — is :func:`_run`, :func:`result_to_json` and
    :func:`_load`, once for every kind.
    """

    kind: str
    result_type: type
    #: Provenance name of the count of executed tasks.
    counter: str
    #: The kind's public artifact loader, named in kind-mismatch errors.
    loader: str
    #: Totals-codec kind of the records under the artifact's ``totals``.
    totals_kind: str
    #: ``spec ->`` ``(cell, key, task)`` per priced cell, in declaration
    #: order; the loop keeps each key's first task.
    plan: Callable
    #: ``(spec, tasks, backend, **options)``: the totals of every missing
    #: key's task, in order.
    execute: Callable
    #: ``(spec, cells, cache) -> {output field: value}``.
    price: Callable
    #: ``spec ->`` the kind's own provenance fields.
    describe: Callable
    #: ``JSON record -> spec``.
    spec_from_json: Callable
    #: ``result ->`` the spec's JSON record.
    spec_to_json: Callable = lambda result: _fields_to_json(result.spec)
    #: Result fields persisted beside spec, totals and provenance.
    outputs: Tuple[str, ...] = ("series",)
    resolve_backend: Callable[[Optional[str]], str] = resolve_backend
    #: Artifact form of one totals record (the codec record, unless the
    #: kind persists derived values beside it).
    totals_record: Callable = lambda totals: totals_to_json(totals)[1]


def _resolve_sim_backend(backend: Optional[str]) -> str:
    from ..hw.bitsim import resolve_sim_backend

    return resolve_sim_backend(backend)


_AXES: Dict[str, Axis] = {axis.kind: axis for axis in (
    Axis("experiment", ExperimentResult, counter="encodes",
         loader="load_artifact", totals_kind="activity", plan=_plan_grid,
         execute=_encode_missing, price=_price_grid, describe=_describe_grid,
         spec_from_json=functools.partial(_fields_from_json, ExperimentSpec)),
    Axis("replay", ReplayResult, counter="replays",
         loader="load_replay_artifact", totals_kind="replay",
         plan=_plan_replays, execute=_replay_missing, price=_price_replays,
         describe=_describe_replay, spec_from_json=_replay_spec_from_json,
         spec_to_json=_replay_spec_to_json, outputs=("series", "point_keys")),
    Axis("faults", FaultResult, counter="injections",
         loader="load_fault_artifact", totals_kind="fault",
         plan=_plan_faults, execute=_inject_missing, price=_price_faults,
         describe=_describe_faults,
         spec_from_json=functools.partial(_fields_from_json, FaultSpec),
         resolve_backend=_resolve_sim_backend,
         totals_record=_coverage_row_json),
    Axis("granularity", GranularityResult, counter="encodes",
         loader="load_granularity_artifact", totals_kind="activity",
         plan=_plan_groups, execute=_encode_groups, price=_price_groups,
         describe=_describe_groups,
         spec_from_json=functools.partial(_fields_from_json, GranularitySpec),
         outputs=("rows",)),
    Axis("sso", SsoResult, counter="encodes", loader="load_sso_artifact",
         totals_kind="sso", plan=_plan_sso, execute=_tally_switching,
         price=_price_interfaces, describe=_describe_sso,
         spec_from_json=functools.partial(_fields_from_json, SsoSpec),
         resolve_backend=_resolve_sim_backend),
)}


# -- the run loop ------------------------------------------------------------

#: Worker-process copy of what every task of one pool shares.
_WORKER_SHARED: object = None


def _pool_initializer(shared) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _with_shared(task, *args):
    return task(_WORKER_SHARED, *args)


def _fan_out(jobs: int, shared, task, arguments: Sequence[tuple]):
    """``task(shared, *args)`` per entry of *arguments*, in order.

    Serial unless ``jobs > 1`` and there are several tasks; a pool ships
    *shared* (a population or an inline replay spec) once per worker, so
    tasks carry only small arguments.  Pool results are merged in
    submission (declaration) order, not completion order, so the cache
    fill is deterministic.
    """
    if jobs == 1 or len(arguments) == 1:
        for args in arguments:
            yield task(shared, *args)
        return
    from concurrent.futures import ProcessPoolExecutor

    # jobs is an explicit request — honour it (capped by the task count);
    # over-subscribing cores costs little here.
    with ProcessPoolExecutor(max_workers=min(jobs, len(arguments)),
                             initializer=_pool_initializer,
                             initargs=(shared,)) as pool:
        futures = [pool.submit(_with_shared, task, *args)
                   for args in arguments]
        for future in futures:
            yield future.result()


def provenance_stamp() -> Dict[str, object]:
    """Interpreter, wall clock and package version, stamped on every run."""
    from .. import __version__

    return {"python": platform.python_version(),
            "created_unix": time.time(),
            "repro_version": __version__}


def _population_provenance(population: BurstPopulation) -> Dict[str, object]:
    return {"population": population.digest(),
            "population_bursts": len(population)}


def _lacks_inputs(spec) -> bool:
    """True for a spec loaded without its population or trace."""
    return (isinstance(getattr(spec, "population", None), OpaquePopulation)
            or getattr(spec, "_render_only", False))


def _run(axis: Axis, spec, backend: Optional[str],
         cache: Optional[ActivityCache], **options):
    """The run loop of every kind: plan, look up, execute, price, stamp.

    Every unique key is looked up once, in declaration order; only the
    missing ones execute, and their totals are stored in the same order
    before any cell is priced.  ``options`` reach :attr:`Axis.execute`
    and the provenance.
    """
    if options.get("jobs", 1) < 1:
        raise ValueError(f"jobs must be >= 1, got {options['jobs']}")
    resolved = axis.resolve_backend(backend)
    if cache is None:
        cache = ActivityCache()
    start = time.perf_counter()
    cells: Dict[object, str] = {}
    tasks: Dict[str, object] = {}
    for cell, key, task in axis.plan(spec):
        cells[cell] = key
        tasks.setdefault(key, task)
    todo = [(key, task) for key, task in tasks.items() if key not in cache]
    hits = len(tasks) - len(todo)
    cache.count_lookups(hits, len(todo))
    if todo:
        if _lacks_inputs(spec):
            raise RuntimeError(
                f"{axis.kind} spec {spec.name!r} was loaded from an "
                "artifact without its population or trace and cannot "
                "re-execute; pass a cache holding its totals, or re-run "
                f"with the original inputs (missing: "
                f"{[key for key, __ in todo]})")
        results = axis.execute(spec, [task for __, task in todo], resolved,
                               **options)
        for (key, __), totals in zip(todo, results):
            cache.store(key, totals)
    outputs = axis.price(spec, cells, cache)
    provenance = {"backend": resolved, **options, axis.counter: len(todo),
                  "cache_hits": hits, "cache_misses": len(todo),
                  **axis.describe(spec),
                  "elapsed_s": time.perf_counter() - start,
                  **provenance_stamp()}
    totals = {key: cache.get(key) for key in tasks}
    return axis.result_type(spec=spec, totals=totals, provenance=provenance,
                            **outputs)


def run_experiment(spec: ExperimentSpec, backend: Optional[str] = None,
                   jobs: int = 1, cache: Optional[ActivityCache] = None,
                   chunk_size: int = DEFAULT_CHUNK_SIZE) -> ExperimentResult:
    """Execute a figure spec: plan unique encodes, run them, price the grid.

    ``jobs > 1`` fans the missing encode tasks out to a process pool;
    results are merged back in deterministic declaration order, and the
    totals are exact integers, so the output is bit-identical to a
    serial run.  ``cache`` defaults to a fresh per-run
    :class:`ActivityCache`; pass one cache to several runs (or a
    :class:`~repro.service.diskcache.DiskActivityCache`) to reuse
    encodes across experiments.
    """
    return _run(_AXES["experiment"], spec, backend, cache, jobs=jobs,
                chunk_size=chunk_size)


def run_replay(spec: ReplaySpec, backend: Optional[str] = None,
               jobs: int = 1, cache: Optional[ActivityCache] = None) -> ReplayResult:
    """Execute a replay spec: plan unique replays, run them, price points.

    Points are deduplicated by :meth:`ReplaySpec.replay_key` and missing
    replays run serially or on a process pool (``jobs``), exactly like
    :func:`run_experiment`.  Source-backed specs stream every replay
    through :meth:`~repro.ctrl.controller.MemoryController.submit_source`
    in bounded memory and always run serially; their totals — and
    therefore the cache entries and priced energies — are bit-identical
    to an inline replay of the same bytes.  A spec's
    ``schedule``/``tracking`` axis adds one more series under
    :attr:`ReplaySpec.adaptive_label`, priced per segment at that
    segment's own operating point.
    """
    return _run(_AXES["replay"], spec, backend, cache, jobs=jobs)


def run_faults(spec: FaultSpec, backend: Optional[str] = None,
               cache: Optional[ActivityCache] = None) -> FaultResult:
    """Execute a fault spec: plan unique coverage rows, inject, tally.

    Rows are deduplicated by :meth:`FaultSpec.coverage_key`, only the
    missing rates of a slot are injected, and the result is
    bit-identical across backends (there is no ``jobs``: the batched
    engine tallies a rate from its mask planes alone, encoding nothing).
    ``backend`` follows :func:`repro.hw.bitsim.resolve_sim_backend` —
    ``auto`` resolves to the batched engine even without NumPy.
    """
    return _run(_AXES["faults"], spec, backend, cache)


def run_granularity(spec: GranularitySpec, backend: Optional[str] = None,
                    cache: Optional[ActivityCache] = None
                    ) -> GranularityResult:
    """Execute a granularity spec: one cached encode per group size.

    The produced rows equal
    :func:`repro.extensions.granularity.granularity_table` on the same
    population.
    """
    return _run(_AXES["granularity"], spec, backend, cache)


def run_sso(spec: SsoSpec, backend: Optional[str] = None,
            cache: Optional[ActivityCache] = None) -> SsoResult:
    """Execute an SSO spec: encode + tally once per slot, price per interface.

    Statistics come from :func:`~repro.analysis.sso.sso_of_scheme_batch`;
    ``backend`` follows :func:`repro.hw.bitsim.resolve_sim_backend`.
    """
    return _run(_AXES["sso"], spec, backend, cache)


# -- artifacts ---------------------------------------------------------------

def result_to_json(result) -> Dict[str, object]:
    """Any kind's result as its ``repro.experiment/1`` artifact dict."""
    for axis in _AXES.values():
        if isinstance(result, axis.result_type):
            break
    else:
        raise TypeError(f"not an experiment result: {type(result).__name__}")
    payload: Dict[str, object] = {"format": ARTIFACT_FORMAT}
    if axis.kind != "experiment":
        # Figure artifacts predate the field; no kind means "experiment".
        payload["kind"] = axis.kind
    payload["spec"] = axis.spec_to_json(result)
    for name in axis.outputs:
        payload[name] = copy.copy(getattr(result, name))
    payload["totals"] = {key: axis.totals_record(totals)
                         for key, totals in result.totals.items()}
    payload["provenance"] = dict(result.provenance)
    return payload


#: The replay artifact is the same envelope (kept for its callers).
replay_result_to_json = result_to_json


def save_artifact(result, path) -> None:
    """Persist any kind's spec + outputs + totals + provenance as JSON.

    Floats round-trip exactly (shortest-repr serialisation), so a loaded
    artifact re-renders bit-identical tables.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_to_json(result), handle, indent=1)
        handle.write("\n")


save_replay_artifact = save_artifact


def _load(path, kind: str):
    """Read one ``repro.experiment/1`` file, check its kind and the shape
    of its fields, decode it; a malformed file raises ``ValueError``
    naming the file and the kind."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path}: artifact must be a JSON object, got "
            f"{type(payload).__name__}")
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a {ARTIFACT_FORMAT} artifact "
            f"(format={payload.get('format')!r})")
    found = payload.get("kind", "experiment")
    if found != kind:
        other = _AXES.get(str(found))
        raise ValueError(
            f"{path}: artifact kind {found!r}, expected {kind!r}"
            + (f"; load it with {other.loader}" if other else ""))
    axis = _AXES[kind]
    sections = {"totals": {}, "provenance": {}, **payload}  # both optional
    for name in ("spec", "totals", "provenance", *axis.outputs):
        shape = list if name == "rows" else dict
        if not isinstance(sections.get(name), shape):
            raise ValueError(
                f"{path}: {kind} artifact field {name!r} must be a JSON "
                f"{'array' if shape is list else 'object'}, got "
                f"{type(sections.get(name)).__name__}")
    try:
        spec = axis.spec_from_json(sections["spec"])
        totals = {key: totals_from_json(axis.totals_kind, record)
                  for key, record in sections["totals"].items()}
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"{path}: malformed {kind} artifact "
                         f"({type(error).__name__}: {error})") from error
    return axis.result_type(
        spec=spec, totals=totals,
        provenance={**sections["provenance"], "loaded_from": str(path)},
        **{name: sections[name] for name in axis.outputs})


def load_artifact(path) -> ExperimentResult:
    """Load a persisted figure experiment.

    Declarative populations (and registry schemes) are rebuilt, so the
    experiment can be *re-run*; explicit populations come back as
    render-only placeholders.
    """
    return _load(path, "experiment")


def load_replay_artifact(path) -> ReplayResult:
    """Load a persisted controller replay.

    Artifacts with an inlined payload (or a source descriptor that
    resolves here) come back re-runnable; digest-only artifacts come back
    *render-only* — their series and totals re-render exactly, but
    :func:`run_replay` refuses to re-execute them unless every replay key
    is already cached.
    """
    return _load(path, "replay")


def load_fault_artifact(path) -> FaultResult:
    """Load a persisted fault-coverage experiment (slots: see
    :func:`_slot_from_json`)."""
    return _load(path, "faults")


def load_granularity_artifact(path) -> GranularityResult:
    """Load a persisted granularity ablation (re-runnable spec)."""
    return _load(path, "granularity")


def load_sso_artifact(path) -> SsoResult:
    """Load a persisted simultaneous-switching sweep (slots: see
    :func:`_slot_from_json`)."""
    return _load(path, "sso")
