"""Scheme × workload evaluation runner.

Evaluates a set of DBI schemes over a common burst population and collects
:class:`~repro.sim.metrics.SchemeMetrics`.  Two transmission modes:

* **independent** (default, the paper's setting): every burst starts from
  the idle-high bus (``prev_word = 0x1FF``);
* **chained**: bus state threads from each burst into the next, modelling
  back-to-back write bursts.

Both modes are the one population tally,
:func:`repro.sim.experiments.population_metrics`, on the one encoder,
:meth:`repro.core.schemes.DbiScheme.wire_words`: ``backend`` picks its
vector or reference branch and never changes a result.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from ..core.burst import Burst
from ..core.schemes import DbiScheme, get_scheme
from ..workloads.population import as_population
from .experiments import population_metrics
from .metrics import EvaluationResult

SchemeSpec = Union[str, DbiScheme]


def _resolve(spec: SchemeSpec) -> DbiScheme:
    if isinstance(spec, DbiScheme):
        return spec
    return get_scheme(spec)


def evaluate(schemes: Sequence[SchemeSpec], bursts: Iterable[Burst],
             workload: str = "adhoc", chained: bool = False,
             backend: Optional[str] = None) -> EvaluationResult:
    """Run every scheme over every burst and tally activity.

    Scheme specs may be registry names or instantiated schemes; instances
    are useful for parameterised encoders (``DbiOptimal(model)``).
    ``backend`` selects the execution path (``"auto"``/``"reference"``/
    ``"vector"``) without affecting results.

    >>> from repro.core.burst import Burst
    >>> result = evaluate(["raw", "dbi-dc"], [Burst([0x00])])
    >>> result["dbi-dc"].zeros
    1
    """
    resolved: Dict[str, DbiScheme] = {}
    for spec in schemes:
        scheme = _resolve(spec)
        if scheme.name in resolved:
            raise ValueError(f"duplicate scheme name {scheme.name!r}")
        resolved[scheme.name] = scheme
    return evaluate_named(resolved, bursts, workload=workload,
                          chained=chained, backend=backend)


def evaluate_named(schemes: Mapping[str, SchemeSpec], bursts: Iterable[Burst],
                   workload: str = "adhoc", chained: bool = False,
                   backend: Optional[str] = None) -> EvaluationResult:
    """Like :func:`evaluate` but with caller-chosen display names.

    Needed when the same scheme class appears twice with different
    parameters (e.g. ``OPT`` at several operating points).  Every scheme
    is tallied by :func:`repro.sim.experiments.population_metrics`.
    """
    population = as_population(bursts)
    result = EvaluationResult(workload=workload)
    for name, spec in schemes.items():
        metrics = population_metrics(_resolve(spec), population,
                                     backend=backend, chained=chained)
        metrics.scheme = name
        result.metrics[name] = metrics
    return result
