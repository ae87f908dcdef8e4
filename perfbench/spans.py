"""Benchmark-side tracing: ``perf_counter`` spans around public calls.

The program has no spans of its own yet, so the traced run wraps the
public functions and methods each layer exposes, patched on the object
the *caller* looks them up on (``repro.cli.run_experiment``, not
``repro.sim.experiments.run_experiment``), and restores the originals
afterwards.  Spans stay in memory until :meth:`Tracer.summary`; a
span's self time is its duration minus the time its direct child spans
cover.  Generator functions are timed per resumption, so a generator's
time is the time spent producing items, not the time its consumer held
them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """In-memory span and counter store, safe to share between threads."""

    def __init__(self) -> None:
        #: ``(name, duration, self_time)`` per finished span.
        self.spans: List[Tuple[str, float, float]] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self.spans.append((name, duration, duration - frame[0]))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total ``s``, ``self_s`` and ``calls``."""
        table: Dict[str, Dict[str, float]] = {}
        for name, duration, self_time in self.spans:
            row = table.setdefault(name, {"s": 0.0, "self_s": 0.0,
                                          "calls": 0})
            row["s"] += duration
            row["self_s"] += self_time
            row["calls"] += 1
        return table


def _stream_bytes(args, kwargs) -> int:
    """Bytes in one ``BatchStreamingEncoder.push(streams)`` call."""
    streams = args[1] if len(args) > 1 else kwargs["streams"]
    return sum(len(stream) for stream in streams)


#: ``(module, attribute path, span name, kind, byte counter)``: every
#: public call the traced run wraps.  ``kind`` is ``call`` or ``gen``.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.cli", "run_experiment", "sim.run_experiment", "call", None),
    ("repro.cli", "run_faults", "sim.run_faults", "call", None),
    ("repro.cli", "run_granularity", "sim.run_granularity", "call", None),
    ("repro.cli", "run_sso", "sim.run_sso", "call", None),
    ("repro.cli", "run_replay", "sim.run_replay", "call", None),
    ("repro.service.daemon", "run_experiment", "sim.run_experiment",
     "call", None),
    ("repro.service.daemon", "run_replay", "sim.run_replay", "call", None),
    ("repro.service.daemon", "result_to_json", "sim.result_to_json",
     "call", None),
    ("repro.service.daemon", "ExperimentService.handle",
     "service.ExperimentService.handle", "call", None),
    ("repro.service.diskcache", "DiskActivityCache.get",
     "service.DiskActivityCache.get", "call", None),
    ("repro.service.diskcache", "DiskActivityCache.store",
     "service.DiskActivityCache.store", "call", None),
    ("repro.sim.experiments", "population_activity",
     "sim.population_activity", "call", None),
    ("repro.core.vectorized", "scheme_batch_activity",
     "core.scheme_batch_activity", "call", None),
    ("repro.core.streaming", "BatchStreamingEncoder.push",
     "core.BatchStreamingEncoder.push", "call", _stream_bytes),
    ("repro.core.streaming", "BatchStreamingEncoder.flush",
     "core.BatchStreamingEncoder.flush", "call", None),
    ("repro.ctrl.controller", "MemoryController.submit",
     "ctrl.MemoryController.submit", "call", None),
    ("repro.ctrl.controller", "transactions_from_source",
     "ctrl.transactions_from_source", "gen", None),
    ("repro.ctrl.adaptive", "AdaptiveCostTracker.observe",
     "ctrl.AdaptiveCostTracker.observe", "call", None),
    ("repro.ctrl.adaptive", "AdaptiveCostTracker.select",
     "ctrl.AdaptiveCostTracker.select", "call", None),
    ("repro.workloads.source", "SyntheticTraceSource.chunks",
     "workloads.source.chunks", "gen", None),
    ("repro.workloads.source", "FileTraceSource.chunks",
     "workloads.source.chunks", "gen", None),
)


def _wrap_call(tracer: Tracer, name: str, function, byte_counter):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if byte_counter is not None:
            tracer.count(f"{name}.bytes", byte_counter(args, kwargs))
        with tracer.span(name):
            return function(*args, **kwargs)
    return wrapper


def _wrap_gen(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        generator = function(*args, **kwargs)
        try:
            while True:
                with tracer.span(name):
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                yield item
        finally:
            generator.close()
    return wrapper


def _owner(module_name: str, path: str):
    """``(object holding the attribute, attribute name)``."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(tracer: Tracer,
            modules: Optional[Iterable[str]] = None) -> Callable[[], None]:
    """Wrap every target (or those in *modules*); return the restorer.

    Class attributes are read from the class ``__dict__`` so the exact
    original object goes back on restore.
    """
    wanted = None if modules is None else set(modules)
    saved = []
    for module_name, path, name, kind, byte_counter in TARGETS:
        if wanted is not None and module_name not in wanted:
            continue
        owner, attribute = _owner(module_name, path)
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        wrapped = (_wrap_gen(tracer, name, original) if kind == "gen"
                   else _wrap_call(tracer, name, original, byte_counter))
        setattr(owner, attribute, wrapped)
        saved.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        saved.clear()

    return restore


def layer_metrics(summary: Dict[str, Dict[str, float]],
                  counts: Dict[str, float]) -> Dict[str, float]:
    """Flatten a span summary into ``<span>.<stat>`` metric values."""
    flat: Dict[str, float] = {}
    for name, row in summary.items():
        for stat, value in row.items():
            flat[f"{name}.{stat}"] = value
    flat.update(counts)
    return flat
