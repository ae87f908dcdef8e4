"""Deterministic sharding of experiment grids.

A sweep's grid cells are independent given the cached activity totals,
so an :class:`~repro.sim.experiments.ExperimentSpec` splits exactly:
:func:`shard_spec` cuts the grid into N contiguous balanced slices (the
slot list, population and pricing ride along unchanged), each shard runs
through the ordinary :func:`~repro.sim.experiments.run_experiment` —
in-process, as an independent OS process, or on another machine sharing
a :class:`~repro.service.diskcache.DiskActivityCache` directory — and
:func:`merge_shards` concatenates the results back into one
:class:`~repro.sim.experiments.ExperimentResult` **bit-identical** to
the unsharded run: totals are exact integers and every cell is priced
only from its own grid point, so no float ever crosses a shard boundary.

Shard identity travels inside ``figure_params["shard"]`` (index, count,
parent name, grid offset, and the parent's figure identity), which makes
shards self-describing: they persist as ordinary ``repro.experiment/1``
artifacts, and :func:`merge_shards` can reassemble results loaded back
from JSON just as well as in-memory ones.

:func:`run_shards` is the local driver — shard, execute (optionally on a
process pool with a shared disk cache so static slots are encoded once
per *run*, not once per shard), merge.

Fault tolerance
---------------

A fleet-scale sweep meets killed workers and sick disks; the driver
absorbs both:

* **per-shard retry** — a shard whose execution fails with a transient
  error (a crashed pool worker surfacing as ``BrokenProcessPool``, an
  :class:`OSError` out of a chaos-injected cache) is resubmitted, on a
  fresh pool if the old one broke, under a
  :class:`~repro.service.retry.RetryPolicy`; exhausted retries raise a
  typed :class:`ShardExecutionError` naming the shard — never a silent
  partial merge;
* **checkpoint/resume** — with ``checkpoint_dir=`` every completed
  shard is atomically persisted as the ordinary self-describing
  ``repro.experiment/1`` artifact it already is; a re-run with the same
  directory validates each checkpoint against its shard (parent, index,
  grid, population digest) and skips the ones already done, so an
  interrupted 1000-cell sweep restarts where it died.  Resumed shards
  contribute zero ``encodes`` to the merged provenance (the *run*
  executed none for them) and are counted in ``resumed_shards``;
  :func:`merge_shards` merges mixed disk/fresh shard results
  bit-identically because artifact floats round-trip exactly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.experiments import (
    ActivityCache,
    ActivityTotals,
    ExperimentResult,
    ExperimentSpec,
    load_artifact,
    provenance_stamp,
    run_experiment,
    save_artifact,
)
from ..workloads.population import DEFAULT_CHUNK_SIZE
from .diskcache import DiskActivityCache
from .faults import crash_point
from .retry import TRANSIENT_ERRORS, RetryExhaustedError, RetryPolicy

#: Shard execution additionally treats I/O errors (sick shared cache
#: disk) and broken process pools (killed workers) as transient.
SHARD_RETRYABLE = TRANSIENT_ERRORS + (OSError, BrokenProcessPool)

#: Default driver policy: three attempts per shard, 50 ms seeded backoff.
DEFAULT_SHARD_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05,
                                  retryable=SHARD_RETRYABLE)


class ShardExecutionError(RuntimeError):
    """One shard kept failing; the last underlying error chains via cause."""

    def __init__(self, shard_name: str, attempts: int,
                 cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_name!r} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}")
        self.shard_name = shard_name
        self.attempts = attempts
        self.cause = cause


def shard_spec(spec: ExperimentSpec, count: int) -> Tuple[ExperimentSpec, ...]:
    """Split *spec* into at most *count* runnable single-slice specs.

    The grid is cut into contiguous balanced slices in declaration
    order, so ``shard_spec(spec, 1)[0]`` differs from *spec* only by the
    shard tag and the number of shards never exceeds the number of grid
    points.  The split is deterministic: the same ``(spec, count)``
    always produces identical shards.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    cells = len(spec.grid)
    count = min(count, cells)
    shards: List[ExperimentSpec] = []
    for index in range(count):
        start = index * cells // count
        stop = (index + 1) * cells // count
        tag = {
            "index": index,
            "of": count,
            "offset": start,
            "parent": spec.name,
            "figure": spec.figure,
            "figure_params": dict(spec.figure_params),
        }
        shards.append(ExperimentSpec(
            name=f"{spec.name}#shard{index}/{count}",
            population=spec.population,
            slots=spec.slots,
            grid=spec.grid[start:stop],
            pricing=spec.pricing,
            figure=None,
            figure_params={"shard": tag},
        ))
    return tuple(shards)


def _shard_tag(result: ExperimentResult) -> Dict[str, object]:
    tag = result.spec.figure_params.get("shard")
    if not isinstance(tag, dict):
        raise ValueError(
            f"{result.spec.name!r} is not a shard result (no shard tag "
            "in figure_params)")
    return tag


def merge_shards(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Reassemble shard results into the unsharded result, bit-identically.

    Accepts the shards in any order (they are sorted by shard index) but
    requires a complete, consistent set: same parent, same shard count,
    same slots, same population digest, every index present exactly
    once.  Series are concatenated in grid order and totals unioned
    (conflicting totals under one cache key fail loudly — that would
    mean the shards did not run the same population).
    """
    if not results:
        raise ValueError("no shard results to merge")
    tagged = sorted(results, key=lambda result: _shard_tag(result)["index"])
    first_tag = _shard_tag(tagged[0])
    parent = first_tag["parent"]
    count = int(first_tag["of"])
    indexes = [int(_shard_tag(result)["index"]) for result in tagged]
    if indexes != list(range(count)):
        raise ValueError(
            f"incomplete shard set for {parent!r}: have indexes {indexes}, "
            f"expected 0..{count - 1}")

    reference = tagged[0].spec
    slot_names = [slot.name for slot in reference.slots]
    digest = reference.population.digest()
    for result in tagged:
        tag = _shard_tag(result)
        if tag["parent"] != parent or int(tag["of"]) != count:
            raise ValueError(
                f"shard {result.spec.name!r} belongs to "
                f"{tag['parent']!r}/{tag['of']}, not {parent!r}/{count}")
        if [slot.name for slot in result.spec.slots] != slot_names:
            raise ValueError(
                f"shard {result.spec.name!r} has different slots")
        if result.spec.population.digest() != digest:
            raise ValueError(
                f"shard {result.spec.name!r} ran population "
                f"{result.spec.population.digest()}, expected {digest}")

    grid = tuple(point for result in tagged for point in result.spec.grid)
    series: Dict[str, List[float]] = {
        name: [value for result in tagged for value in result.series[name]]
        for name in slot_names
    }
    totals: Dict[str, ActivityTotals] = {}
    for result in tagged:
        for key, value in result.totals.items():
            if key in totals and totals[key] != value:
                raise ValueError(
                    f"conflicting totals for cache key {key} across shards")
            totals[key] = value

    spec = ExperimentSpec(
        name=str(parent),
        population=reference.population,
        slots=reference.slots,
        grid=grid,
        pricing=reference.pricing,
        figure=first_tag.get("figure"),
        figure_params=dict(first_tag.get("figure_params", {})),
    )
    provenance: Dict[str, object] = {
        "merged_shards": count,
        "resumed_shards": sum(
            1 for result in tagged
            if result.provenance.get("resumed_from_checkpoint")),
        "backend": tagged[0].provenance.get("backend"),
        "encodes": sum(int(result.provenance.get("encodes", 0))
                       for result in tagged),
        "cache_hits": sum(int(result.provenance.get("cache_hits", 0))
                          for result in tagged),
        "cache_misses": sum(int(result.provenance.get("cache_misses", 0))
                            for result in tagged),
        "grid_cells": len(grid),
        "population": digest,
        "population_bursts": len(reference.population),
        "elapsed_s": sum(float(result.provenance.get("elapsed_s", 0.0))
                         for result in tagged),
        **provenance_stamp(),
    }
    return ExperimentResult(spec=spec, series=series, totals=totals,
                            provenance=provenance)


def _run_shard_task(shard: ExperimentSpec, backend: Optional[str],
                    cache_dir: Optional[str],
                    chunk_size: int) -> ExperimentResult:
    """Process-pool payload: run one shard against the shared disk cache."""
    tag = shard.figure_params.get("shard", {})
    crash_point(f"shard:{tag.get('index')}")  # chaos-suite kill hook
    cache = DiskActivityCache(cache_dir) if cache_dir else None
    return run_experiment(shard, backend=backend, cache=cache,
                          chunk_size=chunk_size)


# -- checkpointing -----------------------------------------------------------

def _checkpoint_path(checkpoint_dir: str, shard: ExperimentSpec) -> str:
    tag = shard.figure_params["shard"]
    return os.path.join(checkpoint_dir,
                        f"shard{int(tag['index']):04d}-of-{int(tag['of'])}"
                        ".json")


def _store_checkpoint(path: str, result: ExperimentResult) -> None:
    """Atomically persist one shard result as an ordinary artifact."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        save_artifact(result, temp)
        os.replace(temp, path)
    finally:
        try:
            if os.path.exists(temp):
                os.unlink(temp)
        except OSError:
            pass


def _load_checkpoint(path: str,
                     shard: ExperimentSpec) -> Optional[ExperimentResult]:
    """A validated prior result for *shard*, or ``None`` to re-run it.

    The checkpoint must be a readable shard artifact whose identity
    (parent, index/of/offset, grid slice, slot names, population digest)
    matches *shard* exactly; anything else — including a corrupt file,
    which is quarantined to ``*.bad`` — re-runs the shard, which is
    always safe.  The returned result's provenance is marked
    ``resumed_from_checkpoint`` with its encode counters zeroed: *this*
    run performed no encodes for it.
    """
    try:
        result = load_artifact(path)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        try:
            os.replace(path, f"{path}.bad")
        except OSError:
            pass
        return None
    tag = result.spec.figure_params.get("shard")
    expected = shard.figure_params["shard"]
    if not isinstance(tag, dict):
        return None
    for field in ("index", "of", "offset", "parent"):
        if tag.get(field) != expected[field]:
            return None
    if result.spec.grid != shard.grid:
        return None
    if [slot.name for slot in result.spec.slots] != [slot.name
                                                     for slot in shard.slots]:
        return None
    if result.spec.population.digest() != shard.population.digest():
        return None
    provenance = dict(result.provenance)
    provenance.update(resumed_from_checkpoint=True, encodes=0,
                      cache_hits=0, cache_misses=0, elapsed_s=0.0)
    return ExperimentResult(spec=result.spec, series=result.series,
                            totals=result.totals, provenance=provenance)


def run_shards(spec: ExperimentSpec, count: int,
               backend: Optional[str] = None,
               cache: Optional[ActivityCache] = None,
               cache_dir: Optional[str] = None,
               processes: bool = False,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               retry: Optional[RetryPolicy] = None,
               checkpoint_dir: Optional[str] = None,
               max_workers: Optional[int] = None) -> ExperimentResult:
    """Shard *spec*, run every shard, merge — bit-identical to one run.

    ``processes=True`` executes each shard in its own OS process (the
    multi-machine shape, driven locally); pass ``cache_dir`` so the
    workers share one :class:`~repro.service.diskcache.DiskActivityCache`
    and static slots encode once per run instead of once per shard.
    ``max_workers`` bounds the pool (default: one worker per pending
    shard).  In-process execution (the default) shares ``cache`` (or a
    fresh in-memory one) across shards directly.

    ``retry`` (default :data:`DEFAULT_SHARD_RETRY`) resubmits shards
    whose execution failed transiently — killed pool workers, I/O
    errors — on a fresh pool; exhaustion raises a typed
    :class:`ShardExecutionError`.  ``checkpoint_dir`` persists each
    completed shard and resumes past completed ones on re-run (see the
    module docstring).
    """
    shards = shard_spec(spec, count)
    policy = retry if retry is not None else DEFAULT_SHARD_RETRY
    results: Dict[int, ExperimentResult] = {}

    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        for index, shard in enumerate(shards):
            loaded = _load_checkpoint(_checkpoint_path(checkpoint_dir, shard),
                                      shard)
            if loaded is not None:
                results[index] = loaded
    pending = [(index, shard) for index, shard in enumerate(shards)
               if index not in results]

    def complete(index: int, shard: ExperimentSpec,
                 result: ExperimentResult) -> None:
        results[index] = result
        if checkpoint_dir:
            try:
                _store_checkpoint(_checkpoint_path(checkpoint_dir, shard),
                                  result)
            except OSError:
                pass  # checkpointing degrades gracefully, like the cache

    if processes:
        if cache is not None:
            raise ValueError(
                "processes=True shares state through cache_dir, not a "
                "cache instance")
        attempts = {index: 0 for index, __ in pending}
        remaining = pending
        while remaining:
            workers = min(len(remaining), max_workers or len(remaining))
            retriable: List[Tuple[int, ExperimentSpec]] = []
            # A killed worker breaks the whole pool, so each wave gets a
            # fresh one; only the shards that actually failed re-run.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(index, shard,
                            pool.submit(_run_shard_task, shard, backend,
                                        cache_dir, chunk_size))
                           for index, shard in remaining]
                for index, shard, future in futures:
                    try:
                        result = future.result()
                    except Exception as error:
                        attempts[index] += 1
                        if (not policy.is_retryable(error)
                                or attempts[index] >= policy.max_attempts):
                            raise ShardExecutionError(
                                shard.name, attempts[index], error
                            ) from error
                        retriable.append((index, shard))
                    else:
                        complete(index, shard, result)
            if retriable:
                time.sleep(policy.delay_for(
                    max(attempts[index] for index, __ in retriable)))
            remaining = retriable
    else:
        if cache is None:
            cache = (DiskActivityCache(cache_dir) if cache_dir
                     else ActivityCache())
        for index, shard in pending:
            try:
                result = policy.call(
                    lambda shard=shard: run_experiment(
                        shard, backend=backend, cache=cache,
                        chunk_size=chunk_size))
            except RetryExhaustedError as error:
                raise ShardExecutionError(shard.name, error.attempts,
                                          error.last_error) from error
            complete(index, shard, result)
    return merge_shards([results[index] for index in range(len(shards))])
