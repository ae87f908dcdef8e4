"""Experiment engine as a service.

The :mod:`repro.sim.experiments` engine already deduplicates encodes
through a content-addressed :class:`~repro.sim.experiments.ActivityCache`
— but that cache dies with the process, and every CLI invocation
re-pays interpreter startup plus cold encodes.  This package serves the
engine in two layers, each usable on its own:

* :mod:`repro.service.diskcache` — :class:`~repro.service.diskcache.
  DiskActivityCache`, an on-disk tier with the exact
  :class:`~repro.sim.experiments.ActivityCache` interface.  Entries are
  per-key JSON files named by the SHA-256 of the content-addressed cache
  key, written via atomic rename, so any number of concurrent writers
  (processes or machines sharing a filesystem) are safe without locks;
  the read path never blocks.  ``--cache-dir`` or ``REPRO_CACHE_DIR``
  selects the directory (:func:`~repro.service.diskcache.open_cache`),
  so warm runs skip every encode across processes.

* :mod:`repro.service.daemon` / :mod:`repro.service.client` — a
  long-running JSON-lines TCP server (stdlib :mod:`socketserver`, no new
  dependencies) that loads the disk cache once and answers ``sweep`` /
  ``replay`` / ``artifact`` / ``stats`` queries, started with ``repro
  serve``; the client is a thin blocking socket wrapper.  Artifact
  payloads in responses are exactly :func:`~repro.sim.experiments.
  result_to_json` output, so daemon answers are byte-identical (modulo
  run-volatile provenance) to direct engine runs.

Everything here is pure stdlib: the package imports, and the daemon
serves, without NumPy installed (the engine then runs its reference
backend).

Failure taxonomy
----------------

Every layer distinguishes *transient* faults (retry helps) from
*permanent* ones (retrying is wrong), and the whole stack promises one
invariant: under any fault the final artifact is either **bit-identical
to the fault-free run or a loud typed error** — never silent corruption.

* **Transient** — :data:`~repro.service.retry.TRANSIENT_ERRORS`
  (``ConnectionError``, ``TimeoutError``, ``EOFError``, and the
  :class:`~repro.service.retry.TransientServiceError` marker, which
  includes the daemon's *busy* answer
  :class:`~repro.service.client.ServiceBusyError`).  All are retried
  under a deterministic seeded :class:`~repro.service.retry.RetryPolicy`;
  a caller with a wider transient surface passes its own ``retryable``.
* **Permanent** — :class:`~repro.service.client.ServiceError` (the
  daemon said no), validation ``ValueError``/``TypeError``; these
  propagate immediately.
* **Exhaustion** — retries that run out raise
  :class:`~repro.service.retry.RetryExhaustedError`, chaining the last
  underlying cause.
* **Degradation** — :class:`~repro.service.diskcache.DiskActivityCache`
  never raises on a sick disk: write failures downgrade it to a
  memory-only tier and corrupt entries are quarantined to ``*.bad``,
  both counted in :meth:`~repro.service.diskcache.DiskActivityCache.
  health` and served by the daemon's ``health`` op.
* **Chaos** — :mod:`repro.service.faults` injects all of the above
  deterministically (:class:`~repro.service.faults.FaultPlan` →
  :class:`~repro.service.faults.FaultyCache`,
  :class:`~repro.service.faults.FlakyProxy`) so the chaos test suite
  can prove the invariant byte-for-byte.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "diskcache": ("DiskActivityCache", "open_cache", "resolve_cache_dir"),
    "faults": ("FaultPlan", "FaultyCache", "FlakyProxy"),
    "retry": ("TRANSIENT_ERRORS", "RetryExhaustedError", "RetryPolicy",
              "TransientServiceError"),
})
