"""Shared retry policy for the service stack.

One :class:`RetryPolicy` value describes how any caller — the
:class:`~repro.service.client.ServiceClient` or user code — survives
transient failures: how many attempts, how the backoff grows, and which
errors count as *transient* in the first place.  Like everything else in
this repro, retries are deterministic: the jittered backoff schedule is
a pure function of ``(seed, attempt)``, so a chaos run that retries is
reproducible byte-for-byte.

Failure taxonomy
----------------

Retryable (transient — the operation may succeed if repeated):

* :class:`ConnectionError` — resets, refusals, broken pipes; the peer
  or the network dropped the connection.
* :class:`TimeoutError` (incl. ``socket.timeout``) — stalls past a
  deadline.
* :class:`EOFError` — a stream ended mid-message.
* :class:`TransientServiceError` — a marker base class for protocol-
  level "try again" answers (e.g. the daemon's *busy* response).

Everything else is non-retryable by default and propagates unchanged:
typed input errors (:class:`ValueError`), corrupt-data errors, and
plain bugs must stay loud.  Callers with a wider transient surface (a
run over a chaos-injected cache treats :class:`OSError` as transient)
pass their own ``retryable`` tuple.

When the attempts run out the caller gets a typed
:class:`RetryExhaustedError` chaining the last underlying failure —
never a silent partial result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


class TransientServiceError(RuntimeError):
    """Marker base: a protocol-level answer that means *retry later*."""


#: Default transient-error taxonomy (see module docstring).
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    ConnectionError, TimeoutError, EOFError, TransientServiceError)


class RetryExhaustedError(RuntimeError):
    """Every attempt failed with a transient error; the last one chains."""

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"gave up after {attempts} attempt(s); last error: "
            f"{type(last_error).__name__}: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Attempts + deterministic exponential backoff + error taxonomy.

    ``delay_for(attempt)`` (attempt numbers start at 1) is a pure
    function: ``base_delay_s * multiplier**(attempt-1)`` capped at
    ``max_delay_s``, scaled by a jitter factor drawn from
    ``random.Random((seed, attempt))`` in ``[1-jitter, 1+jitter]`` — two
    policies with equal fields back off identically, which keeps chaos
    runs reproducible.  ``max_attempts=1`` disables retrying entirely.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable: Tuple[Type[BaseException], ...] = field(
        default=TRANSIENT_ERRORS)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def delay_for(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt numbers start at 1, got {attempt}")
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if not delay or not self.jitter:
            return delay
        rng = random.Random(f"retry:{self.seed}:{attempt}")
        return delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def call(self, fn: Callable[[], T],
             sleep: Callable[[float], None] = time.sleep,
             before_retry: Optional[Callable[[int, BaseException],
                                             None]] = None) -> T:
        """Run ``fn`` under this policy.

        Non-retryable errors propagate unchanged on the spot; retryable
        ones are re-attempted after the scheduled backoff until
        ``max_attempts`` is spent, then wrapped in a typed
        :class:`RetryExhaustedError` (chained via ``from``).
        ``before_retry(attempt, error)`` observes each failure that will
        be retried; ``sleep`` is injectable so tests need not wait.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except Exception as error:
                if not self.is_retryable(error):
                    raise
                if attempt >= self.max_attempts:
                    raise RetryExhaustedError(attempt, error) from error
                if before_retry is not None:
                    before_retry(attempt, error)
                sleep(self.delay_for(attempt))
        raise AssertionError("unreachable")  # pragma: no cover
