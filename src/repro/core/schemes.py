"""Common interface for every DBI encoding scheme plus a registry.

Every scheme — the paper's optimal encoders as well as all baselines —
implements :class:`DbiScheme`: it maps a :class:`~repro.core.burst.Burst`
to an :class:`EncodedBurst` describing exactly which bytes are inverted and
what ends up on the wire.  All figures and tables of the paper are produced
by running registered schemes through the same simulation harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .bitops import (
    ALL_ONES_WORD,
    check_word,
    decode_word,
    make_word,
    total_transitions,
    total_zeros,
)
from .burst import Burst, as_bursts
from .costs import CostModel
from .vectorized import chained_flags, flags_to_words, try_vector_pack


@dataclass(frozen=True)
class EncodedBurst:
    """The result of DBI-encoding one burst.

    Attributes
    ----------
    burst:
        The original data.
    invert_flags:
        Per-byte invert decision (True = transmitted inverted, DBI lane 0).
    words:
        The 9-bit wire words actually transmitted (derived, cached).
    prev_word:
        Bus state before the first beat (idle-high by default).
    """

    burst: Burst
    invert_flags: Tuple[bool, ...]
    prev_word: int = ALL_ONES_WORD

    def __post_init__(self) -> None:
        if len(self.invert_flags) != len(self.burst):
            raise ValueError(
                f"{len(self.invert_flags)} invert flags for {len(self.burst)} bytes"
            )
        check_word(self.prev_word)

    @property
    def words(self) -> Tuple[int, ...]:
        """The 9-bit words on the wire, in transmission order."""
        return tuple(
            make_word(byte, inverted)
            for byte, inverted in zip(self.burst, self.invert_flags)
        )

    def __len__(self) -> int:
        return len(self.burst)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)

    # -- activity statistics ----------------------------------------------
    def zeros(self) -> int:
        """Total zero-lane-beats over the burst (all 9 lanes)."""
        return total_zeros(self.words)

    def transitions(self) -> int:
        """Total lane toggles over the burst, from the idle/previous state."""
        return total_transitions(self.words, self.prev_word)

    def activity(self) -> Tuple[int, int]:
        """``(transitions, zeros)`` pair — the coordinates of Fig. 2's labels."""
        return self.transitions(), self.zeros()

    def cost(self, model: CostModel) -> float:
        """Burst cost under a :class:`~repro.core.costs.CostModel`."""
        n_transitions, n_zeros = self.activity()
        return model.activity_cost(n_transitions, n_zeros)

    def decode(self) -> Burst:
        """Receiver-side decode; must always round-trip to ``burst``."""
        return Burst(decode_word(word) for word in self.words)

    def last_word(self) -> int:
        """Bus state after the burst (feeds the next burst's boundary)."""
        return self.words[-1]

    def verify(self) -> None:
        """Raise ``AssertionError`` unless the encoding round-trips."""
        decoded = self.decode()
        if decoded.data != self.burst.data:
            raise AssertionError(
                f"DBI round-trip failed: sent {self.burst.data}, decoded {decoded.data}"
            )


class DbiScheme(abc.ABC):
    """Abstract DBI encoding policy.

    Subclasses decide, for each byte of a burst, whether to invert it.
    Implementations must be deterministic and stateless across calls; any
    inter-burst state (the previous bus word) is passed explicitly so the
    simulation harness can chain bursts.
    """

    #: Short identifier used in tables, plots and the registry.
    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, burst: Burst, prev_word: int = ALL_ONES_WORD) -> EncodedBurst:
        """Encode one burst given the previous bus state."""

    def fingerprint(self) -> str:
        """Stable content key for this scheme's encoding decisions.

        Two instances with equal fingerprints must produce identical
        invert decisions for every burst encoded from the idle bus, so
        population activity totals may be shared between them — this is
        the scheme half of the experiment engine's activity-cache key
        (:class:`repro.sim.experiments.ActivityCache`).  The default, the
        registry name, is correct for parameterless schemes; schemes with
        decision-relevant parameters must extend it (see
        :meth:`repro.core.encoder.DbiOptimal.fingerprint`).
        """
        return self.name

    def encode_stream(self, bursts: Iterable[Burst],
                      prev_word: int = ALL_ONES_WORD) -> List[EncodedBurst]:
        """Encode a sequence of bursts, threading bus state between them."""
        encoded: List[EncodedBurst] = []
        state = prev_word
        for burst in bursts:
            result = self.encode(burst, prev_word=state)
            encoded.append(result)
            state = result.last_word()
        return encoded

    # -- batch API ---------------------------------------------------------
    def batch_flags(self, data, prev_words):
        """Vector kernel: invert flags for a packed ``(batch, n)`` array.

        ``data`` is a ``uint8`` array (one burst per row), ``prev_words``
        a ``(batch,)`` array of per-row boundary words.  Returns a
        ``(batch, n)`` bool array bit-identical to calling :meth:`encode`
        row by row.  Schemes without a vector kernel leave this
        unimplemented and :meth:`wire_words` / :meth:`encode_batch` use
        the reference per-burst path.
        """
        raise NotImplementedError(f"{type(self).__name__} has no vector kernel")

    def supports_batch(self) -> bool:
        """True when this scheme provides a vectorized :meth:`batch_flags`."""
        return type(self).batch_flags is not DbiScheme.batch_flags

    def wire_words(self, bursts, prev_word: int = ALL_ONES_WORD,
                   chained: bool = False, backend: Optional[str] = None):
        """The wire words of *bursts* (a burst list or iterator, a
        population or a packed array): the one encode path behind every
        tally, axis and engine.

        Where :func:`~repro.core.vectorized.try_vector_pack` admits the
        scheme on *backend*, a ``(batch, n)`` int64 array from
        :meth:`batch_flags` (through
        :func:`~repro.core.vectorized.chained_flags` when ``chained``);
        otherwise one word tuple per burst from the reference loop
        (:meth:`encode`, or :meth:`encode_stream` when ``chained``).
        Both branches give the same words.
        """
        if iter(bursts) is bursts:
            bursts = list(bursts)
        data = try_vector_pack(self, bursts, backend)
        if data is None:
            return [encoded.words for encoded
                    in self._encode_each(bursts, prev_word, chained)]
        flags = (chained_flags(self.batch_flags, data, prev_word) if chained
                 else self._flags(data, prev_word))
        return flags_to_words(data, flags)

    def encode_batch(self, bursts: Iterable[Burst],
                     prev_word: int = ALL_ONES_WORD,
                     backend: Optional[str] = None) -> List[EncodedBurst]:
        """Encode a whole burst population (independent boundaries).

        With the ``vector`` backend (the default whenever NumPy is
        available) equal-length populations are encoded array-at-a-time
        through :meth:`batch_flags`; ragged populations, schemes without
        a kernel, and the ``reference`` backend use the per-burst path.
        Results are identical either way.
        """
        burst_list = list(bursts)
        data = try_vector_pack(self, burst_list, backend)
        if data is None:
            return self._encode_each(burst_list, prev_word, chained=False)
        flags = self._flags(data, prev_word)
        return [EncodedBurst(burst=burst, invert_flags=tuple(map(bool, row)),
                             prev_word=prev_word)
                for burst, row in zip(burst_list, flags)]

    def _flags(self, data, prev_word: int):
        """:meth:`batch_flags` with every row starting from *prev_word*."""
        import numpy as np

        return self.batch_flags(
            data, np.full(data.shape[0], prev_word, dtype=np.int64))

    def _encode_each(self, bursts, prev_word: int,
                     chained: bool) -> List[EncodedBurst]:
        """The reference per-burst loop, the specification of every
        vector branch."""
        bursts = as_bursts(bursts)
        if chained:
            return self.encode_stream(bursts, prev_word)
        return [self.encode(burst, prev_word=prev_word) for burst in bursts]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: Global scheme registry: name -> zero-argument factory.
_REGISTRY: Dict[str, Callable[[], DbiScheme]] = {}


def register_scheme(name: str, factory: Callable[[], DbiScheme]) -> None:
    """Register a scheme factory under *name* (overwrites silently)."""
    if not name:
        raise ValueError("scheme name must be non-empty")
    _REGISTRY[name] = factory


def get_scheme(name: str) -> DbiScheme:
    """Instantiate a registered scheme by name.

    >>> get_scheme("dbi-dc").name
    'dbi-dc'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheme {name!r}; known schemes: {known}") from None
    return factory()

def available_schemes() -> List[str]:
    """Names of all registered schemes, sorted."""
    return sorted(_REGISTRY)
