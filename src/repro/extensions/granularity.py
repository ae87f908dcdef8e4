"""DBI granularity extension: one invert flag per *g*-bit group.

JEDEC DBI uses one DBI line per 8 DQ lines.  A natural design question —
and a classic trade in the bus-coding literature (cf. Stan/Burleson's
partitioned bus-invert) — is the granularity: finer groups (e.g. one DBI
line per nibble) track the data more closely and save more zeros and
transitions, but every extra line costs pins, and the extra lines
themselves carry zeros and transitions.

This module generalises the paper's optimal encoder to arbitrary group
sizes.  Groups are electrically independent (each group has its own DBI
line and its own trellis), so the optimum factorises: solve one two-state
trellis per group.  With ``group_size=8`` this reduces exactly to the
paper's encoder, which the tests assert.

Activity accounting matches the paper's convention, per group: a group
word is ``group_size + 1`` lanes (data + its DBI line), zeros and
transitions are counted over all of them.

Backend selection follows the library-wide vocabulary
(``"auto" | "reference" | "vector"``, see :mod:`repro.core.vectorized`):
the vector path stripes the ``8 // g`` group lanes of every burst along
the batch axis — an 8-byte burst at ``group_size=4`` becomes two
independent 5-lane trellis columns — and solves them as one window per
row in a single :func:`repro.core.vectorized._viterbi_planes` call, over
edge planes and edge weights of ``width = group_size + 1`` lanes.
Invert flags, zeros and transitions are bit-identical to the
scalar :meth:`GroupedDbiOptimal._solve_group` reference (the same
comparisons on the same values; the differential suite in
``tests/extensions/test_granularity.py`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.bitops import popcount
from ..core.burst import Burst, as_bursts
from ..core.costs import CostModel
from ..core.vectorized import resolve_backend, try_pack_bursts
from . import VALID_GROUP_SIZES


def split_groups(byte: int, group_size: int) -> List[int]:
    """Split a byte into ``8 // group_size`` groups, LSB group first.

    >>> split_groups(0xF0, 4)
    [0, 15]
    """
    if group_size not in VALID_GROUP_SIZES:
        raise ValueError(f"group_size must be one of {VALID_GROUP_SIZES}")
    mask = (1 << group_size) - 1
    return [(byte >> shift) & mask
            for shift in range(0, 8, group_size)]


@dataclass(frozen=True)
class GroupedEncoding:
    """Result of grouped-DBI encoding one burst.

    ``invert_flags[i][k]`` is the invert decision of group *k* of byte *i*.
    """

    burst: Burst
    group_size: int
    invert_flags: Tuple[Tuple[bool, ...], ...]
    zeros: int
    transitions: int

    @property
    def groups_per_byte(self) -> int:
        return 8 // self.group_size

    @property
    def extra_lines(self) -> int:
        """DBI lines added per byte lane (the pin cost of the granularity)."""
        return self.groups_per_byte

    def cost(self, model: CostModel) -> float:
        """Total activity cost under *model*."""
        return model.activity_cost(self.transitions, self.zeros)


class GroupedDbiOptimal:
    """Optimal DBI with one invert flag per *group_size* data lanes.

    >>> scheme = GroupedDbiOptimal(CostModel.fixed(), group_size=4)
    >>> encoding = scheme.encode(Burst([0x0F, 0x0F]))
    >>> encoding.groups_per_byte
    2
    """

    def __init__(self, model: CostModel, group_size: int = 8):
        if group_size not in VALID_GROUP_SIZES:
            raise ValueError(f"group_size must be one of {VALID_GROUP_SIZES}")
        if not isinstance(model, CostModel):
            raise TypeError(f"model must be a CostModel, got {type(model).__name__}")
        self.model = model
        self.group_size = group_size

    def fingerprint(self) -> str:
        """Stable content key (cf. :meth:`repro.core.schemes.DbiScheme.fingerprint`).

        Ratio-keyed like :meth:`repro.core.encoder.DbiOptimal.fingerprint`:
        two instances with the same group size and the same
        transition/zero cost ratio make identical invert decisions, so
        the experiment engine may share their cached activity totals.
        """
        return (f"dbi-grouped[g={self.group_size},"
                f"r={self.model.ac_fraction.hex()}]")

    def encode(self, burst: Burst) -> GroupedEncoding:
        """Encode *burst*; each group lane starts from idle-high."""
        g = self.group_size
        groups_per_byte = 8 // g
        per_group_flags: List[List[bool]] = []
        total_zeros = 0
        total_transitions = 0
        for lane in range(groups_per_byte):
            stream = [split_groups(byte, g)[lane] for byte in burst]
            flags, zeros, transitions = self._solve_group(stream)
            per_group_flags.append(flags)
            total_zeros += zeros
            total_transitions += transitions
        invert_flags = tuple(
            tuple(per_group_flags[lane][index]
                  for lane in range(groups_per_byte))
            for index in range(len(burst)))
        return GroupedEncoding(burst=burst, group_size=g,
                               invert_flags=invert_flags,
                               zeros=total_zeros,
                               transitions=total_transitions)

    # -- batch API -------------------------------------------------------
    def encode_batch(self, bursts: Iterable[Burst],
                     backend: Optional[str] = None) -> List[GroupedEncoding]:
        """Encode a whole burst population (idle-high boundaries).

        With the ``vector`` backend (the default whenever NumPy is
        available) equal-length populations are solved array-at-a-time:
        the ``8 // g`` group lanes of every burst are striped along the
        batch axis and run through one group-width batch Viterbi call.
        Ragged populations and the ``reference`` backend fall back to
        per-burst :meth:`encode`.  Results are bit-identical either way.
        """
        burst_list = [burst if isinstance(burst, Burst) else Burst(burst)
                      for burst in bursts]
        if burst_list and resolve_backend(backend) == "vector":
            packed = try_pack_bursts(burst_list)
            if packed is not None:
                flags, zeros, transitions = self._batch_solve(packed)
                k = self.groups_per_byte
                return [
                    GroupedEncoding(
                        burst=burst, group_size=self.group_size,
                        invert_flags=tuple(
                            tuple(bool(flags[lane, row, beat])
                                  for lane in range(k))
                            for beat in range(packed.shape[1])),
                        zeros=int(zeros[row]),
                        transitions=int(transitions[row]))
                    for row, burst in enumerate(burst_list)
                ]
        return [self.encode(burst) for burst in burst_list]

    def activity_totals(self, bursts: Iterable[Burst],
                        backend: Optional[str] = None) -> Tuple[int, int]:
        """Population ``(total_zeros, total_transitions)`` totals.

        The aggregate fast path behind :func:`granularity_table` and the
        granularity experiment axis: the vector backend tallies the
        striped edge planes without materialising per-burst
        :class:`GroupedEncoding` objects, and a
        :class:`~repro.workloads.population.BurstPopulation` packs
        straight from its ``iter_packed`` chunks.  *bursts* may also be a
        packed ``(batch, n)`` array.  Totals are exact integers and
        identical across backends.
        """
        if iter(bursts) is bursts:
            bursts = list(bursts)
        if resolve_backend(backend) == "vector":
            packed = try_pack_bursts(bursts)
            if packed is not None:
                _flags, zeros, transitions = self._batch_solve(packed)
                return int(zeros.sum()), int(transitions.sum())
        total_zeros = 0
        total_transitions = 0
        for burst in as_bursts(bursts):
            encoding = self.encode(burst)
            total_zeros += encoding.zeros
            total_transitions += encoding.transitions
        return total_zeros, total_transitions

    @property
    def groups_per_byte(self) -> int:
        return 8 // self.group_size

    def _batch_solve(self, packed):
        """Group-striped batch Viterbi over a packed ``(batch, n)`` array.

        Returns ``(flags, zeros, transitions)`` where ``flags`` is a
        ``(groups_per_byte, batch, n)`` bool array (lane *k* of burst
        *b*, beat *i*) and ``zeros``/``transitions`` are per-burst
        ``(batch,)`` int64 tallies summed over the burst's group lanes.
        """
        import numpy as np

        from ..core.vectorized import (_edge_planes, _sent_activity,
                                       _viterbi_planes)

        g = self.group_size
        k = self.groups_per_byte
        batch, n = packed.shape
        mask = (1 << g) - 1
        idle = (1 << (g + 1)) - 1
        # Stripe group lanes along the batch axis: row ``lane * batch + b``
        # carries group lane ``lane`` of burst ``b`` — every row is an
        # independent (g+1)-lane trellis with an idle-high boundary.
        values = np.concatenate(
            [(packed >> (lane * g)) & mask for lane in range(k)], axis=0)
        prev = np.full(k * batch, idle, dtype=np.int64)
        planes = _edge_planes(values, prev, width=g + 1)
        flags = _viterbi_planes(planes, self.model.alpha, self.model.beta,
                                n, width=g + 1)[0]
        flags = np.ascontiguousarray(flags[:, 0, :, 0].T)
        transitions, zeros = _sent_activity(planes, flags, width=g + 1)
        return (flags.reshape(k, batch, n),
                zeros.reshape(k, batch).sum(axis=0),
                transitions.reshape(k, batch).sum(axis=0))

    # -- internals -------------------------------------------------------
    def _group_word(self, value: int, inverted: bool) -> int:
        """Wire word of one group: data lanes plus its DBI lane on top."""
        g = self.group_size
        mask = (1 << g) - 1
        if inverted:
            return value ^ mask  # DBI bit 0
        return value | (1 << g)  # DBI bit 1

    def _word_cost(self, prev_word: int, word: int) -> float:
        lanes = self.group_size + 1
        zeros = lanes - popcount(word)
        transitions = popcount(prev_word ^ word)
        return (self.model.alpha * transitions + self.model.beta * zeros)

    def _solve_group(self, stream: Sequence[int]) -> Tuple[List[bool], int, int]:
        """Two-state Viterbi over one group lane (idle-high boundary)."""
        idle = (1 << (self.group_size + 1)) - 1
        words_raw = [self._group_word(value, False) for value in stream]
        words_inv = [self._group_word(value, True) for value in stream]

        cost_raw = self._word_cost(idle, words_raw[0])
        cost_inv = self._word_cost(idle, words_inv[0])
        choices_raw: List[bool] = [False]
        choices_inv: List[bool] = [False]
        for i in range(1, len(stream)):
            rr = cost_raw + self._word_cost(words_raw[i - 1], words_raw[i])
            ir = cost_inv + self._word_cost(words_inv[i - 1], words_raw[i])
            ri = cost_raw + self._word_cost(words_raw[i - 1], words_inv[i])
            ii = cost_inv + self._word_cost(words_inv[i - 1], words_inv[i])
            cost_raw, from_inv_raw = (ir, True) if ir < rr else (rr, False)
            cost_inv, from_inv_inv = (ii, True) if ii < ri else (ri, False)
            choices_raw.append(from_inv_raw)
            choices_inv.append(from_inv_inv)

        flags = [False] * len(stream)
        inverted = cost_inv < cost_raw
        for i in range(len(stream) - 1, -1, -1):
            flags[i] = inverted
            inverted = choices_inv[i] if inverted else choices_raw[i]

        zeros = 0
        transitions = 0
        last = idle
        for value, flag in zip(stream, flags):
            word = self._group_word(value, flag)
            zeros += (self.group_size + 1) - popcount(word)
            transitions += popcount(last ^ word)
            last = word
        return flags, zeros, transitions


def granularity_table(bursts: Sequence[Burst], model: CostModel,
                      group_sizes: Sequence[int] = VALID_GROUP_SIZES,
                      backend: Optional[str] = None,
                      ) -> List[Tuple[int, float, float, float, int]]:
    """Rows ``(group_size, mean zeros, mean transitions, mean cost,
    total lines per byte lane)`` for the granularity ablation.

    ``backend`` follows the library vocabulary; totals (and therefore
    rows) are identical between the reference and vector paths.
    """
    rows: List[Tuple[int, float, float, float, int]] = []
    n = len(bursts)
    if n == 0:
        raise ValueError("burst population is empty")
    for g in group_sizes:
        scheme = GroupedDbiOptimal(model, group_size=g)
        zeros, transitions = scheme.activity_totals(bursts, backend=backend)
        mean_cost = model.activity_cost(transitions, zeros) / n
        rows.append((g, zeros / n, transitions / n, mean_cost, 8 + 8 // g))
    return rows
