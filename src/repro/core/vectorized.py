"""Vectorized (NumPy) batch backend for DBI encoding.

The reference implementation (:mod:`repro.core.trellis` and the scheme
classes) solves one burst at a time in pure Python — ideal as an
executable specification, but every figure sweep pays per-burst Python
overhead.  This module provides the batched hot path: bursts are packed
into a ``(batch, n)`` ``uint8`` array, edges are priced from per-byte
popcounts (``np.bitwise_count``, :func:`_edge_planes`), and the two-state
Viterbi recursion of the paper's Fig. 5 runs across the whole batch at
once — the only Python loop is over the ``n`` positions of a burst.
A caller solving batch after batch passes one reused :class:`_Workspace`.

Bit-identity with the reference is a hard guarantee, not an
approximation: invert flags *and* path costs match
:func:`repro.core.trellis.solve` exactly (the differential suite in
``tests/core/test_vectorized_parity.py`` enforces this).  The recursion
prices its edges from their integer transition and zero counts, once
per tile of windows, and a step then adds and compares whole planes.
For most models a weight is the reference's own double, ``alpha *
transitions + beta * zeros`` with each product formed on its own, and
the recursion adds and compares them in the reference's order.  When
``alpha = a / 2**k`` and ``beta = b / 2**k`` for small integers *a* and
*b* (the paper's fixed ``alpha = beta = 1`` and its 3-bit coefficients
among them), every double the reference forms is an exact multiple of
``2**-k``.  The recursion then runs on those multiples, in uint8 when no
path sum of a window can pass 255 (the fixed model's 16-byte windows
among them) and in int16 otherwise: integer sums compare as the doubles
do, and the costs come back exactly through ``ldexp``.

Backend selection
-----------------
The one encoder, :meth:`repro.core.schemes.DbiScheme.wire_words` (a
vector kernel where :func:`try_vector_pack` admits it, else the per-burst
reference loop), and everything built on it, such as
:func:`repro.sim.experiments.population_activity`, accept
``backend="reference" | "vector" | "auto"``.  The kernel runs in both
transmission modes: bursts sent back to back (:func:`chained_flags`) are
solved from both words their boundary byte can be sent as, and the
pointer-doubling scan :func:`_chain_scan`, which the windowed streaming
encoder shares, follows the words actually sent.  ``auto`` (the
default) picks ``vector`` whenever NumPy is importable and falls back to
the pure-Python reference otherwise.  The process-wide default can be
overridden with :func:`set_default_backend` or the ``REPRO_BACKEND``
environment variable.  NumPy is an optional dependency: importing this
module never fails, only *using* a vector kernel without NumPy raises.
The backend needs NumPy 2.0 or later (the first with
``np.bitwise_count``); with an older NumPy only the packing helpers
run.
"""

from __future__ import annotations

import math
import os
from typing import List, Optional, Sequence, Tuple, Union

from .bitops import (
    ALL_ONES_WORD,
    BYTE_MASK,
    DBI_BIT,
    WORD_MASK,
    WORD_WIDTH,
    hamming_weight_table,
    total_transitions,
    total_zeros,
)

try:  # pragma: no cover - trivially true/false per environment
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def _vector_numpy():
    """NumPy when the vector backend can run on it, else ``None``: the
    backend counts bits with ``np.bitwise_count``, new in NumPy 2.0."""
    return _np if hasattr(_np, "bitwise_count") else None


#: True when NumPy (2.0 or later) is importable and the vector backend
#: is usable.
HAVE_NUMPY = _vector_numpy() is not None

#: Recognised backend names.
BACKENDS = ("auto", "reference", "vector")

def _backend_from_env() -> str:
    """Initial process default, validated at import so a typo'd
    ``REPRO_BACKEND`` fails fast instead of erroring deep inside the
    first batch call."""
    value = os.environ.get("REPRO_BACKEND", "auto")
    if value not in BACKENDS:
        import warnings

        warnings.warn(
            f"ignoring invalid REPRO_BACKEND={value!r}; choose from "
            f"{BACKENDS} (falling back to 'auto')",
            RuntimeWarning, stacklevel=2)
        return "auto"
    if value == "vector" and not HAVE_NUMPY:
        import warnings

        warnings.warn(
            "REPRO_BACKEND=vector requires NumPy >= 2.0, which is not "
            "installed; falling back to 'auto' (reference path)",
            RuntimeWarning, stacklevel=2)
        return "auto"
    return value


_default_backend = _backend_from_env()


def _require_numpy():
    """NumPy for packing and tallying arrays, which any release does."""
    if _np is None:
        raise RuntimeError(
            "the 'vector' backend requires NumPy; install it or select "
            "backend='reference'"
        )
    return _np


def _require_vector():
    """NumPy for the vector backend and its popcount: 2.0 or later."""
    np = _vector_numpy()
    if np is None:
        raise RuntimeError(
            "the 'vector' backend requires NumPy >= 2.0; install it or "
            "select backend='reference'"
        )
    return np


# -- backend selection -------------------------------------------------------

def available_backends() -> List[str]:
    """Concrete backends usable in this environment."""
    return ["reference"] if _vector_numpy() is None else ["reference", "vector"]


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``auto``/``reference``/``vector``)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    if name == "vector":
        _require_vector()
    global _default_backend
    _default_backend = name


def get_default_backend() -> str:
    """The current process-wide default backend name (may be ``auto``)."""
    return _default_backend


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend spec to a concrete ``reference`` or ``vector``.

    ``None`` defers to the process default (set via
    :func:`set_default_backend` or ``REPRO_BACKEND``); ``auto`` resolves to
    ``vector`` when NumPy 2.0 or later is present, else ``reference``.

    >>> resolve_backend("reference")
    'reference'
    """
    if backend is None:
        backend = _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "auto":
        return "reference" if _vector_numpy() is None else "vector"
    if backend == "vector":
        _require_vector()
    return backend


# -- packing ----------------------------------------------------------------

#: 9-bit popcount table, built lazily (index by any value in [0, 511]).
_POPCOUNT9 = None


def popcount_table():
    """The shared ``(512,)`` int64 popcount table for 9-bit words."""
    global _POPCOUNT9
    np = _require_numpy()
    if _POPCOUNT9 is None:
        _POPCOUNT9 = np.asarray(hamming_weight_table(WORD_WIDTH), dtype=np.int64)
    return _POPCOUNT9


def pack_bursts(bursts: Sequence):
    """Pack equal-length bursts into a ``(batch, n)`` ``uint8`` array.

    Accepts :class:`~repro.core.burst.Burst` objects, byte sequences, an
    already-packed 2-D array or a population (from its ``iter_packed``
    chunks, so no ``Burst`` is built).  Raises ``ValueError`` when the
    batch is empty, the bursts hold no byte (as a
    :class:`~repro.core.burst.Burst` does) or the lengths are ragged
    (callers that can encounter ragged batches should use
    :func:`try_pack_bursts`).
    """
    np = _require_numpy()
    if hasattr(bursts, "iter_packed"):
        return pack_bursts(np.concatenate(list(bursts.iter_packed())))
    if isinstance(bursts, np.ndarray):
        if bursts.ndim != 2:
            raise ValueError(f"packed bursts must be 2-D, got shape {bursts.shape}")
        if bursts.shape[1] == 0:
            raise ValueError("a burst must contain at least one byte")
        if bursts.dtype != np.uint8:
            if not np.issubdtype(bursts.dtype, np.integer):
                raise TypeError(
                    f"packed bursts must have an integer dtype, got {bursts.dtype}")
            if bursts.size and (bursts.min() < 0 or bursts.max() > BYTE_MASK):
                raise ValueError(f"byte values out of range [0, {BYTE_MASK}]")
        return np.ascontiguousarray(bursts, dtype=np.uint8)
    rows = [getattr(burst, "data", burst) for burst in bursts]
    if not rows:
        raise ValueError("burst population is empty")
    length = len(rows[0])
    if any(len(row) != length for row in rows):
        raise ValueError("bursts have ragged lengths; pack per length group")
    # Re-enter through the ndarray branch so dtype/range validation is
    # applied uniformly regardless of the input form.  Byte strings are
    # joined, not handed to np.asarray, which would make a 1-D array of
    # them.
    if all(isinstance(row, (bytes, bytearray)) for row in rows):
        return pack_bursts(np.frombuffer(b"".join(rows), dtype=np.uint8)
                           .reshape(len(rows), length))
    return pack_bursts(np.asarray(rows))


def try_pack_bursts(bursts: Sequence):
    """Like :func:`pack_bursts` but returns ``None`` on empty, zero-width
    or ragged batches."""
    try:
        return pack_bursts(bursts)
    except ValueError:
        return None


def try_vector_pack(scheme, bursts, backend: Optional[str] = None):
    """The single gate for every vector fast path in the library.

    Returns the packed ``(batch, n)`` array when *scheme* can be run
    vectorized over *bursts* under the resolved *backend* — i.e. the
    backend is ``vector``, the scheme has a batch kernel and the
    population packs rectangularly.  Returns ``None`` otherwise,
    meaning: use the reference per-burst path.
    """
    if resolve_backend(backend) != "vector" or not scheme.supports_batch():
        return None
    return try_pack_bursts(bursts)


def _as_prev_words(prev_words: Union[int, Sequence[int]], batch: int):
    """Broadcast/validate boundary words to an ``(batch,)`` int64 array."""
    np = _require_numpy()
    arr = np.asarray(prev_words, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(batch, int(arr), dtype=np.int64)
    if arr.shape != (batch,):
        raise ValueError(f"prev_words shape {arr.shape} does not match batch {batch}")
    if arr.size and (arr.min() < 0 or arr.max() > WORD_MASK):
        raise ValueError(f"prev_words out of range [0, {WORD_MASK}]")
    return arr


def _word_planes(data) -> Tuple:
    """Per-polarity wire words for a packed batch: ``(raw, inv)`` uint16."""
    np = _require_numpy()
    wide = data.astype(np.uint16)
    return wide | DBI_BIT, wide ^ BYTE_MASK


# -- the batched two-state Viterbi recursion ---------------------------------

#: Row × window × state cells one :func:`_viterbi_planes` tile solves at
#: once.  It bounds the recursion's memory whatever the batch or push
#: size, all of it in the workspace.  At a 16-byte window (commit 8) a
#: tile prices ``4 * commit * cells / states`` edge weights (512 KiB in
#: uint8, 1 MiB in int16, 4 MiB in float64) from 512 KiB of uint8
#: counts, and keeps 192 KiB of path costs in uint8 (384 KiB in int16,
#: 1.5 MiB in float64) and 1 MiB of choice planes.  Steps allocate
#: nothing.
TILE_CELLS = 1 << 15


class _Workspace:
    """Grow-only buffers, one per name: ``work(name, shape, dtype)`` views
    the buffer kept under *name*, regrown only when too small, until the
    next request under that name.  A regrown buffer gets an eighth more
    room than asked for, so a stream of slightly growing requests (a
    push that carries the last one's leftover bytes) reuses it.  Steps
    that never hold each other's views share the ``scratch`` buffer."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name, shape, dtype):
        np = _require_numpy()
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size + size // 8,
                                                    dtype=np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


def _popcount_uint8(bits):
    """Popcount of each element of a uint8 array, in place."""
    return _require_vector().bitwise_count(bits, out=bits)


def _edge_planes(values, prev, width: int = WORD_WIDTH, work=None):
    """Integer edge counts of a ``(rows, n)`` batch of data lanes.

    *values* holds each word's ``width - 1`` data lanes as ``uint8``
    (bytes, or grouped DBI's group values); the raw word adds the DBI
    lane high, the inverted word flips every lane.  Column *j* prices the
    edges into word *j* from word *j-1*, column 0 from the row's int64
    boundary word *prev* as if it were raw.  Returns two uint8 planes:
    ``same``, the transitions between words of equal polarity (for ``j
    >= 1`` the popcount of ``values[:, j-1] ^ values[:, j]``: raw words
    share their DBI lane), and ``zeros_raw = width - 1 - popcount(values)``.
    Across polarities an edge takes ``width - same`` transitions, and an
    inverted word has ``width - zeros_raw`` zeros."""
    np = _require_numpy()
    if not 0 < width <= WORD_WIDTH:
        raise ValueError(f"width must be in [1, {WORD_WIDTH}], got {width}")
    work = work or _Workspace()
    planes = work("planes", (2,) + values.shape, np.uint8)
    same, zeros_raw = planes
    np.bitwise_xor(values[:, :-1], values[:, 1:], out=same[:, 1:])
    first = prev ^ (values[:, 0].astype(np.int64) | 1 << (width - 1))
    same[:, 0] = first & BYTE_MASK
    zeros_raw[...] = values
    _popcount_uint8(planes)
    same[:, 0] += (first >> 8).astype(np.uint8)  # lane 8 of a 9-lane word
    np.subtract(width - 1, zeros_raw, out=zeros_raw)
    return same, zeros_raw


def _sent_activity(planes, flags, width: int = WORD_WIDTH, counts=None,
                   work=None):
    """Per-row ``(transitions, zeros)`` int64 of the first ``counts[r]``
    (default: all) words of row *r* sent with invert *flags*, from their
    :func:`_edge_planes` *planes*.  Each adds ``count + flip * (width - 2
    * count)``: a polarity flip (in column 0 a True flag) complements
    ``same``, a True flag ``zeros_raw``.  A row sums at most ``n *
    width``, in int32 while that fits."""
    np = _require_numpy()
    n = flags.shape[1]
    scratch = (work or _Workspace())("scratch", (2,) + flags.shape, np.int8)
    flips, sent = scratch[0].view(bool), scratch[1]
    np.copyto(flips, flags)
    flips[:, 1:] ^= flags[:, :-1]
    total = np.int32 if n * width < 2 ** 31 else np.int64
    tallies = []
    for plane, flipped in zip(planes, (flips, flags)):
        plane = plane[:, :n]
        np.multiply(plane, -2, out=sent, dtype=np.int8)
        sent += width
        sent *= flipped
        sent += plane.view(np.int8)
        if counts is not None and (counts != n).any():
            sent *= np.arange(n) < counts[:, None]
        tallies.append(sent.sum(axis=1, dtype=total).astype(np.int64))
    return tuple(tallies)


def solve_batch(data, model, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Batched optimal DBI encoding (the paper's trellis, array-at-a-time).

    Parameters
    ----------
    data:
        ``(batch, n)`` ``uint8`` array (or anything :func:`pack_bursts`
        accepts) — one burst per row.
    model:
        A :class:`~repro.core.costs.CostModel`; only ``alpha``/``beta``
        are read.
    prev_words:
        Boundary bus word, either a scalar shared by every row or one
        word per row (``(batch,)``) — this is what makes the function
        usable for chained/streaming boundaries.

    Returns
    -------
    ``(flags, costs)`` where ``flags`` is ``(batch, n)`` bool (True =
    transmit inverted) and ``costs`` is ``(batch,)`` float64, both
    bit-identical to running :func:`repro.core.trellis.solve` row by row.
    """
    np = _require_numpy()
    data = pack_bursts(data)
    prev = _as_prev_words(prev_words, data.shape[0])
    planes = _edge_planes(data, prev)
    flags, costs, shift = _viterbi_planes(planes, model.alpha, model.beta,
                                          data.shape[1])
    if shift is not None:
        costs = np.ldexp(costs, -shift, dtype=np.float64)
    return np.ascontiguousarray(flags[:, 0, :, 0].T), costs[0, :, 0]


def _coefficients(alpha: float, beta: float, span: int, width: int):
    """``(a, b, shift, dtype)``: an edge weighs ``a * transitions + b *
    zeros`` in *dtype*.

    Every float is an integer over a power of two (its
    ``as_integer_ratio``), so ``alpha = a / 2**shift`` and ``beta = b /
    2**shift`` for integers *a*, *b* over the larger denominator, and a
    weight is ``ldexp(w, -shift)`` of the integer sum *w*.  With ``K =
    width * (a + b)``, those weights run in uint8 when
    ``(max(span, 2) - 2) * (K // 2) + 2 * K <= 255``, else in int16
    when ``span * K <= 32767``.  Otherwise *a* and *b* are *alpha* and
    *beta*, the weights are float64, the operations of
    :meth:`repro.core.costs.CostModel.word_cost`, and ``shift`` is
    ``None``.

    The uint8 bound holds every sum :func:`_viterbi_tile` forms.  The
    two edges out of a word, into its raw and its inverted successor,
    take ``width`` transitions and ``width`` zeros between them, so each
    row ``weights[f]`` of a column's 2×2 weights sums to ``K``; so does
    a column priced from zero counts (padding, or a read past a row's
    windows).  Both are non-negative, so the cheaper weighs at most ``K
    // 2``.  Let ``m_i`` and ``M_i`` be the smaller and the larger path
    cost after step *i*.  Following the cheaper edge out of the cheaper
    path gives ``m_i <= m_(i-1) + K // 2``, and either edge out of it
    gives ``M_i <= m_(i-1) + K``; step 0 starts from ``m_0 <= K // 2``
    and ``M_0 <= K``.  So ``m_i <= (i + 1) * (K // 2)``, and the largest
    ``via`` sum of step *i*, at most ``M_(i-1) + K``, is at most ``(i -
    1) * (K // 2) + 2 * K``.  Steps run to ``span - 1``, and a one-step
    window forms no sum above ``K``.
    """
    np = _require_numpy()
    (a, den_a), (b, den_b) = alpha.as_integer_ratio(), beta.as_integer_ratio()
    den = max(den_a, den_b)
    a, b = a * (den // den_a), b * (den // den_b)
    shift = den.bit_length() - 1
    k = width * (a + b)
    if (max(span, 2) - 2) * (k // 2) + 2 * k <= np.iinfo(np.uint8).max:
        return a, b, shift, np.uint8
    if span * k <= np.iinfo(np.int16).max:
        return a, b, shift, np.int16
    return alpha, beta, None, np.float64


def _viterbi_planes(planes, alpha: float, beta: float, span: int,
                    commit: Optional[int] = None, windows: int = 1,
                    states: int = 1, width: int = WORD_WIDTH, work=None):
    """The two-state Viterbi recursion, over every window of a row at once.

    The compute core of :func:`solve_batch`, of the windowed
    :class:`repro.core.streaming.BatchStreamingEncoder` and of the
    grouped-DBI trellises.  *planes* are the ``(same, zeros_raw)`` of
    :func:`_edge_planes` for words of *width* lanes.  Window *k* of a row
    covers columns ``[k*commit, k*commit + span)``; ``commit`` defaults
    to ``span`` (one window per row for ``windows=1``).  Windows are
    solved in tiles of at most :data:`TILE_CELLS` row × window × state
    cells, and each tile prices its edges once (:func:`_tile_weights`),
    window-major, so that step *i* of every window of the tile reads one
    slice of the weights, and overlapping windows share them.

    With ``states=2`` every window ``k >= 1`` is solved twice: from the
    raw (state 0) and from the inverted (state 1) word of byte
    ``k*commit - 1``, the two words that byte can be sent as.  Window 0
    has one boundary, the word column 0 counts from, so only its state 0
    is meaningful.

    Flags and costs equal :func:`repro.core.trellis.solve`'s bit for bit;
    all guarantees of :func:`solve_batch` flow from this function.
    Float64 weights are the reference's edge weights, and the recursion
    adds and compares them as the reference does.  Integer weights
    (uint8 or int16) are those weights scaled by ``2**shift`` to exact
    integers (:func:`_coefficients`, which bounds every sum within its
    dtype); every float the reference forms is then an exact multiple of
    ``2**-shift``, so integer sums compare as the reference's doubles do
    and the costs return exactly through ``ldexp``.

    Returns ``(flags, costs, shift)``, views of *work*'s buffers.
    ``flags`` is ``(commit, states, rows, windows)`` bool, the first
    ``commit`` decisions of each window (True = transmit inverted), and
    ``costs`` is ``(states, rows, windows)``, each window's optimal path
    cost in the weights' units: the cost itself when ``shift`` is
    ``None``, else ``ldexp(costs, -shift)``.
    """
    work = work or _Workspace()
    a, b, shift, dtype = _coefficients(float(alpha), float(beta), span,
                                       width)
    commit = span if commit is None else commit
    rows = planes[0].shape[0]
    flags = work("flags", (commit, states, rows, windows), bool)
    costs = work("costs", (states, rows, windows), dtype)
    tile_rows = max(1, min(rows, TILE_CELLS // states))
    tile_windows = max(1, TILE_CELLS // (tile_rows * states))
    for first_row in range(0, rows, tile_rows):
        row_slice = slice(first_row, first_row + tile_rows)
        for first in range(0, windows, tile_windows):
            tile = (row_slice, slice(first, first + tile_windows))
            tile_costs = costs[(...,) + tile]
            weights = _tile_weights(planes, a, b, dtype, span, commit,
                                    row_slice, first, tile_costs.shape[2],
                                    width, work)
            _viterbi_tile(weights, span, commit, flags[(...,) + tile],
                          tile_costs, work)
    return flags, costs, shift


def _tile_weights(planes, a, b, dtype, span: int, commit: int, rows: slice,
                  first: int, count: int, width: int, work):
    """Edge weights of rows *rows* in the *count* windows from *first* on.

    Returns ``weights[f, t, c]``, ``(2, 2, commit, size + extra)``, with
    ``extra = ceil((span - commit) / commit)``, ``blocks = count +
    extra`` and ``size = len(rows) * blocks``: ``weights[f, t, c, :size]``
    is the ``(rows, blocks)`` plane whose entry ``(r, j)`` weighs the
    edge from polarity *f* into polarity *t* (0 raw, 1 inverted) of
    column ``(first + j) * commit + c`` of row *r*.  So step *i* of every
    window reads the one contiguous slice ``weights[:, :, i % commit, i
    // commit:][..., :size]`` as ``(rows, blocks)``: its first *count*
    columns are the tile's windows, and the rest, read across the end of
    a row, belong to no window.  Columns past the planes and entries
    past ``size`` are priced from zero counts.

    The tile's columns of *planes* are copied to this window-major
    layout in uint8 first.  A weight is ``a * transitions + b * zeros``
    in *dtype*, each product formed on its own from the integer counts
    and the two added once.  The weights live in *work*, their one
    temporary in its ``scratch``.
    """
    np = _require_numpy()
    extra = (span - 1) // commit
    blocks = count + extra
    start = first * commit
    tile = [plane[rows, start:start + blocks * commit] for plane in planes]
    tile_rows = tile[0].shape[0]
    size = tile_rows * blocks
    full, tail = divmod(tile[0].shape[1], commit)
    # counts[k] = (plane k, width - plane k): transitions between equal
    # polarities and across them, zeros of the raw and of the inverted word.
    counts = work("counts", (2, 2, commit, size + extra), np.uint8)
    counts[:, 0, :, size:] = 0
    for columns, out in zip(tile, counts[:, 0]):
        # (rows, blocks, commit), the shape of the columns in blocks
        window_major = out[:, :size].reshape(
            commit, tile_rows, blocks).transpose(1, 2, 0)
        window_major[:, :full] = columns[:, :full * commit].reshape(
            tile_rows, full, commit)
        window_major[:, full:] = 0
        if tail:
            window_major[:, full, :tail] = columns[:, full * commit:]
    np.subtract(width, counts[:, 0], out=counts[:, 1])
    transitions, zeros = counts
    # The four products, each used by two edges: weights[0] holds a *
    # (same, cross) and weights[1] b * (zeros_raw, zeros_inv).  Summing
    # them in place into weights[from, to] takes one spare a * same.
    weights = work("weights", (2,) + transitions.shape, dtype)
    np.copyto(weights[0], transitions)
    weights[0] *= a
    np.copyto(weights[1], zeros)
    weights[1] *= b
    stay = work("scratch", weights.shape[2:], dtype)
    np.copyto(stay, weights[0, 0])
    weights[0, 0] += weights[1, 0]
    weights[1, 0] += weights[0, 1]
    weights[0, 1] += weights[1, 1]
    weights[1, 1] += stay
    return weights


def _pick(cond, if_true, if_false):
    """``np.where(cond, if_true, if_false)`` for bool arrays, as bitwise
    operations in place (several times faster than ``where`` on bools):
    both operands are spent, the result is written over *if_false*."""
    if_true ^= if_false
    if_true &= cond
    if_false ^= if_true
    return if_false


def _viterbi_tile(weights, span: int, commit: int, flags, costs,
                  work) -> None:
    """Solve one tile of :func:`_viterbi_planes` into *flags*/*costs*.

    *weights* are the tile's :func:`_tile_weights`.  ``paths[p, s, r,
    k]`` is the cost of the best path of window *k* of row *r*, started
    in state *s*, that sends the current word with polarity *p*.  A step
    prices every edge at once, ``via[f, t] = paths[f] + weights[f, t]``,
    and keeps the cheaper way into each polarity, a raw predecessor
    winning a tie.  The arrays hold every column of the weights' planes;
    only the first of each row, as many as *costs* holds, are windows.
    Unused choice plane 0 seeds the backtrack.
    """
    np = _require_numpy()
    states, rows, count = costs.shape
    blocks = count + (span - 1) // commit
    size = rows * blocks

    def step(i):
        """The ``(2, 2, rows, blocks)`` weights of step *i*."""
        start = i // commit
        return weights[:, :, i % commit, start:start + size].reshape(
            2, 2, rows, blocks)

    buffer = work("paths", (3, 2, states, rows, blocks), weights.dtype)
    paths, via = buffer[0], buffer[1:]
    np.copyto(paths, step(0)[:states].swapaxes(0, 1))
    choices = work("scratch", (span, 2, states, rows, blocks), bool)

    # Costs are finite and non-negative, so np.minimum picks what
    # np.where(via[1] < via[0], via[1], via[0]) would.
    for i in range(1, span):
        np.add(paths[:, None], step(i)[:, :, None], out=via)
        np.less(via[1], via[0], out=choices[i])
        np.minimum(via[0], via[1], out=paths)

    current = np.less(paths[1], paths[0], out=choices[0, 0])
    np.minimum(paths[1, ..., :count], paths[0, ..., :count], out=costs)
    for i in range(span - 1, -1, -1):
        if i < commit:
            flags[i] = current[..., :count]
        if i:
            current = _pick(current, choices[i, 1], choices[i, 0])


# -- back-to-back bursts -----------------------------------------------------

def chain_boundaries(first: int, last_words):
    """Boundary words of rows sent back to back: row 0 starts from
    *first*, row *r* from ``last_words[r - 1]``, the last word of the row
    before it.  Returns a ``(len(last_words),)`` int64 array."""
    np = _require_numpy()
    boundaries = np.empty(len(last_words), dtype=np.int64)
    boundaries[0] = first
    boundaries[1:] = last_words[:-1]
    return boundaries


def _chain_scan(flags, work=None):
    """Committed flags ``(rows, windows * commit)`` of solved windows.

    ``flags[:, s, r, k]`` (the :func:`_viterbi_planes` layout) are the
    committed decisions of window *k* of row *r* when the byte before
    the window is sent in state *s* (0 raw, 1 inverted); the last one
    is the state window *k* hands to window *k+1*.  Those boundary
    maps, each kept as ``s -> state ^ (s & diff)``, are composed by
    pointer doubling (O(log windows) array operations) into the maps
    of windows ``0..k``, evaluated at state 0: window 0's state 0 is
    its solve from the row's bus word.  *flags* is spent.
    """
    np = _require_numpy()
    work = work or _Workspace()
    commit, _states, rows, windows = flags.shape
    state, diff = work("scratch", (2, rows, windows), bool)
    np.copyto(state, flags[-1, 0])
    np.bitwise_xor(flags[-1, 1], state, out=diff)
    step = 1
    while step < windows:  # compose map k after map k - step
        state[:, step:] ^= state[:, :-step] & diff[:, step:]
        diff[:, step:] &= diff[:, :-step]
        step *= 2
    state[:, 1:] = state[:, :-1]  # now the state entering each window
    state[:, 0] = False
    chosen = work("chosen", (rows, windows, commit), bool)
    np.copyto(chosen, _pick(state, flags[:, 1], flags[:, 0])
              .transpose(1, 2, 0))
    return chosen.reshape(rows, -1)


def chained_flags(batch_flags, data, prev_word: int):
    """Invert flags of the packed bursts *data* sent back to back from
    *prev_word*, by the kernel *batch_flags(data, prev_words)*.

    A scheme sees the burst before it only through that burst's last
    wire word: its last byte sent raw or inverted.  So every row is
    solved from both (row 0 twice from *prev_word*) and
    :func:`_chain_scan` follows the states actually sent.
    """
    np = _require_numpy()
    last = data[:, -1].astype(np.int64)
    flags = np.stack([batch_flags(data, chain_boundaries(prev_word, word)).T
                      for word in (last | DBI_BIT, last ^ BYTE_MASK)], axis=1)
    return _chain_scan(flags[:, :, None]).reshape(data.shape)


# -- baseline scheme kernels -------------------------------------------------

def raw_flags(data, prev_words=ALL_ONES_WORD):
    """RAW never inverts: an all-False ``(batch, n)`` flag array."""
    np = _require_numpy()
    data = pack_bursts(data)
    return np.zeros(data.shape, dtype=bool)


def dc_flags(data, prev_words=ALL_ONES_WORD):
    """DBI DC decisions for a batch: invert iff a byte has ≥ 5 zeros."""
    np = _require_numpy()
    data = pack_bursts(data)
    pop = popcount_table()
    # zeros_in_byte(b) > 4  <=>  popcount(b) < 4
    return pop[data.astype(np.int64)] < 4


def ac_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """DBI AC decisions: greedy toggle minimisation, batch-parallel.

    Sequential over the ≤ n byte positions (the decision feeds the next
    beat's boundary), vectorized over the batch axis.
    """
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        wr, wi = words_raw[:, i], words_inv[:, i]
        inverted = pop[last ^ wi] < pop[last ^ wr]
        flags[:, i] = inverted
        last = np.where(inverted, wi, wr)
    return flags


def acdc_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """DBI ACDC decisions: first byte by the DC rule, rest by the AC rule."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    first_inverted = pop[data[:, 0].astype(np.int64)] < 4
    flags[:, 0] = first_inverted
    if n > 1:
        last = np.where(first_inverted, words_inv[:, 0], words_raw[:, 0])
        flags[:, 1:] = ac_flags(data[:, 1:], last)
    return flags


def businvert_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Stan–Burleson bus-invert: invert iff > 4 data lanes would toggle."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        byte = data[:, i].astype(np.int64)
        inverted = pop[(last & BYTE_MASK) ^ byte] > 4
        flags[:, i] = inverted
        last = np.where(inverted, words_inv[:, i], words_raw[:, i])
    return flags


def greedy_flags(data, model,
                 prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Chang-style greedy weighted decisions (per-byte cheapest word)."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    alpha, beta = model.alpha, model.beta
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        wr, wi = words_raw[:, i], words_inv[:, i]
        raw_cost = alpha * pop[last ^ wr] + beta * (WORD_WIDTH - pop[wr])
        inv_cost = alpha * pop[last ^ wi] + beta * (WORD_WIDTH - pop[wi])
        inverted = inv_cost < raw_cost
        flags[:, i] = inverted
        last = np.where(inverted, wi, wr)
    return flags


# -- activity tallies --------------------------------------------------------

def flags_to_words(data, flags):
    """Wire words ``(batch, n)`` int64 for packed bytes and invert flags."""
    np = _require_numpy()
    data = pack_bursts(data)
    words_raw, words_inv = _word_planes(data)
    words = np.where(np.asarray(flags, dtype=bool), words_inv, words_raw)
    return words.astype(np.int64)


def batch_activity(words, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Per-burst ``(transitions, zeros)`` tallies for a batch of word rows.

    Each row is measured from its own boundary word (independent mode).
    Returns two ``(batch,)`` int64 arrays.
    """
    np = _require_numpy()
    words = np.asarray(words, dtype=np.int64)
    batch, n = words.shape
    pop = popcount_table()
    prev = _as_prev_words(prev_words, batch)
    zeros = (WORD_WIDTH - pop[words]).sum(axis=1)
    transitions = pop[prev ^ words[:, 0]]
    if n > 1:
        transitions = transitions + pop[words[:, :-1] ^ words[:, 1:]].sum(axis=1)
    return transitions, zeros


def scheme_batch_activity(scheme, bursts, prev_word: int = ALL_ONES_WORD,
                          chained: bool = False,
                          backend: Optional[str] = None):
    """The chunk step of :func:`repro.sim.experiments.population_metrics`:
    the batch's :meth:`~repro.core.schemes.DbiScheme.wire_words`, tallied
    per burst from *prev_word* or, ``chained``, as one stream from it.

    Returns ``(transitions, zeros, inverted, beats, last_word)`` as
    Python ints; ``inverted`` counts words with DBI bit 0 and
    ``last_word`` is the next chained batch's boundary.
    """
    words = scheme.wire_words(bursts, prev_word, chained, backend)
    if isinstance(words, list):  # the reference branch: word tuples
        flat = [word for row in words for word in row]
        transitions = sum(total_transitions(row, prev_word)
                          for row in ([flat] if chained else words))
        return (transitions, total_zeros(flat),
                sum(1 for word in flat if word < DBI_BIT), len(flat),
                flat[-1] if flat else prev_word)
    boundaries = (chain_boundaries(prev_word, words[:, -1]) if chained
                  else prev_word)
    transitions, zeros = batch_activity(words, boundaries)
    return (int(transitions.sum()), int(zeros.sum()),
            int((words < DBI_BIT).sum()), words.size, int(words[-1, -1]))
