"""Vectorized GF(2) coding kernel.

Every erasure code in the repo ultimately reduces to three primitives over
GF(2): XORing groups of equal-size blocks together (encode), solving a sparse
linear system by belief-propagation peeling (rateless decode), and exact
Gaussian elimination of the residual system when peeling stalls.  The seed
implementation ran all three with per-block Python loops; this module
provides them as batched NumPy operations so the coding layer
"runs as fast as the hardware allows":

* payloads are packed into rows of ``np.uint64`` words, so one XOR touches
  64 coefficients (or 8 payload bytes) at a time;
* equation systems are described in CSR form (``flat`` index array +
  ``offsets``), and whole stages — aux-block construction, check-block
  generation, peeling rounds, elimination steps — are single vectorized
  sweeps instead of per-equation passes;
* payload XORs (:func:`xor_reduce_segments`, :func:`xor_accumulate_segments`)
  run in one of two regimes picked from the row width: narrow rows are
  batched through a length-grouped gather, wide rows stream term by term
  into the row they belong to with no temporaries (``STREAM_MIN_WORDS``);
* graph randomness comes from a counter-based splitmix64 hash, so any check
  block of an unbounded rateless stream can be derived independently *and*
  whole index ranges can be derived in one vectorized call.

The kernel is deliberately free of code-specific policy: degree
distributions, auxiliary-block rules and metadata formats live in the code
classes (:mod:`repro.erasure.online_code` etc.), which call into these
primitives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

WORD_BITS = 64

if hasattr(np, "bitwise_count"):
    popcount = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    _POPCOUNT_BYTE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

    def popcount(array: np.ndarray) -> np.ndarray:
        """Per-element set-bit counts for a uint64 array (byte-table fallback)."""
        as_bytes = np.ascontiguousarray(array).view(np.uint8)
        counts = _POPCOUNT_BYTE[as_bytes].reshape(array.shape + (8,))
        return counts.sum(axis=-1, dtype=np.uint64)


# splitmix64 constants (Steele, Lea & Flood); the finalizer is a strong
# 64-bit mixer, and seeding counters with the golden-ratio increment gives
# independent streams per (seed, index, draw) triple.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_GAMMA2 = np.uint64(0xD1B54A32D192ED03)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


# -- counter-based hashing ------------------------------------------------------
def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a ``uint64`` array."""
    z = np.asarray(x, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX_M1
        z ^= z >> np.uint64(27)
        z *= _MIX_M2
        z ^= z >> np.uint64(31)
    return z


def hash_counters(seed: int, counters: np.ndarray) -> np.ndarray:
    """Independent 64-bit hashes for ``counters`` under ``seed``.

    Equivalent to evaluating splitmix64 streams at arbitrary counter values,
    which is what makes rateless streams both batched (derive a whole range
    at once) and random-access (derive any single index on its own).
    """
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + counters * _GAMMA
    return mix64(state)


def hash_subcounters(base_keys: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Second-level hashes: draw ``draws[i]`` from the stream keyed ``base_keys[i]``."""
    with np.errstate(over="ignore"):
        state = np.asarray(base_keys, dtype=np.uint64) + np.asarray(draws, dtype=np.uint64) * _GAMMA2
    return mix64(state)


def to_unit_interval(hashes: np.ndarray) -> np.ndarray:
    """Map 64-bit hashes to float64 uniforms in [0, 1)."""
    return (hashes >> np.uint64(11)).astype(np.float64) * (2.0**-53)


# -- payload packing ------------------------------------------------------------
def words_for_bytes(n_bytes: int) -> int:
    """Number of uint64 words needed to hold ``n_bytes`` payload bytes."""
    return (int(n_bytes) + 7) // 8


def pack_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, block_size)`` uint8 matrix into uint64 words (zero padded).

    A view of ``matrix`` (no copy) when ``block_size`` is a multiple of 8 and
    the matrix is C-contiguous; otherwise one zero-padded copy.
    """
    rows, n_bytes = matrix.shape
    words = words_for_bytes(n_bytes)
    if n_bytes == words * 8 and matrix.flags.c_contiguous:
        return matrix.view(np.uint64)
    packed = np.zeros((rows, words * 8), dtype=np.uint8)
    packed[:, :n_bytes] = matrix
    return packed.view(np.uint64)


# -- batched XOR-reduce ---------------------------------------------------------
#: Rows at least this many uint64 words (4 KiB) wide are XORed one source row
#: at a time straight into their output row; narrower rows go through the
#: length-grouped 3-D gather.  See :func:`xor_reduce_segments`.
#:
#: Measured with both kernels forced on the same chunk (online code, epsilon
#: 0.01, q 3; warm, best of 7; ms for one encode / one decode of all blocks):
#:
#: ========= ============== =============== ===============
#: row bytes chunk / blocks grouped enc/dec streaming enc/dec
#: ========= ============== =============== ===============
#:       128  64 KiB / 512    1.04 /  2.27    2.46 /  2.91
#:       256  64 KiB / 256    0.66 /  1.33    1.21 /  4.41
#:      1024 256 KiB / 256    0.99 /  2.06    1.61 /  5.06
#:      2048 512 KiB / 256    1.90 /  2.28    1.67 /  2.04
#:      2048   1 MiB / 512    2.00 /  8.70    2.45 / 14.26
#:      3072 768 KiB / 256    2.19 /  3.22    1.55 /  4.58
#:      4096   1 MiB / 256    3.34 /  3.01    2.20 /  2.37
#:      4096   2 MiB / 512    3.72 /  5.92    3.51 /  3.63
#:      6144 1.5 MiB / 256    3.03 /  6.53    2.31 /  5.17
#:      8192   2 MiB / 256    3.76 / 12.81    2.36 /  6.19
#:     16384   4 MiB / 256    9.50 / 32.98    4.91 / 13.04
#:     65536   4 MiB /  64    7.92 / 12.92    3.29 /  4.48
#:    131072   8 MiB /  64   14.15 / 22.77    5.98 /  9.10
#: ========= ============== =============== ===============
#:
#: Below 2 KiB the per-term ufunc dispatch of the streaming kernel dominates;
#: at 2-3 KiB the winner depends on the graph (many short peeling rounds
#: favour streaming, few long ones the gather); from 4 KiB up streaming wins
#: every cell, by 2-2.5x from 16 KiB up.
STREAM_MIN_WORDS = 512


def xor_reduce_segments(
    rows: Union[np.ndarray, Sequence[np.ndarray]],
    flat: np.ndarray,
    offsets: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Segmented XOR-reduce: ``out[s] = XOR(rows[i] for i in flat[offsets[s]:offsets[s+1]])``.

    This is the encode primitive: ``rows`` holds composite payloads packed as
    uint64 words and each CSR segment names the neighbours of one output
    block.  ``rows`` is one 2-D array or a sequence of equal-width 1-D rows --
    the online encoder passes its originals, read in place, then its auxiliary
    rows, so the sources are never packed into one matrix.  Empty segments
    reduce to zero; an index repeated inside a segment cancels.  ``out`` may
    share a parent buffer with ``rows`` as long as the two do not overlap.

    Two kernels, chosen from the row width alone:

    * **wide rows** (at least ``STREAM_MIN_WORDS`` words) *stream*: every
      term is one ``bitwise_xor(a, b, out=o)`` into the segment's own output
      row.  No temporary is allocated, each source row is read once per use,
      and the output row stays in cache while its terms arrive.  The cost is
      one ufunc dispatch (~1 us) per term, which a row of a few KB amortises.
    * **narrow rows** are processed *grouped by segment length*: each group is
      one strided ``bitwise_xor.reduce`` over a ``(group, length, width)``
      gather (``ufunc.reduceat`` is an order of magnitude slower on 2-D
      operands).  A handful of NumPy calls cover thousands of terms, but the
      gather materialises every term, so its traffic grows with the row.  The
      gather needs one array: a sequence of narrow rows is stacked into one
      packed copy first.
    """
    segments = int(offsets.size) - 1
    if isinstance(rows, np.ndarray):
        width = rows.shape[1] if rows.ndim == 2 else 0
    else:
        width = len(rows[0]) if len(rows) else 0
    if out is None:
        out = np.empty((segments, width), dtype=np.uint64)
    if width >= STREAM_MIN_WORDS:
        _xor_reduce_streaming(rows, flat, offsets, out)
    else:
        _xor_reduce_grouped(np.asarray(rows, dtype=np.uint64), flat, offsets, out)
    return out


def xor_accumulate_segments(
    rows: np.ndarray, flat: np.ndarray, offsets: np.ndarray, targets: np.ndarray
) -> None:
    """In-place variant: ``rows[targets[s]] ^= XOR(rows[i] for i in segment s)``.

    The decode primitive: one peeling round XORs the rows of the newly solved
    unknowns into the equations that contain them.  ``targets`` are distinct
    and never appear in ``flat``.  Same wide/narrow rule as
    :func:`xor_reduce_segments`: wide rows take each term directly into the
    target row, narrow rows pay one gather + reduce + scatter per round.
    """
    if rows.shape[1] < STREAM_MIN_WORDS:
        rows[targets] ^= xor_reduce_segments(rows, flat, offsets)
        return
    xor = np.bitwise_xor
    sources = flat.tolist()
    bounds = offsets.tolist()
    for segment, target in enumerate(targets.tolist()):
        accumulator = rows[target]
        for index in sources[bounds[segment] : bounds[segment + 1]]:
            xor(accumulator, rows[index], out=accumulator)


def _xor_reduce_streaming(
    rows: Union[np.ndarray, Sequence[np.ndarray]],
    flat: np.ndarray,
    offsets: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Wide-row kernel of :func:`xor_reduce_segments` (every ``out`` row is written)."""
    xor = np.bitwise_xor
    sources = flat.tolist()
    bounds = offsets.tolist()
    for segment in range(len(bounds) - 1):
        start, stop = bounds[segment], bounds[segment + 1]
        accumulator = out[segment]
        if stop - start < 2:
            accumulator[:] = rows[sources[start]] if stop > start else 0
            continue
        xor(rows[sources[start]], rows[sources[start + 1]], out=accumulator)
        for index in sources[start + 2 : stop]:
            xor(accumulator, rows[index], out=accumulator)
    return out


def _xor_reduce_grouped(
    rows: np.ndarray, flat: np.ndarray, offsets: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Narrow-row kernel of :func:`xor_reduce_segments` (every ``out`` row is written)."""
    flat = np.asarray(flat, dtype=np.intp)
    starts = np.asarray(offsets[:-1], dtype=np.intp)
    lengths = np.asarray(offsets[1:], dtype=np.intp) - starts
    for length in np.unique(lengths):
        group = np.flatnonzero(lengths == length)
        if length == 0:
            out[group] = 0
        elif length == 1:
            out[group] = rows[flat[starts[group]]]
        else:
            gather = flat[starts[group][:, None] + np.arange(length, dtype=np.intp)[None, :]]
            out[group] = np.bitwise_xor.reduce(rows[gather], axis=1)
    return out


# -- bit-packed GF(2) matrices --------------------------------------------------
def bits_from_csr(flat: np.ndarray, offsets: np.ndarray, n_cols: int) -> np.ndarray:
    """Build a bit-packed ``(rows, words)`` GF(2) matrix from CSR index lists.

    Indices appearing an even number of times in a row cancel (XOR
    semantics), matching how repeated neighbours behave in an XOR equation.
    """
    rows = int(offsets.size) - 1
    words = (int(n_cols) + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((rows, max(words, 1)), dtype=np.uint64)
    if flat.size:
        flat = np.asarray(flat, dtype=np.int64)
        counts = np.asarray(offsets[1:]) - np.asarray(offsets[:-1])
        row_of = np.repeat(np.arange(rows, dtype=np.int64), counts)
        word = flat // WORD_BITS
        bit = (np.uint64(1) << (flat % WORD_BITS).astype(np.uint64))
        np.bitwise_xor.at(bits, (row_of, word), bit)
    return bits


def row_weights(bits: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a packed GF(2) matrix."""
    return popcount(bits).sum(axis=1)


def solved_unit_rows(bits: np.ndarray, pivots: Dict[int, int]) -> Dict[int, int]:
    """Columns pinned to a single value after elimination: column -> row.

    A column is fully determined exactly when its pivot row has weight one
    (the row reads ``x_column = value``).
    """
    weights = row_weights(bits)
    return {column: row for column, row in pivots.items() if weights[row] == 1}


# -- vectorized peeling ---------------------------------------------------------
class PeelResult:
    """Outcome of a peeling run: recovered unknowns plus the residual state."""

    __slots__ = ("known", "counts", "rounds", "events", "trace")

    def __init__(
        self,
        known: np.ndarray,
        counts: np.ndarray,
        rounds: int,
        events: int,
        trace: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = None,
    ):
        self.known = known
        #: Remaining unknown-degree of each equation (0 = fully consumed).
        self.counts = counts
        #: Number of batched propagation rounds executed.
        self.rounds = rounds
        #: Total (equation, variable) update events processed.
        self.events = events
        #: When recorded: per round ``(targets, source_eqs, event_eqs,
        #: event_vars)`` — the raw material of a compiled replay schedule.
        self.trace = trace


def peel(
    flat: np.ndarray,
    offsets: np.ndarray,
    n_unknowns: int,
    record: bool = False,
) -> PeelResult:
    """Belief-propagation peeling over a sparse GF(2) system, in batched rounds.

    ``flat``/``offsets`` describe the unknowns of each equation in CSR form.
    The run is *symbolic*: it answers which unknowns peeling recovers (the
    encoder's decodability check) and, with ``record``, in which order from
    which equations — the schedule a decoder replays over payloads.

    Instead of re-scanning every equation per pass (the seed behaviour), the
    scheduler keeps per-equation unknown-degree counters and index sums; each
    round resolves *all* degree-1 equations at once and pushes their
    consequences through a composite->equations incidence CSR with a handful
    of vectorized operations.
    """
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_equations = offsets.size - 1
    known = np.zeros(n_unknowns, dtype=bool)

    counts = (offsets[1:] - offsets[:-1]).copy()
    sums = np.zeros(n_equations, dtype=np.int64)
    if flat.size:
        nonempty = counts > 0
        starts = offsets[:-1][nonempty]
        if starts.size:
            sums[nonempty] = np.add.reduceat(flat, starts)

    # composite -> equations incidence (CSR), built once with one argsort.
    order = np.argsort(flat, kind="stable")
    inc_vars = flat[order]
    inc_eqs = np.repeat(np.arange(n_equations, dtype=np.int64), counts)[order]
    inc_offsets = np.searchsorted(inc_vars, np.arange(n_unknowns + 1, dtype=np.int64))

    source_eq = np.zeros(n_unknowns, dtype=np.int64)
    rounds = 0
    events = 0
    trace: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = (
        [] if record else None
    )
    ready = np.flatnonzero(counts == 1)
    while ready.size:
        targets = sums[ready]
        fresh_mask = ~known[targets]
        src_eqs = ready[fresh_mask]
        targets = targets[fresh_mask]
        if targets.size == 0:
            break
        # Dedupe targets without sorting: last writer wins as the source.
        source_eq[targets] = src_eqs
        before = known.copy()
        known[targets] = True
        newly_known = np.flatnonzero(known & ~before)
        rounds += 1
        # Fan newly-known unknowns out to every equation that contains them.
        seg_starts = inc_offsets[newly_known]
        seg_lens = inc_offsets[newly_known + 1] - seg_starts
        total = int(seg_lens.sum())
        if total == 0:
            if trace is not None:
                empty = np.empty(0, dtype=np.int64)
                trace.append((newly_known, source_eq[newly_known].copy(), empty, empty))
            break
        events += total
        take = np.repeat(seg_starts - np.concatenate(([0], np.cumsum(seg_lens)[:-1])), seg_lens)
        take += np.arange(total, dtype=np.int64)
        ev_eqs = inc_eqs[take]
        ev_vars = inc_vars[take]
        if trace is not None:
            trace.append((newly_known, source_eq[newly_known].copy(), ev_eqs, ev_vars))
        np.subtract.at(counts, ev_eqs, 1)
        np.subtract.at(sums, ev_eqs, ev_vars)
        touched_mask = np.zeros(n_equations, dtype=bool)
        touched_mask[ev_eqs] = True
        ready = np.flatnonzero(touched_mask & (counts == 1))
    return PeelResult(known=known, counts=counts, rounds=rounds, events=events, trace=trace)


def compile_residual(
    flat: np.ndarray,
    offsets: np.ndarray,
    n_unknowns: int,
    result: PeelResult,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stalled peel's *residual* system symbolically (inactivation).

    Peeling already reduced every equation by the unknowns it recovered, so
    only the still-unknown variables and the equations still containing them
    form a (small, sparse) system.  It is eliminated bit-packed with
    minimum-weight pivoting — the residual of a peeled rateless graph is
    near its 2-core, so greedy sparse pivoting keeps fill-in (and therefore
    the downstream payload traffic) low — while an augmented identity tracks
    which equations combine into each solved unknown.

    Marks solved unknowns in ``result.known`` and returns ``(solved_vars,
    comb_flat, comb_offsets)``: for each newly solved unknown, the global
    equation rows whose *peel-reduced* values XOR to its payload.
    """
    empty = np.empty(0, dtype=np.int64)
    known = result.known
    unknown_ids = np.flatnonzero(~known)
    if unknown_ids.size == 0:
        return empty, empty, np.zeros(1, dtype=np.int64)
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    # Equations that still constrain >= 1 unknown.
    rows = np.flatnonzero(result.counts > 0)
    if rows.size == 0:
        return empty, empty, np.zeros(1, dtype=np.int64)
    res_flat, res_offsets = csr_take(flat, offsets, rows)
    keep = ~known[res_flat]
    res_counts = np.zeros(rows.size, dtype=np.int64)
    np.add.at(res_counts, np.repeat(np.arange(rows.size), res_offsets[1:] - res_offsets[:-1]), keep)
    remap = np.full(n_unknowns, -1, dtype=np.int64)
    remap[unknown_ids] = np.arange(unknown_ids.size, dtype=np.int64)
    kept_flat = remap[res_flat[keep]]
    kept_offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(res_counts, out=kept_offsets[1:])

    n_rows = rows.size
    n_cols = unknown_ids.size
    bits = bits_from_csr(kept_flat, kept_offsets, n_cols)
    aug_words = (n_rows + WORD_BITS - 1) // WORD_BITS
    augmented = np.zeros((n_rows, aug_words), dtype=np.uint64)
    row_range = np.arange(n_rows)
    augmented[row_range, row_range // WORD_BITS] = np.uint64(1) << (
        row_range % WORD_BITS
    ).astype(np.uint64)

    # Gauss-Jordan with greedy minimum-weight row pivoting.  Row weights are
    # maintained incrementally: only rows touched by a pivot step change.
    used = np.zeros(n_rows, dtype=bool)
    pivots: Dict[int, int] = {}
    one = np.uint64(1)
    big = np.int64(1) << 40
    weights = popcount(bits).sum(axis=1).astype(np.int64)
    weights[weights == 0] = big
    for _ in range(n_cols):
        pivot_row = int(np.argmin(weights))
        if weights[pivot_row] >= big:
            break
        words = bits[pivot_row]
        column = -1
        for word_index in range(words.size):
            word = int(words[word_index])
            if word:
                column = word_index * WORD_BITS + ((word & -word).bit_length() - 1)
                break
        word_index, bit = divmod(column, WORD_BITS)
        shift = np.uint64(bit)
        mask = ((bits[:, word_index] >> shift) & one).astype(bool)
        mask[pivot_row] = False
        if mask.any():
            bits[mask] ^= bits[pivot_row]
            augmented[mask] ^= augmented[pivot_row]
            touched = np.flatnonzero(mask)
            new_weights = popcount(bits[touched]).sum(axis=1).astype(np.int64)
            new_weights[new_weights == 0] = big
            still_free = ~used[touched]
            weights[touched[still_free]] = new_weights[still_free]
        used[pivot_row] = True
        weights[pivot_row] = big
        pivots[column] = pivot_row
    solved = solved_unit_rows(bits, pivots)
    if not solved:
        return empty, empty, np.zeros(1, dtype=np.int64)

    solved_columns = np.fromiter(solved.keys(), dtype=np.int64, count=len(solved))
    solved_rows = np.fromiter(solved.values(), dtype=np.int64, count=len(solved))
    solved_vars = unknown_ids[solved_columns]
    known[solved_vars] = True
    combinations = augmented[solved_rows]
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    expanded = ((combinations[:, :, None] >> shifts[None, None, :]) & one).astype(bool).reshape(
        combinations.shape[0], -1
    )[:, :n_rows]
    sel_solved, sel_eqs = np.nonzero(expanded)
    seg_counts = np.bincount(sel_solved, minlength=combinations.shape[0])
    comb_offsets = np.zeros(combinations.shape[0] + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=comb_offsets[1:])
    return solved_vars, rows[sel_eqs], comb_offsets


# -- CSR helpers ----------------------------------------------------------------
def concat_csr(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack several CSR systems into one (concatenating their equations)."""
    flats: List[np.ndarray] = []
    counts: List[np.ndarray] = []
    for flat, offsets in parts:
        flats.append(np.asarray(flat, dtype=np.int64))
        offs = np.asarray(offsets, dtype=np.int64)
        counts.append(offs[1:] - offs[:-1])
    if not flats:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    flat = np.concatenate(flats) if flats else np.empty(0, dtype=np.int64)
    all_counts = np.concatenate(counts) if counts else np.empty(0, dtype=np.int64)
    offsets = np.zeros(all_counts.size + 1, dtype=np.int64)
    np.cumsum(all_counts, out=offsets[1:])
    return flat, offsets


def csr_take(
    flat: np.ndarray, offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract the CSR subsystem formed by ``rows`` (in the given order)."""
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    lens = offsets[rows + 1] - offsets[rows]
    total = int(lens.sum())
    out_offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out_offsets[1:])
    if total == 0:
        return np.empty(0, dtype=np.int64), out_offsets
    take = np.repeat(offsets[rows] - out_offsets[:-1], lens) + np.arange(total, dtype=np.int64)
    return flat[take], out_offsets
