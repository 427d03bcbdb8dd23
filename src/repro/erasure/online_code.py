"""Maymounkov's rateless *online code* (the paper's preferred erasure code).

The online code (Section 2.2 of the paper, following Maymounkov's TR2003-883)
is a sub-optimal rateless erasure code built from two layers:

* the **outer code** produces ``0.55 * q * epsilon * n`` auxiliary blocks; each
  original block is XORed into ``q`` pseudo-randomly chosen auxiliary blocks;
* the **inner code** produces an unbounded stream of *check blocks*; each check
  block XORs ``d`` composite blocks (originals + auxiliaries), where ``d`` is
  drawn from the online-code degree distribution parameterised by ``epsilon``.

Only the check blocks are stored.  Decoding is the classic belief-propagation
("peeling") process, with an exact GF(2) Gaussian-elimination fallback for
small systems so that unit tests decode deterministically.

Implementation notes (the vectorized kernel):

* All graph structure — auxiliary assignments, check-block degrees and
  neighbour sets — is derived in *batched* vectorized passes from
  counter-based splitmix64 hashes, so any index range of the unbounded check
  stream can be generated in one call and any single index independently
  (the rateless property).  This derivation is the wire format: every chunk
  is tagged with :data:`STREAM_VERSION`, and a chunk carrying any other tag
  (or none, like the seed's per-index ``np.random.default_rng`` format) is
  refused with :class:`DecodingError` rather than decoded on the wrong graph.
* Payload math runs on the bit-packed GF(2) kernel
  (:mod:`repro.erasure.gf2`): encode is a segmented XOR-reduce over the
  originals, read in place, and the auxiliary rows, written straight into
  the one buffer its check blocks view; decode compiles the vectorized
  peeling scheduler and the bit-packed residual elimination into a
  :class:`DecodeProgram` once per available-index set and replays it in
  place over one equation matrix.  Wide rows stream through those kernels
  without temporaries, narrow rows are batched (``gf2.STREAM_MIN_WORDS``).
* Code structures are cached per ``(epsilon, q, n_blocks, chunk_seed)`` in
  an LRU layer, so decode and :meth:`OnlineCode.generate_additional_blocks`
  reuse the graph the encoder just built instead of recomputing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.erasure import gf2
from repro.erasure.base import (
    BlockBytes,
    CodeSpec,
    DecodingError,
    EncodedBlock,
    EncodedChunk,
    ErasureCode,
    block_views,
    join_blocks,
    require_block_lengths,
    split_into_matrix,
)
from repro.overlay.validation import require_range
from repro.sim.rng import derive_seed

#: Wire-format tag of the stream derivation, written into chunk metadata and
#: checked on the way back in.  (Version 1, the seed implementation, derived
#: each check block from its own freshly constructed generator; version 2
#: derives whole index ranges from counter-based hashes in one pass.)
STREAM_VERSION = 2


@lru_cache(maxsize=None)
def _degree_distribution_cached(epsilon: float) -> np.ndarray:
    big_f = OnlineCodeParameters.max_degree_for(epsilon)
    rho = np.zeros(big_f, dtype=float)
    rho[0] = 1.0 - (1.0 + 1.0 / big_f) / (1.0 + epsilon)
    for degree in range(2, big_f + 1):
        rho[degree - 1] = (1.0 - rho[0]) * big_f / ((big_f - 1) * degree * (degree - 1))
    rho = np.clip(rho, 0.0, None)
    rho /= rho.sum()
    rho.setflags(write=False)
    return rho


@lru_cache(maxsize=None)
def _rho_cdf_cached(epsilon: float) -> np.ndarray:
    cdf = np.cumsum(_degree_distribution_cached(epsilon))
    cdf.setflags(write=False)
    return cdf


@dataclass(frozen=True)
class OnlineCodeParameters:
    """Tuning parameters of the online code.

    The paper uses ``q = 3`` and ``epsilon = 0.01`` (Section 6.2).  ``quality``
    multiplies the nominal ``(1 + epsilon) * n'`` check-block count when the
    caller does not specify an explicit output size, and ``margin`` adds a
    small constant number of further check blocks.  The defaults keep the
    storage overhead for a paper-sized chunk (4096 blocks) at ~3-4 %, matching
    Table 2, while giving small chunks enough extra equations that decoding
    from the full block set virtually never fails.
    """

    epsilon: float = 0.01
    q: int = 3
    quality: float = 1.0
    margin: int = 16

    def __post_init__(self) -> None:
        require_range("epsilon", self.epsilon, 0, 1, "()")
        for name, low in (("q", 1), ("quality", 1.0), ("margin", 0)):
            require_range(name, getattr(self, name), low)

    @staticmethod
    def max_degree_for(epsilon: float) -> int:
        """F, the maximum check-block degree, as a function of epsilon."""
        return max(2, int(math.ceil(math.log(epsilon**2 / 4.0) / math.log(1.0 - epsilon / 2.0))))

    def rho_cdf(self) -> np.ndarray:
        """Cumulative check-block degree distribution rho_1..rho_F, for inverse-CDF sampling.

        Cached per ``epsilon`` (it is needed by every encode *and* decode);
        the returned array is read-only.
        """
        return _rho_cdf_cached(self.epsilon)

    def auxiliary_count(self, n_blocks: int) -> int:
        """Number of auxiliary blocks produced by the outer code."""
        return max(1, int(math.ceil(0.55 * self.q * self.epsilon * n_blocks)))


class DecodeProgram:
    """A compiled decode schedule for one (graph, available-index-set) pair.

    Decoding is GF(2)-linear and its control flow (which equation recovers
    which composite, in which order; which equations combine to solve the
    peeling residual) depends only on the graph — not on payload bytes.  The
    program stores that control flow as flat arrays over the rows of one
    ``(n_rows, words)`` matrix: the available check payloads in sorted-index
    order, the zero-valued auxiliary constraints, then one spare row per
    residual-solved composite.

    * A peeled composite is not copied anywhere: once the equation that
      recovers it has been reduced to that single unknown, the equation's row
      *is* the composite's payload, and nothing writes to it again (updates
      to consumed equations are filtered out at compile time).  ``var_rows``
      records that row for every composite (-1 where undetermined).
    * ``schedule`` — one ``(source_rows, seg_offsets, target_rows)`` entry per
      peeling round with live updates: the rows of the newly solved
      composites are XORed into the equations containing them, in place.
    * ``residual_flat``/``residual_offsets`` — the inactivation step: each
      residual-solved composite is one XOR over peel-reduced equation rows,
      written to the spare rows from ``n_equations`` on.

    ``missing`` is non-zero (and the schedule unusable for full decode) when
    the available set cannot determine every original block.  When it is zero
    every auxiliary block has a row too: peeling reduces an auxiliary
    constraint to its auxiliary block once the members are known, and the
    residual eliminator solves every column the equations determine.
    ``rounds`` / ``events`` preserve peeling statistics for fingerprints and
    diagnostics.
    """

    __slots__ = (
        "missing",
        "n_equations",
        "n_rows",
        "var_rows",
        "schedule",
        "residual_flat",
        "residual_offsets",
        "events",
        "rounds",
    )

    def __init__(
        self,
        missing: int,
        n_equations: int,
        var_rows: np.ndarray,
        schedule: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        residual_flat: np.ndarray,
        residual_offsets: np.ndarray,
        events: int,
        rounds: int,
    ):
        self.missing = missing
        self.n_equations = n_equations
        self.n_rows = n_equations + int(residual_offsets.size) - 1
        self.var_rows = var_rows
        self.schedule = schedule
        self.residual_flat = residual_flat
        self.residual_offsets = residual_offsets
        self.events = events
        self.rounds = rounds

    def run(self, values: np.ndarray) -> None:
        """Replay the schedule in place over the ``(n_rows, words)`` matrix.

        On entry rows ``[0, n_equations)`` hold the equation payloads (checks,
        then zeros for the auxiliary constraints); on return row
        ``var_rows[c]`` holds the payload of composite ``c``.
        """
        for source_rows, seg_offsets, target_rows in self.schedule:
            gf2.xor_accumulate_segments(values, source_rows, seg_offsets, target_rows)
        if self.n_rows > self.n_equations:
            gf2.xor_reduce_segments(
                values, self.residual_flat, self.residual_offsets, out=values[self.n_equations :]
            )


class CodeGraph:
    """The full coding graph of one chunk, derived from its seed.

    Holds the auxiliary-block memberships (CSR), the degree CDF, and a lazily
    extended prefix of the unbounded check-block stream, also in CSR form.
    Instances are shared through :func:`code_graph`'s LRU cache so the
    decoder, the repair path and ``generate_additional_blocks`` all reuse the
    structure the encoder built.
    """

    __slots__ = (
        "epsilon",
        "q",
        "n_blocks",
        "chunk_seed",
        "aux_count",
        "composite_count",
        "rho_cdf",
        "aux_flat",
        "aux_offsets",
        "_inner_seed",
        "_check_flat",
        "_check_offsets",
        "_aux_eq",
        "decodable_cache",
        "_programs",
    )

    def __init__(self, epsilon: float, q: int, n_blocks: int, chunk_seed: int):
        params = OnlineCodeParameters(epsilon=epsilon, q=q)
        self.epsilon = epsilon
        self.q = q
        self.n_blocks = int(n_blocks)
        self.chunk_seed = int(chunk_seed)
        self.aux_count = params.auxiliary_count(n_blocks)
        self.composite_count = self.n_blocks + self.aux_count
        self.rho_cdf = params.rho_cdf()
        self.aux_flat, self.aux_offsets = self._derive_aux()
        self._inner_seed = derive_seed(self.chunk_seed, "inner-v2")
        self._check_flat = np.empty(0, dtype=np.int64)
        self._check_offsets = np.zeros(1, dtype=np.int64)
        self._aux_eq: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Memoised results of the encoder's decodability guarantee, keyed by
        #: check-block count (the answer is a pure function of the graph).
        self.decodable_cache: Dict[int, bool] = {}
        #: Compiled decode programs keyed by the available-index tuple.
        self._programs: Dict[Tuple[int, ...], "DecodeProgram"] = {}

    # -- auxiliary (outer code) -------------------------------------------------
    def _derive_aux(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of aux block -> original members."""
        n, aux_count = self.n_blocks, self.aux_count
        take = min(self.q, aux_count)
        outer_seed = derive_seed(self.chunk_seed, "outer-v2")
        keys = gf2.hash_counters(
            outer_seed, np.arange(n * aux_count, dtype=np.uint64)
        ).reshape(n, aux_count)
        if take < aux_count:
            chosen = np.argpartition(keys, take - 1, axis=1)[:, :take]
        else:
            chosen = np.broadcast_to(np.arange(aux_count, dtype=np.int64), (n, aux_count))
        aux_of_pair = chosen.reshape(-1).astype(np.int64)
        orig_of_pair = np.repeat(np.arange(n, dtype=np.int64), take)
        order = np.lexsort((orig_of_pair, aux_of_pair))
        members = orig_of_pair[order]
        counts = np.bincount(aux_of_pair, minlength=aux_count).astype(np.int64)
        offsets = np.zeros(aux_count + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return members, offsets

    def aux_equations(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the outer-code constraints: members(j) + composite ``n + j``.

        These equations hold unconditionally (aux = XOR of its members), so
        the decoder includes them from the start — peeling can recover an
        auxiliary block from its members or vice versa.
        """
        if self._aux_eq is None:
            member_counts = self.aux_offsets[1:] - self.aux_offsets[:-1]
            counts = member_counts + 1
            offsets = np.zeros(self.aux_count + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            flat = np.empty(int(offsets[-1]), dtype=np.int64)
            if self.aux_flat.size:
                positions = np.repeat(offsets[:-1] - self.aux_offsets[:-1], member_counts)
                positions += np.arange(self.aux_flat.size, dtype=np.int64)
                flat[positions] = self.aux_flat
            flat[offsets[1:] - 1] = self.n_blocks + np.arange(self.aux_count, dtype=np.int64)
            self._aux_eq = (flat, offsets)
        return self._aux_eq

    # -- check blocks (inner code) ----------------------------------------------
    def _derive_checks(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Derive neighbour CSR for check indices [start, stop) in one pass."""
        indices = np.arange(start, stop, dtype=np.uint64)
        keys = gf2.hash_counters(self._inner_seed, indices)
        uniforms = gf2.to_unit_interval(keys)
        degrees = np.searchsorted(self.rho_cdf, uniforms, side="right") + 1
        degrees = np.clip(degrees, 1, self.composite_count).astype(np.int64)
        total = int(degrees.sum())
        base = np.repeat(keys, degrees)
        draw_offsets = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=draw_offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(draw_offsets[:-1], degrees)
        draws = (gf2.hash_subcounters(base, within) % np.uint64(self.composite_count)).astype(
            np.int64
        )
        # Deduplicate within each row (set semantics: a neighbour drawn twice
        # still participates once), keeping CSR form.
        rows = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
        order = np.lexsort((draws, rows))
        rows_sorted = rows[order]
        draws_sorted = draws[order]
        first = np.ones(total, dtype=bool)
        first[1:] = (rows_sorted[1:] != rows_sorted[:-1]) | (draws_sorted[1:] != draws_sorted[:-1])
        kept = draws_sorted[first]
        kept_counts = np.bincount(rows_sorted[first], minlength=degrees.size).astype(np.int64)
        offsets = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        return kept, offsets

    def ensure_checks(self, count: int) -> None:
        """Extend the cached check-stream prefix to cover indices [0, count)."""
        have = self._check_offsets.size - 1
        if count <= have:
            return
        flat, offsets = self._derive_checks(have, count)
        self._check_flat = np.concatenate([self._check_flat, flat])
        self._check_offsets = np.concatenate(
            [self._check_offsets, offsets[1:] + self._check_offsets[-1]]
        )

    def check_csr(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the first ``count`` check blocks' neighbour sets."""
        self.ensure_checks(count)
        end = self._check_offsets[count]
        return self._check_flat[:end], self._check_offsets[: count + 1]

    def checks_for(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the neighbour sets for an arbitrary array of stream indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            self.ensure_checks(int(indices.max()) + 1)
        return gf2.csr_take(self._check_flat, self._check_offsets, indices)

    # -- compiled decoding --------------------------------------------------------
    def decode_program(
        self, indices: Tuple[int, ...], residual_limit: int = 8192
    ) -> "DecodeProgram":
        """Compile (and cache) the linear decode map for an available-index set.

        Decoding is GF(2)-linear, so for a fixed graph and a fixed set of
        available check blocks each original block is one fixed XOR of check
        payloads.  The peeling scheduler and the residual eliminator are run
        once *symbolically* — with bit rows tracking which check equations
        combine into each composite — and the result is flattened into a CSR
        "program".  Replaying the program is one in-place XOR pass per
        peeling round plus one for the residual, so repeated decodes of the
        same shape (benchmarks, repair storms, retrieve-all paths) skip graph
        peeling entirely.  When the available
        set cannot determine every original block, the returned (negatively
        cached) program has ``missing > 0`` and must not be replayed.
        """
        if indices in self._programs:
            return self._programs[indices]
        index_array = np.asarray(indices, dtype=np.int64)
        flat, offsets = gf2.concat_csr([self.checks_for(index_array), self.aux_equations()])
        n_equations = offsets.size - 1

        result = gf2.peel(flat, offsets, self.composite_count, record=True)
        residual_vars = np.empty(0, dtype=np.int64)
        residual_flat = np.empty(0, dtype=np.int64)
        residual_offsets = np.zeros(1, dtype=np.int64)
        if not bool(result.known[: self.n_blocks].all()) and (
            self.composite_count <= residual_limit
        ):
            residual_vars, residual_flat, residual_offsets = gf2.compile_residual(
                flat, offsets, self.composite_count, result
            )
        missing = int(self.n_blocks - result.known[: self.n_blocks].sum())

        # An equation's value stops mattering once it has been consumed as a
        # peeling source, and never matters when no composite is recovered
        # from it (a redundant check, or an auxiliary constraint whose ~3n/aux
        # members were all peeled elsewhere) unless the residual solver reads
        # it: the replay skips every update to such a row.  That a consumed
        # equation is never written again is also what lets its row stand for
        # the composite it recovered.  ``events`` stays the peel's own count
        # (updates to equations not yet consumed, read later or not).
        trace = result.trace or []
        use_round = np.full(n_equations, len(trace) + 1, dtype=np.int64)
        is_read = np.zeros(n_equations, dtype=bool)
        is_read[residual_flat] = True
        var_rows = np.full(self.composite_count, -1, dtype=np.int64)
        for round_index, (targets, source_eqs, _, _) in enumerate(trace):
            use_round[source_eqs] = round_index
            is_read[source_eqs] = True
            var_rows[targets] = source_eqs
        var_rows[residual_vars] = n_equations + np.arange(residual_vars.size, dtype=np.int64)
        schedule = []
        events = int(residual_flat.size)
        for round_index, (_, _, ev_eqs, ev_vars) in enumerate(trace):
            pending = use_round[ev_eqs] > round_index
            events += int(np.count_nonzero(pending))
            keep = pending & is_read[ev_eqs]
            ev_eqs = ev_eqs[keep]
            if ev_eqs.size == 0:
                continue
            order = np.argsort(ev_eqs)
            eqs_sorted = ev_eqs[order]
            boundary = np.empty(eqs_sorted.size, dtype=bool)
            boundary[0] = True
            np.not_equal(eqs_sorted[1:], eqs_sorted[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            schedule.append(
                (var_rows[ev_vars[keep][order]], np.append(starts, eqs_sorted.size), eqs_sorted[starts])
            )

        program = DecodeProgram(
            missing=missing,
            n_equations=n_equations,
            var_rows=var_rows,
            schedule=schedule,
            residual_flat=residual_flat,
            residual_offsets=residual_offsets,
            events=events,
            rounds=len(trace),
        )
        if len(self._programs) >= 8:
            self._programs.pop(next(iter(self._programs)))
        self._programs[indices] = program
        return program


@lru_cache(maxsize=64)
def code_graph(epsilon: float, q: int, n_blocks: int, chunk_seed: int) -> CodeGraph:
    """The LRU-cached code-structure layer shared by encode/decode/repair."""
    return CodeGraph(epsilon, q, n_blocks, chunk_seed)


def clear_code_graph_cache() -> None:
    """Drop cached code graphs (benchmark cold-path measurements)."""
    code_graph.cache_clear()


class OnlineCode(ErasureCode):
    """Rateless online code with deterministic, seed-derived block composition."""

    name = "online"

    #: Systems with at most this many composite blocks fall back to exact
    #: GF(2) elimination when peeling stalls.  Inactivation decoding on the
    #: bit-packed kernel only eliminates the (small) residual system, which is
    #: cheap enough to cover paper-scale chunks (4096 blocks + auxiliaries).
    GAUSSIAN_FALLBACK_LIMIT = 8192

    #: Systems with at most this many composite blocks get the encode-time
    #: guarantee that the full encoded stream determines every original block
    #: (extra check blocks are appended until it does).  At the paper's scale
    #: (4096 blocks per chunk) the asymptotic guarantees of the online code
    #: apply and no such check is performed.
    SMALL_SYSTEM_GUARANTEE = 640

    def __init__(self, parameters: Optional[OnlineCodeParameters] = None, seed: int = 0) -> None:
        self.parameters = parameters or OnlineCodeParameters()
        self.seed = int(seed)
        #: Peeling statistics (rounds, events) of the program the most recent decode or
        #: mint ran; exposed for the determinism fingerprints and perf diagnostics.
        self.last_decode_stats: Dict[str, int] = {}

    # -- graph access -----------------------------------------------------------
    @staticmethod
    def _graph_for_chunk(chunk: EncodedChunk, fallback: OnlineCodeParameters) -> CodeGraph:
        """Graph for an encoded chunk, honouring its recorded stream metadata.

        The chunk must carry this module's wire-format tag: any other stream
        derivation yields a different graph, which would decode to wrong
        bytes without noticing.
        """
        tag = chunk.metadata.get("stream_version")
        if tag != STREAM_VERSION:
            raise DecodingError(
                f"chunk carries stream version tag {tag!r}; this decoder reads "
                f"version {STREAM_VERSION} only"
            )
        return code_graph(
            float(chunk.metadata.get("epsilon", fallback.epsilon)),
            int(chunk.metadata.get("q", fallback.q)),
            chunk.n_blocks,
            int(chunk.metadata["chunk_seed"]),
        )

    # -- decodability (symbolic) ------------------------------------------------
    def _decodable_from_all(self, graph: CodeGraph, check_count: int) -> bool:
        """Would the decoder succeed given every encoded block produced so far?

        Vectorized graph peeling is tried first; when it stalls (and the
        system is small enough for the decoder's exact GF(2) fallback) the
        small residual system is eliminated exactly (inactivation).  The
        answer is memoised on the cached graph, so re-encoding another chunk
        with the same shape skips the check entirely.
        """
        cached = graph.decodable_cache.get(check_count)
        if cached is not None:
            return cached
        flat, offsets = gf2.concat_csr(
            [graph.check_csr(check_count), graph.aux_equations()]
        )
        result = gf2.peel(flat, offsets, graph.composite_count)
        if not bool(result.known[: graph.n_blocks].all()) and (
            graph.composite_count <= self.GAUSSIAN_FALLBACK_LIMIT
        ):
            gf2.compile_residual(flat, offsets, graph.composite_count, result)
        decodable = bool(result.known[: graph.n_blocks].all())
        graph.decodable_cache[check_count] = decodable
        return decodable

    def default_output_blocks(self, n_blocks: int) -> int:
        """Check blocks produced when the caller does not ask for a count."""
        params = self.parameters
        composite = n_blocks + params.auxiliary_count(n_blocks)
        return int(math.ceil(params.quality * (1.0 + params.epsilon) * composite)) + params.margin

    # -- encode -------------------------------------------------------------------
    def encode(self, data: bytes, n_blocks: int, output_blocks: Optional[int] = None) -> EncodedChunk:
        matrix = split_into_matrix(data, n_blocks)
        block_size = matrix.shape[1]
        chunk_seed = derive_seed(self.seed, "chunk", len(data), n_blocks)
        graph = code_graph(self.parameters.epsilon, self.parameters.q, n_blocks, chunk_seed)

        if output_blocks is None:
            output_blocks = self.default_output_blocks(n_blocks)
        require_range("output_blocks", output_blocks, 1)

        # Rateless small-system guarantee: for chunks split into few blocks the
        # nominal (1 + epsilon) overhead gives no probabilistic guarantee, so
        # keep extending the check stream (in batches) until the full set of
        # encoded blocks determines every original block.  Decodability is a
        # property of the graph, so the count is settled before any payload
        # byte is touched.
        if graph.composite_count <= self.SMALL_SYSTEM_GUARANTEE:
            cap = output_blocks + 8 * graph.composite_count + 16
            while output_blocks < cap and not self._decodable_from_all(graph, output_blocks):
                output_blocks += min(max(8, graph.composite_count // 8), cap - output_blocks)

        # Every payload byte is written once: the originals are read in place
        # (as uint64 words; a block size that is not a multiple of 8 costs one
        # padded copy), only the auxiliary rows are built, and each check
        # block is XORed straight into its row of one output buffer, which
        # the blocks then view.
        originals = gf2.pack_matrix(matrix)
        aux = gf2.xor_reduce_segments(originals, graph.aux_flat, graph.aux_offsets)
        flat, offsets = graph.check_csr(output_blocks)
        checks = np.empty((output_blocks, originals.shape[1]), dtype=np.uint64)
        gf2.xor_reduce_segments([*originals, *aux], flat, offsets, out=checks)
        encoded = [
            EncodedBlock(index=row, data=view)
            for row, view in enumerate(block_views(checks, block_size))
        ]
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=block_size,
            n_blocks=n_blocks,
            blocks=encoded,
            metadata={
                "chunk_seed": chunk_seed,
                "output_blocks": output_blocks,
                "epsilon": self.parameters.epsilon,
                "q": self.parameters.q,
                "stream_version": STREAM_VERSION,
            },
        )

    def generate_additional_blocks(
        self, chunk: EncodedChunk, available: Dict[int, BlockBytes], count: int
    ) -> List[EncodedBlock]:
        """Mint ``count`` *new* check blocks for a chunk from its available check blocks.

        This is the rateless property the recovery pipeline relies on: new
        encoded blocks continue the stream (indices from
        ``metadata["output_blocks"]`` on) without touching the blocks that
        already exist.  Nothing is decoded.  Decoding is GF(2)-linear, so the
        chunk's compiled :class:`DecodeProgram` is replayed once on unit bit
        vectors in place of payloads: bit ``i`` stands for the ``i``-th sorted
        available index, and afterwards row ``var_rows[c]`` says which check
        blocks XOR to composite ``c``.  A new block's selection is the XOR of
        its neighbours' rows, and its payload the XOR of the selected blocks,
        read in place.  Raises :class:`DecodingError` exactly when
        :meth:`decode` would on the same ``available``.
        """
        if count < 1:
            return []
        graph, indices, program = self._decode_program(chunk, available)
        unit = np.arange(len(indices), dtype=np.int64)
        bits = np.zeros((program.n_rows, -(-unit.size // 64)), dtype=np.uint64)
        bits[unit, unit >> 6] = np.uint64(1) << (unit & 63).astype(np.uint64)
        program.run(bits)
        composites = bits[program.var_rows]  # every composite has a row (see DecodeProgram)
        start = int(chunk.metadata["output_blocks"])
        flat, offsets = graph.checks_for(np.arange(start, start + count, dtype=np.int64))
        selections = gf2.xor_reduce_segments(composites, flat, offsets).astype("<u8")
        selected = np.unpackbits(selections.view(np.uint8), axis=1, bitorder="little")
        # Each new block is XORed into its own row of one buffer, which it
        # then views; a block size that is not a multiple of 8 is XORed byte
        # by byte.
        dtype = np.uint64 if chunk.block_size % 8 == 0 else np.uint8
        payloads = np.zeros((count, chunk.block_size // np.dtype(dtype).itemsize), dtype=dtype)
        for payload, row in zip(payloads, selected[:, : unit.size]):
            for position in np.flatnonzero(row).tolist():
                block = np.frombuffer(available[indices[position]], dtype=dtype)
                np.bitwise_xor(payload, block, out=payload)
        return [
            EncodedBlock(index=start + offset, data=view)
            for offset, view in enumerate(block_views(payloads, chunk.block_size))
        ]

    # -- decode -------------------------------------------------------------------
    def _decode_program(
        self, chunk: EncodedChunk, available: Dict[int, BlockBytes]
    ) -> Tuple[CodeGraph, List[int], DecodeProgram]:
        """The graph, sorted indices and compiled program that ``available`` decodes by.

        Shared by :meth:`decode` and :meth:`generate_additional_blocks`, so
        both refuse the same inputs with :class:`DecodingError`: a block of
        the wrong length, a foreign stream tag, an unknown index, or an
        available set that does not determine every original block.
        """
        require_block_lengths(chunk, available)
        graph = self._graph_for_chunk(chunk, self.parameters)
        total_outputs = int(chunk.metadata["output_blocks"])
        indices = sorted(available)
        for index in indices:
            if not 0 <= index < total_outputs:
                raise DecodingError(f"unknown encoded block index {index}")

        # Decoding is GF(2)-linear: the cached program maps check payloads to
        # originals with in-place XORs only (peeling + residual elimination
        # ran once, symbolically, when the program was compiled).
        program = graph.decode_program(tuple(indices), self.GAUSSIAN_FALLBACK_LIMIT)
        self.last_decode_stats = {"rounds": program.rounds, "events": program.events}
        if program.missing:
            epsilon = float(chunk.metadata.get("epsilon", self.parameters.epsilon))
            raise DecodingError(
                f"online code peeling stalled: {program.missing}/{chunk.n_blocks} original "
                f"blocks unrecovered from {len(available)} check blocks "
                f"(epsilon={epsilon})"
            )
        return graph, indices, program

    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        _, indices, program = self._decode_program(chunk, available)
        block_size = chunk.block_size

        # Each block is copied once, straight into its equation row; the rows
        # of the solved originals are joined once on the way out.
        words = gf2.words_for_bytes(block_size)
        stride = words * 8
        values = np.empty((program.n_rows, words), dtype=np.uint64)
        if stride != block_size:
            values[: len(indices), -1] = 0  # word padding shares the last word
        values[len(indices) : program.n_equations] = 0  # auxiliary constraints
        raw = values.data.cast("B")
        for row, index in enumerate(indices):
            raw[row * stride : row * stride + block_size] = available[index]
        program.run(values)
        return join_blocks(
            [raw[row * stride : row * stride + block_size]
             for row in program.var_rows[: chunk.n_blocks].tolist()],
            chunk.original_size,
        )

    # -- metadata -------------------------------------------------------------------
    def spec(self, n_blocks: int) -> CodeSpec:
        output = self.default_output_blocks(n_blocks)
        composite = n_blocks + self.parameters.auxiliary_count(n_blocks)
        required = int(math.ceil((1.0 + self.parameters.epsilon) * composite))
        required = min(required, output)
        return CodeSpec(
            name=self.name,
            input_blocks=n_blocks,
            output_blocks=output,
            loss_tolerance=max(0, output - required),
            size_overhead=(output / n_blocks - 1.0) if n_blocks else 0.0,
        )
