"""Erasure-coding substrate.

The paper protects every variable-sized chunk with an erasure code applied
*within* the chunk (Section 4.2): the chunk is split into ``n`` equal blocks,
the code produces ``m`` encoded blocks, and the chunk can be recovered from a
subset of the encoded blocks.  Three codes appear in the evaluation
(Table 2 / Figure 10): a NULL code (plain copy), a (2, 3) XOR parity code, and
Maymounkov's rateless *online code* with q = 3 and epsilon = 0.01.  A
Reed-Solomon code over GF(256) is provided as an extension (it is the optimal
erasure code the paper alludes to when discussing "optimal" vs "sub-optimal"
codes in Section 2.2).

Architecture — the vectorized coding kernel
-------------------------------------------

All four codes sit on top of :mod:`repro.erasure.gf2`, a bit-packed GF(2)
kernel that turns the coding hot paths into batched NumPy operations:

* ``xor_reduce_segments`` / ``xor_accumulate_segments`` — payload blocks are
  stacked into ``uint64``-word matrices and a CSR description names each
  output block's neighbours (check blocks, aux-block construction, the
  decoder's peeling rounds and residual combinations).  The row width picks
  the kernel: rows under 4 KiB (``gf2.STREAM_MIN_WORDS``; 64 KiB - 4 MiB
  chunks in 256-512 blocks) are batched through a length-grouped 3-D gather
  and one strided ``bitwise_xor.reduce`` per group; wider rows (payload mode:
  8 MiB chunks in 64 blocks, 128 KiB rows) stream, each term one
  ``bitwise_xor(a, b, out=row)`` into the row it belongs to, with no
  temporaries.  The measured crossover table sits next to the constant;
* ``peel`` — a vectorized, symbolic belief-propagation scheduler driven by
  per-equation degree counters (the decode-program compiler and the
  encoder's decodability guarantee), processing whole frontiers of degree-1
  equations per round instead of re-scanning every equation;
* ``bits_from_csr`` / ``compile_residual`` — bit-packed Gauss-Jordan
  elimination of a stalled peel's residual system (the exact fallback);
* ``hash_counters`` — counter-based splitmix64 streams so rateless graph
  structure is derived in vectorized batches *and* any single stream index
  can be regenerated independently.  That derivation is the online code's
  wire format: chunks are tagged with ``STREAM_VERSION`` and a decoder
  refuses any other tag.

Code structures (aux assignments, degree CDFs, check-neighbour prefixes,
Reed-Solomon generator matrices) are memoised in ``lru_cache`` layers keyed
by the chunk seed and code parameters, so decode and the repair path reuse
exactly the graph the encoder built.  Payload bytes cross the online code's
boundary once each way: ``decode`` copies every available block straight into
its equation row, replays the compiled schedule in place (a consumed
equation's row *is* the composite it recovered) and joins the rows of the
originals into the result; ``encode`` and ``generate_additional_blocks`` pack
only the composites their check blocks reference.  Every ``decode`` rejects a
block that is not ``chunk.block_size`` long with :class:`DecodingError`.  The
storage/recovery layers
(:mod:`repro.core.storage`, :mod:`repro.core.recovery`) and the coding
benchmarks (``benchmarks/test_bench_coding_throughput.py``) all ride on this
kernel.

All coders operate on real bytes so the coding-performance experiment is a
real measurement; :class:`CodeSpec` captures the per-code metadata (blocks
produced, blocks needed, loss tolerance) used by the capacity-only
simulations.
"""

from repro.erasure.base import (
    CodeSpec,
    DecodingError,
    EncodedBlock,
    EncodedChunk,
    ErasureCode,
    split_into_blocks,
    split_into_matrix,
)
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode
from repro.erasure.online_code import (
    STREAM_VERSION,
    OnlineCode,
    OnlineCodeParameters,
    clear_code_graph_cache,
)
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.chunk_codec import ChunkCodec, clear_coding_caches, registry, get_code

__all__ = [
    "CodeSpec",
    "DecodingError",
    "EncodedBlock",
    "EncodedChunk",
    "ErasureCode",
    "split_into_blocks",
    "split_into_matrix",
    "NullCode",
    "XorParityCode",
    "OnlineCode",
    "OnlineCodeParameters",
    "STREAM_VERSION",
    "clear_code_graph_cache",
    "clear_coding_caches",
    "ReedSolomonCode",
    "ChunkCodec",
    "registry",
    "get_code",
]
