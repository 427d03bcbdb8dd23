"""Chunk-level encode/decode helpers and the code registry.

:class:`ChunkCodec` ties an :class:`~repro.erasure.base.ErasureCode` to the
chunk-handling conventions of the storage system: how many blocks a chunk is
split into, how large a chunk may be given the smallest block capacity offered
by the probed nodes, and measurement helpers used by the Table 2 experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.erasure.base import BlockBytes, CodeSpec, EncodedChunk, ErasureCode
from repro.erasure.null_code import NullCode
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.overlay.validation import require_range


#: Factory registry mapping code names to zero-argument constructors with the
#: paper's default parameters.
registry: Dict[str, Callable[[], ErasureCode]] = {
    "null": NullCode,
    "xor": lambda: XorParityCode(group_size=2),
    "online": lambda: OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3)),
    "reed-solomon": lambda: ReedSolomonCode(parity_blocks=2),
}


def get_code(name: str) -> ErasureCode:
    """Instantiate a registered code by name ("null", "xor", "online", "reed-solomon")."""
    try:
        factory = registry[name]
    except KeyError as error:
        raise KeyError(f"unknown erasure code {name!r}; known: {sorted(registry)}") from error
    return factory()


def clear_coding_caches() -> None:
    """Drop every cached code structure (cold-path measurements).

    Clears the online-code graph/program cache, the cached degree
    distributions, and the Reed-Solomon generator-matrix caches.
    """
    from repro.erasure import online_code, reed_solomon

    online_code.clear_code_graph_cache()
    online_code._degree_distribution_cached.cache_clear()
    online_code._rho_cdf_cached.cache_clear()
    reed_solomon._cauchy_parity_rows.cache_clear()
    reed_solomon._full_generator_cached.cache_clear()


@dataclass
class CodingMeasurement:
    """Timing/size record for one encode(+decode) round (Table 2 rows)."""

    code_name: str
    chunk_size: int
    encoded_size: int
    encode_seconds: float
    decode_seconds: float

    @property
    def size_overhead(self) -> float:
        """Fractional growth of stored bytes relative to the chunk size."""
        if self.chunk_size == 0:
            return 0.0
        return self.encoded_size / self.chunk_size - 1.0

    @property
    def encode_throughput_mb_s(self) -> float:
        """Encode throughput in MB/s (the unit tracked by BENCH_coding.json)."""
        if self.encode_seconds <= 0.0:
            return 0.0
        return self.chunk_size / (1 << 20) / self.encode_seconds

    @property
    def decode_throughput_mb_s(self) -> float:
        """Decode throughput in MB/s."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.chunk_size / (1 << 20) / self.decode_seconds


class ChunkCodec:
    """Erasure coding applied at chunk granularity (Section 4.2 of the paper)."""

    def __init__(self, code: ErasureCode, blocks_per_chunk: int = 4) -> None:
        self.blocks_per_chunk = require_range("blocks_per_chunk", blocks_per_chunk, 1)
        self.code = code
        self._spec = code.spec(blocks_per_chunk)

    # -- capacity negotiation helpers ------------------------------------------
    def spec(self) -> CodeSpec:
        """The capacity-simulation spec for the configured block count."""
        return self._spec

    def max_chunk_size(self, max_block_size: int) -> int:
        """Largest chunk storable when every encoded block must fit ``max_block_size``.

        Section 4.3: the chunk size is the product of the negotiated block size
        and the number of *original* blocks per chunk.
        """
        return self.code.chunk_size_for_block_size(max_block_size, self.blocks_per_chunk)

    def encoded_block_size(self, chunk_size: int) -> int:
        """Size of each encoded block for a chunk of ``chunk_size`` bytes."""
        if chunk_size <= 0:
            return 0
        return -(-chunk_size // self.blocks_per_chunk)

    def encoded_block_count(self) -> int:
        """Number of encoded blocks produced per chunk."""
        return self._spec.output_blocks

    # -- real-bytes mode ---------------------------------------------------------
    def encode(self, data: bytes) -> EncodedChunk:
        """Encode one chunk's payload."""
        return self.code.encode(data, self.blocks_per_chunk)

    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        """Decode one chunk from the available encoded blocks."""
        return self.code.decode(chunk, available)

    # -- measurement ---------------------------------------------------------------
    def measure(
        self, data: bytes, decode_subset: Optional[int] = None, cold: bool = False
    ) -> CodingMeasurement:
        """Encode then decode ``data``, recording wall-clock time and sizes.

        ``decode_subset`` limits how many encoded blocks the decoder sees
        (defaults to all of them); pass a smaller count to exercise the
        loss-recovery path.  ``cold=True`` drops the cached code-structure
        layer first, so the measurement includes graph derivation and decode
        program compilation rather than the steady-state hot path.
        """
        if cold:
            clear_coding_caches()
        start = time.perf_counter()
        encoded = self.encode(data)
        encode_seconds = time.perf_counter() - start

        minimum = self.code.minimum_blocks(self.blocks_per_chunk)
        count = decode_subset if decode_subset is not None else len(encoded.blocks)
        count = max(minimum, min(count, len(encoded.blocks)))
        available = {block.index: block.data for block in encoded.blocks[:count]}

        start = time.perf_counter()
        restored = self.decode(encoded, available)
        decode_seconds = time.perf_counter() - start
        if restored != data:
            raise AssertionError(f"{self.code.name} round trip failed during measurement")

        return CodingMeasurement(
            code_name=self.code.name,
            chunk_size=len(data),
            encoded_size=encoded.encoded_size,
            encode_seconds=encode_seconds,
            decode_seconds=decode_seconds,
        )
