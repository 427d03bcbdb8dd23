"""Chunk-size negotiation (Section 4.3 of the paper).

The chunker turns a file size into a sequence of chunk plans by repeatedly
probing the nodes that would hold the next chunk's encoded blocks and sizing
the chunk to the smallest offer.  Zero offers produce zero-sized chunks; the
store fails once the configured number of *consecutive* zero-sized chunks is
exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.capacity import CapacityProbe, ProbeResult
from repro.core.policies import StoragePolicy
from repro.erasure.chunk_codec import ChunkCodec


class StoreAborted(RuntimeError):
    """Raised internally when the consecutive-zero-chunk limit is exceeded."""

    def __init__(self, message: str, planned: List["ChunkPlan"]) -> None:
        super().__init__(message)
        self.planned = planned


@dataclass(frozen=True)
class ChunkPlan:
    """The negotiated plan for one chunk: its size and the probe that sized it."""

    chunk_no: int
    start: int
    size: int
    probe: ProbeResult

    @property
    def end(self) -> int:
        """End offset (exclusive) of the chunk within the file."""
        return self.start + self.size

    @property
    def is_zero(self) -> bool:
        """Whether the negotiation yielded a zero-sized (placeholder) chunk."""
        return self.size == 0


class Chunker:
    """Plans the chunks of a file against the current state of the DHT."""

    def __init__(self, probe: CapacityProbe, codec: ChunkCodec, policy: StoragePolicy) -> None:
        self.probe = probe
        self.codec = codec
        self.policy = policy

    def size_chunk(self, probe: ProbeResult, remaining: int) -> int:
        """Chunk size implied by a probe result and the remaining file bytes."""
        block_size = probe.usable_block_size
        if self.policy.min_chunk_size is not None:
            # Treat offers too small to matter as no offer at all.
            if self.codec.max_chunk_size(block_size) < self.policy.min_chunk_size:
                return 0
        chunk_capacity = self.codec.max_chunk_size(block_size)
        if self.policy.max_chunk_size is not None:
            chunk_capacity = min(chunk_capacity, self.policy.max_chunk_size)
        return min(remaining, chunk_capacity)

    def plan_file(self, filename: str, file_size: int) -> List[ChunkPlan]:
        """Plan every chunk of ``filename``; raises :class:`StoreAborted` on failure.

        The returned plans include zero-sized chunks (they occupy a chunk
        number and a CAT row, as in Figure 3 of the paper, where chunk #5 is
        empty).
        """
        if file_size < 0:
            raise ValueError("file_size must be non-negative")
        plans: List[ChunkPlan] = []
        remaining = file_size
        offset = 0
        chunk_no = 1
        consecutive_zero = 0
        encoded_blocks = self.codec.encoded_block_count()
        while remaining > 0:
            probe = self.probe.probe_chunk(filename, chunk_no, encoded_blocks)
            chunk_size = self.size_chunk(probe, remaining)
            plans.append(ChunkPlan(chunk_no=chunk_no, start=offset, size=chunk_size, probe=probe))
            if chunk_size == 0:
                consecutive_zero += 1
                if consecutive_zero > self.policy.max_consecutive_zero_chunks:
                    raise StoreAborted(
                        f"store of {filename!r} aborted: {consecutive_zero} consecutive "
                        f"zero-sized chunks (limit {self.policy.max_consecutive_zero_chunks})",
                        planned=plans,
                    )
            else:
                consecutive_zero = 0
                offset += chunk_size
                remaining -= chunk_size
            chunk_no += 1
        return plans
