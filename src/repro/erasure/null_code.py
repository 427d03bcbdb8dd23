"""The NULL code: a plain copy, used as the no-redundancy baseline in Table 2."""

from __future__ import annotations

from typing import Dict

from repro.erasure.base import (
    CodeSpec,
    DecodingError,
    EncodedBlock,
    EncodedChunk,
    ErasureCode,
    join_blocks,
    require_block_lengths,
    split_into_blocks,
)


class NullCode(ErasureCode):
    """Splits the chunk into blocks and stores them unmodified.

    Every block is required for decoding, so the code tolerates zero losses.
    It exists to give the coding-performance experiment its baseline and to
    model the "no error code" configuration of the availability experiment.
    """

    name = "null"

    def encode(self, data: bytes, n_blocks: int) -> EncodedChunk:
        blocks = split_into_blocks(data, n_blocks)
        encoded = [EncodedBlock(index=i, data=block.tobytes()) for i, block in enumerate(blocks)]
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=len(blocks[0]) if blocks else 0,
            n_blocks=n_blocks,
            blocks=encoded,
        )

    def decode(self, chunk: EncodedChunk, available: Dict[int, bytes]) -> bytes:
        require_block_lengths(chunk, available)
        missing = [index for index in range(chunk.n_blocks) if index not in available]
        if missing:
            raise DecodingError(f"null code cannot tolerate losses; missing blocks {missing}")
        ordered = [available[index] for index in range(chunk.n_blocks)]
        return join_blocks([memoryview_to_array(block) for block in ordered], chunk.original_size)

    def spec(self, n_blocks: int) -> CodeSpec:
        return CodeSpec(
            name=self.name,
            input_blocks=n_blocks,
            output_blocks=n_blocks,
            loss_tolerance=0,
            size_overhead=0.0,
        )


def memoryview_to_array(block: bytes):
    """Return the block as a uint8 NumPy array (cheap view when possible)."""
    import numpy as np

    return np.frombuffer(block, dtype=np.uint8)
