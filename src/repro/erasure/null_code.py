"""The NULL code: a plain copy, used as the no-redundancy baseline in Table 2."""

from __future__ import annotations

from typing import Dict

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


class NullCode(ErasureCode):
    """Splits the chunk into blocks and stores them unmodified.

    Every block is required for decoding, so the code tolerates zero losses.
    It exists to give the coding-performance experiment its baseline and to
    model the "no error code" configuration of the availability experiment.
    Its blocks are views of the (split) input: it copies nothing.
    """

    name = "null"

    def encode(self, data: bytes, n_blocks: int) -> EncodedChunk:
        originals = split_into_matrix(data, n_blocks)
        block_size = originals.shape[1]
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=block_size,
            n_blocks=n_blocks,
            blocks=[EncodedBlock(index=i, data=view)
                    for i, view in enumerate(block_views(originals, block_size))],
        )

    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        require_block_lengths(chunk, available)
        missing = [index for index in range(chunk.n_blocks) if index not in available]
        if missing:
            raise DecodingError(f"null code cannot tolerate losses; missing blocks {missing}")
        return join_blocks([available[index] for index in range(chunk.n_blocks)],
                           chunk.original_size)

    def spec(self, n_blocks: int) -> CodeSpec:
        return CodeSpec(
            name=self.name,
            input_blocks=n_blocks,
            output_blocks=n_blocks,
            loss_tolerance=0,
            size_overhead=0.0,
        )
