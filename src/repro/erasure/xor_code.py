"""(n, n+1) XOR parity code — the RAID-5-style code evaluated by the paper.

The paper uses the simplest erasure code, parity check, configured as a
``(2, 3)`` code: every two input blocks yield three encoded blocks (the two
inputs plus their XOR), a 50 % space overhead, and tolerance of one lost block
per parity group.  The implementation is generalised to any group size ``n``.

All parities are computed in one vectorized pass over the block matrix, read
in place (as uint64 words when the block size allows) and XORed straight into
one parity buffer.  The original blocks are views of the input, the parity
blocks views of that buffer (:class:`~repro.erasure.base.EncodedBlock`).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

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


class XorParityCode(ErasureCode):
    """Parity-check erasure code: groups of ``group_size`` blocks + one XOR parity."""

    name = "xor"

    def __init__(self, group_size: int = 2) -> None:
        self.group_size = require_range("group_size", group_size, 1)

    # -- encode ---------------------------------------------------------------
    def encode(self, data: bytes, n_blocks: int) -> EncodedChunk:
        originals = split_into_matrix(data, n_blocks)
        block_size = originals.shape[1]
        group_size = self.group_size
        full_groups, remainder = divmod(n_blocks, group_size)

        # All group parities XOR-reduced straight into one parity buffer, read
        # from the originals in place (as uint64 words when the rows allow).
        rows = originals.view(np.uint64) if block_size % 8 == 0 else originals
        width = rows.shape[1]
        parity = np.empty((full_groups + bool(remainder), width), dtype=rows.dtype)
        np.bitwise_xor.reduce(
            rows[: full_groups * group_size].reshape(full_groups, group_size, width),
            axis=1,
            out=parity[:full_groups],
        )
        if remainder:
            np.bitwise_xor.reduce(rows[full_groups * group_size :], axis=0, out=parity[-1])

        original_views = block_views(originals, block_size)
        parity_views = block_views(parity, block_size)
        encoded: List[EncodedBlock] = []
        for group, parity_view in enumerate(parity_views):
            for original in original_views[group * group_size : (group + 1) * group_size]:
                encoded.append(EncodedBlock(index=len(encoded), data=original))
            encoded.append(EncodedBlock(index=len(encoded), data=parity_view))
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=block_size,
            n_blocks=n_blocks,
            blocks=encoded,
            metadata={"group_size": self.group_size},
        )

    # -- decode ---------------------------------------------------------------
    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        require_block_lengths(chunk, available)
        group_size = int(chunk.metadata.get("group_size", self.group_size))
        originals: List[BlockBytes] = []
        encoded_index = 0
        for group_start in range(0, chunk.n_blocks, group_size):
            group_len = min(group_size, chunk.n_blocks - group_start)
            data_indices = list(range(encoded_index, encoded_index + group_len))
            parity_index = encoded_index + group_len
            encoded_index = parity_index + 1
            missing = [i for i in data_indices if i not in available]
            if len(missing) > 1 or (missing and parity_index not in available):
                raise DecodingError(
                    f"xor group starting at encoded block {data_indices[0]} lost "
                    f"{len(missing)} data blocks (parity "
                    f"{'present' if parity_index in available else 'missing'})"
                )
            if missing:
                # Reconstruct the lost block as one stacked XOR-reduce of the
                # surviving group members and the parity.
                survivors = [i for i in data_indices if i in available] + [parity_index]
                stack = np.stack([np.frombuffer(available[i], dtype=np.uint8) for i in survivors])
                lost = np.bitwise_xor.reduce(stack, axis=0)
                originals.extend(lost if i in missing else available[i] for i in data_indices)
            else:
                originals.extend(available[i] for i in data_indices)
        return join_blocks(originals, chunk.original_size)

    # -- metadata ---------------------------------------------------------------
    def spec(self, n_blocks: int) -> CodeSpec:
        full_groups, remainder = divmod(n_blocks, self.group_size)
        groups = full_groups + (1 if remainder else 0)
        output = n_blocks + groups
        # A chunk survives one loss per group; the guaranteed tolerance against
        # arbitrary losses is therefore a single block (the worst case places
        # two losses in the same group).
        overhead = (output / n_blocks - 1.0) if n_blocks else 0.0
        return CodeSpec(
            name=self.name,
            input_blocks=n_blocks,
            output_blocks=output,
            loss_tolerance=1 if n_blocks >= 1 else 0,
            size_overhead=overhead,
        )

    def chunk_size_for_block_size(self, block_size: int, n_blocks: int) -> int:
        # Unchanged from the base implementation but kept explicit because the
        # paper uses exactly this relation to size chunks under the (2,3) code.
        return super().chunk_size_for_block_size(block_size, n_blocks)
