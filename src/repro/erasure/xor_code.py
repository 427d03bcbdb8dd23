"""(n, n+1) XOR parity code — the RAID-5-style code evaluated by the paper.

The paper uses the simplest erasure code, parity check, configured as a
``(2, 3)`` code: every two input blocks yield three encoded blocks (the two
inputs plus their XOR), a 50 % space overhead, and tolerance of one lost block
per parity group.  The implementation is generalised to any group size ``n``.

All parities are computed in one vectorized pass over the stacked block
matrix (packed as uint64 words by the :mod:`repro.erasure.gf2` kernel) rather
than block-by-block.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.erasure import gf2
from repro.erasure.base import (
    CodeSpec,
    DecodingError,
    EncodedBlock,
    EncodedChunk,
    ErasureCode,
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
        groups = -(-n_blocks // group_size)

        # All group parities in one batched XOR-reduce over the padded stack.
        words = gf2.pack_matrix(originals)
        padded = np.zeros((groups * group_size, words.shape[1]), dtype=np.uint64)
        padded[:n_blocks] = words
        parity_words = np.bitwise_xor.reduce(
            padded.reshape(groups, group_size, -1), axis=1
        )
        parity_bytes = gf2.unpack_matrix(parity_words, block_size)

        encoded: List[EncodedBlock] = []
        index = 0
        for group in range(groups):
            group_start = group * group_size
            for original in range(group_start, min(group_start + group_size, n_blocks)):
                encoded.append(EncodedBlock(index=index, data=originals[original].tobytes()))
                index += 1
            encoded.append(EncodedBlock(index=index, data=parity_bytes[group].tobytes()))
            index += 1
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=block_size,
            n_blocks=n_blocks,
            blocks=encoded,
            metadata={"group_size": self.group_size},
        )

    # -- decode ---------------------------------------------------------------
    def decode(self, chunk: EncodedChunk, available: Dict[int, bytes]) -> bytes:
        require_block_lengths(chunk, available)
        group_size = int(chunk.metadata.get("group_size", self.group_size))
        originals: List[np.ndarray] = []
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
            group_blocks: List[np.ndarray] = [
                np.frombuffer(available[i], dtype=np.uint8) if i in available else None  # type: ignore[misc]
                for i in data_indices
            ]
            if missing:
                # Reconstruct the lost block as one stacked XOR-reduce of the
                # surviving group members and the parity.
                present = [block for block in group_blocks if block is not None]
                parity = np.frombuffer(available[parity_index], dtype=np.uint8)
                stack = np.stack(present + [parity]) if present else parity[None, :]
                group_blocks[data_indices.index(missing[0])] = np.bitwise_xor.reduce(
                    stack, axis=0
                )
            originals.extend(group_blocks)  # type: ignore[arg-type]
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
