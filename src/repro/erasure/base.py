"""Common interfaces and helpers for erasure codes."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


class DecodingError(RuntimeError):
    """Raised when the available encoded blocks are insufficient or malformed."""


@dataclass(frozen=True)
class EncodedBlock:
    """One encoded block: its index within the chunk encoding and its payload."""

    index: int
    data: bytes

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.data)


@dataclass(frozen=True)
class EncodedChunk:
    """The result of encoding a chunk: encoded blocks plus decode metadata."""

    code_name: str
    original_size: int
    block_size: int
    n_blocks: int
    blocks: List[EncodedBlock]
    #: Code-specific metadata needed by the decoder (e.g. online-code seed).
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def encoded_size(self) -> int:
        """Total bytes across encoded blocks."""
        return sum(block.size for block in self.blocks)


@dataclass(frozen=True)
class CodeSpec:
    """Capacity-simulation view of a code: counts only, no payloads.

    ``input_blocks`` original blocks become ``output_blocks`` encoded blocks,
    and the chunk survives the loss of up to ``loss_tolerance`` of them.  The
    ``size_overhead`` is the multiplicative growth of stored bytes.
    """

    name: str
    input_blocks: int
    output_blocks: int
    loss_tolerance: int
    size_overhead: float

    def __post_init__(self) -> None:
        if self.input_blocks < 1 or self.output_blocks < self.input_blocks:
            raise ValueError("invalid code spec block counts")
        if not 0 <= self.loss_tolerance < self.output_blocks:
            raise ValueError("loss tolerance must be in [0, output_blocks)")

    @property
    def rate(self) -> float:
        """The code rate r = n / (n + k) defined in Section 2.2 of the paper."""
        return self.input_blocks / self.output_blocks

    def required_blocks(self) -> int:
        """Minimum surviving encoded blocks for the chunk to remain decodable."""
        return self.output_blocks - self.loss_tolerance


def split_into_matrix(data: bytes, n_blocks: int) -> np.ndarray:
    """Split ``data`` into an ``(n_blocks, block_size)`` uint8 matrix (zero padded).

    The paper's coder "divides the chunk into n equal size blocks"; padding is
    removed at reassembly using the recorded original size.  The 2-D layout is
    what the vectorized kernel (:mod:`repro.erasure.gf2`) operates on: whole
    encode passes become one segmented XOR-reduce over this matrix instead of
    per-block Python loops.  The matrix is for reading: when ``data`` divides
    evenly it is a read-only view of ``data`` itself, not a copy.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    buffer = np.frombuffer(data, dtype=np.uint8)
    block_size = -(-len(buffer) // n_blocks) if len(buffer) else 1
    if len(buffer) != block_size * n_blocks:
        padded = np.zeros(block_size * n_blocks, dtype=np.uint8)
        padded[: len(buffer)] = buffer
        buffer = padded
    return buffer.reshape(n_blocks, block_size)


def split_into_blocks(data: bytes, n_blocks: int) -> List[np.ndarray]:
    """Split ``data`` into ``n_blocks`` equal-size uint8 blocks (zero padded).

    Row views of :func:`split_into_matrix`, kept for call sites that want a
    list of 1-D blocks.
    """
    matrix = split_into_matrix(data, n_blocks)
    return [matrix[i] for i in range(n_blocks)]


def join_blocks(blocks: Sequence[np.ndarray], original_size: int) -> bytes:
    """Concatenate decoded blocks and strip padding back to ``original_size``."""
    if not blocks:
        return b""
    joined = np.concatenate([np.asarray(block, dtype=np.uint8) for block in blocks])
    return joined[:original_size].tobytes()


def require_block_lengths(chunk: EncodedChunk, available: Dict[int, bytes]) -> None:
    """Raise :class:`DecodingError` unless every available block is ``chunk.block_size`` long.

    Every code's ``decode`` starts here: a truncated or over-long block would
    otherwise decode to garbage or trip a bare NumPy shape error somewhere
    inside the code.
    """
    size = chunk.block_size
    if not set(map(len, available.values())) <= {size}:
        index = min(i for i, block in available.items() if len(block) != size)
        raise DecodingError(
            f"encoded block {index} is {len(available[index])} bytes long, "
            f"chunk.block_size is {size}"
        )


class ErasureCode(abc.ABC):
    """Interface implemented by every erasure code in the reproduction."""

    #: Registry/display name ("null", "xor", "online", "reed-solomon").
    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, data: bytes, n_blocks: int) -> EncodedChunk:
        """Encode ``data`` (one chunk) split into ``n_blocks`` original blocks."""

    @abc.abstractmethod
    def decode(self, chunk: EncodedChunk, available: Dict[int, bytes]) -> bytes:
        """Reassemble the chunk from the ``available`` encoded blocks.

        ``available`` maps encoded-block index to payload.  Raises
        :class:`DecodingError` when the available subset is insufficient or a
        block is not ``chunk.block_size`` bytes long.
        """

    @abc.abstractmethod
    def spec(self, n_blocks: int) -> CodeSpec:
        """The counts-only description used by capacity simulations."""

    # -- shared helpers ------------------------------------------------------
    def encoded_block_count(self, n_blocks: int) -> int:
        """Number of encoded blocks produced for ``n_blocks`` original blocks."""
        return self.spec(n_blocks).output_blocks

    def minimum_blocks(self, n_blocks: int) -> int:
        """Minimum encoded blocks required for successful decode."""
        return self.spec(n_blocks).required_blocks()

    def chunk_size_for_block_size(self, block_size: int, n_blocks: int) -> int:
        """Largest chunk representable when every encoded block is ``block_size``.

        Used by the chunk-size negotiation of Section 4.3: "if the maximum
        block size returned is 10 MB, under the (2, 3) XOR code the chunk size
        can be 20 MB".
        """
        if block_size <= 0:
            return 0
        return block_size * n_blocks
