"""Common interfaces and helpers for erasure codes.

The payload contract every code keeps (stated on :class:`EncodedBlock`):
each payload byte is written once, into the buffer that stores it, and a
block hands that buffer out as a read-only view.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.overlay.node import BlockBytes
from repro.overlay.validation import require_range


class DecodingError(RuntimeError):
    """Raised when the available encoded blocks are insufficient or malformed."""


@dataclass(frozen=True)
class EncodedBlock:
    """One encoded block: its index within the chunk encoding and its payload.

    ``data`` is a read-only bytes-like buffer (:data:`BlockBytes`): ``bytes``
    or a read-only ``memoryview`` of format ``"B"``.  Compare it by content
    (``==`` against ``bytes`` or another view); ``len``, slicing,
    ``b"".join``, ``hashlib`` and ``np.frombuffer`` read it in place.  It is
    not hashable -- a view of a NumPy buffer cannot be hashed -- and neither is
    the block.

    Encoders write each payload byte once, into the buffer that stores it:

    * an original block carried verbatim (the null, XOR and Reed-Solomon
      codes) is a view of the input when the input is immutable ``bytes``
      (of its one zero-padded copy when it does not divide evenly); any other
      input (``bytearray``, ``memoryview``, ...) is copied once first
      (:func:`split_into_matrix`), so mutating it later changes no block;
    * the blocks an encoder computes (check, parity, minted blocks) are row
      views of one NumPy buffer per call (:func:`block_views`), written in
      place by the XOR kernel; nothing is converted to ``bytes`` afterwards.

    A buffer lives until its last view goes.  In payload mode the chunk's
    ``EncodedChunk`` already holds every block, so the resident bytes are the
    same as with one ``bytes`` object per block.
    """

    __hash__ = None  # type: ignore[assignment]

    index: int
    data: BlockBytes

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
        require_range("input_blocks", self.input_blocks, 1)
        require_range("output_blocks", self.output_blocks, self.input_blocks)
        require_range("loss_tolerance", self.loss_tolerance, 0, self.output_blocks)

    def required_blocks(self) -> int:
        """Minimum surviving encoded blocks for the chunk to remain decodable."""
        return self.output_blocks - self.loss_tolerance


def split_into_matrix(data: bytes, n_blocks: int) -> np.ndarray:
    """Split ``data`` into an ``(n_blocks, block_size)`` uint8 matrix (zero padded).

    The paper's coder "divides the chunk into n equal size blocks"; padding is
    removed at reassembly using the recorded original size.  The 2-D layout is
    what the vectorized kernel (:mod:`repro.erasure.gf2`) operates on: whole
    encode passes become one segmented XOR-reduce over this matrix instead of
    per-block Python loops.  The matrix is read-only.  When ``data`` is
    ``bytes`` and divides evenly it is a view of ``data`` itself; any other
    input is copied once (into ``bytes``, or into the zero-padded matrix), so
    the matrix never aliases a buffer the caller can still write.
    """
    require_range("n_blocks", n_blocks, 1)
    if not isinstance(data, bytes):
        data = bytes(data)
    buffer = np.frombuffer(data, dtype=np.uint8)
    block_size = -(-len(buffer) // n_blocks) if len(buffer) else 1
    if len(buffer) != block_size * n_blocks:
        padded = np.zeros(block_size * n_blocks, dtype=np.uint8)
        padded[: len(buffer)] = buffer
        padded.flags.writeable = False
        buffer = padded
    return buffer.reshape(n_blocks, block_size)


def block_views(rows: np.ndarray, block_size: int) -> List[memoryview]:
    """Read-only ``block_size``-byte views of the rows of a C-contiguous 2-D array.

    The one way an encoder hands out payloads (:class:`EncodedBlock`): each
    view starts at its row and aliases ``rows``, which lives as long as any
    view does.  A row may be wider than ``block_size`` (uint64 word padding).
    """
    raw = memoryview(rows).cast("B").toreadonly()
    stride = rows.strides[0]
    return [raw[start : start + block_size] for start in range(0, len(raw), stride)]


def join_blocks(blocks: Sequence[BlockBytes], original_size: int) -> bytes:
    """Concatenate decoded blocks, cut at ``original_size``, in one copy.

    ``blocks`` are equal-sized bytes-like buffers (payloads, row views, uint8
    arrays); each contributes the part of itself below ``original_size`` to one
    ``b"".join``.
    """
    pieces = []
    remaining = original_size
    for block in blocks:
        if remaining <= 0:
            break
        view = memoryview(block)
        pieces.append(view[:remaining])
        remaining -= len(view)
    return b"".join(pieces)


def require_block_lengths(chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> None:
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
    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        """Reassemble the chunk from the ``available`` encoded blocks.

        ``available`` maps encoded-block index to payload.  Raises
        :class:`DecodingError` when the available subset is insufficient or a
        block is not ``chunk.block_size`` bytes long.
        """

    @abc.abstractmethod
    def spec(self, n_blocks: int) -> CodeSpec:
        """The counts-only description used by capacity simulations."""

    # -- shared helpers ------------------------------------------------------
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
