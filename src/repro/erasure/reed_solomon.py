"""Systematic Reed-Solomon erasure code over GF(256) (extension).

The paper contrasts *optimal* erasure codes (any ``n`` of the ``n + k`` encoded
blocks suffice, epsilon = 0) with the sub-optimal but cheaper online code, and
chooses the latter.  To support the ablation benchmark comparing the two
families, this module implements the optimal code from scratch: a systematic
Reed-Solomon code over GF(2^8) built from a Cauchy-style encoding matrix.

* GF(256) arithmetic uses exp/log tables (primitive polynomial 0x11D) plus a
  shared 256x256 multiplication table, so scalar-times-vector products are a
  single table gather (``_MUL_TABLE[coeff, block]``) with no boolean-mask
  temporaries and no per-call allocation when ``out=`` is supplied.
* Encoding: the ``k`` data blocks are views of the input; the ``m - k``
  parity blocks come from one matrix-form pass over the data-block matrix and
  are views of the one parity buffer it writes.
* Decoding: any ``k`` surviving blocks determine the data.  The generator
  sub-matrix is inverted with vectorized row operations, and only the *erased*
  systematic rows are reconstructed (``e * k`` vector multiplies instead of
  the seed's ``k * k``); surviving systematic blocks go straight into the one
  join of the result.
* Generator matrices are cached per ``(k, parity)`` so repeated encodes and
  repair-path decodes stop rebuilding the Cauchy construction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

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

_PRIMITIVE_POLY = 0x11D


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.int32)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    exp[255:510] = exp[:255]
    return exp, log


_EXP, _LOG = _build_tables()


def _build_mul_table() -> np.ndarray:
    """The full 256x256 GF(256) multiplication table (64 KiB, built once)."""
    table = np.zeros((256, 256), dtype=np.uint8)
    logs = _LOG[1:256]
    table[1:, 1:] = _EXP[logs[:, None] + logs[None, :]]
    return table


_MUL_TABLE = _build_mul_table()
_INV_TABLE = np.zeros(256, dtype=np.uint8)
_INV_TABLE[1:] = _EXP[255 - _LOG[1:256]]


def gf_mul(a: int, b: int) -> int:
    """Multiply two GF(256) scalars."""
    return int(_MUL_TABLE[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_INV_TABLE[a])


def gf_mul_vector(scalar: int, vector: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Multiply a uint8 vector by a GF(256) scalar via one table gather.

    With ``out=`` the product is written in place (the RS hot path reuses one
    scratch buffer instead of allocating ``zeros_like`` temporaries per call).
    """
    row = _MUL_TABLE[scalar]
    if out is None:
        return row[vector]
    np.take(row, vector, out=out)
    return out


def gf_matrix_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix via vectorized Gauss-Jordan elimination.

    Each pivot step normalises the pivot row and clears the pivot column of
    every other row in one table-gather + XOR over the stacked ``[work |
    inverse]`` matrix — no scalar inner loops.
    """
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError("matrix must be square")
    work = np.concatenate(
        [matrix.astype(np.uint8), np.eye(size, dtype=np.uint8)], axis=1
    )
    for column in range(size):
        pivot_candidates = np.nonzero(work[column:, column])[0]
        if pivot_candidates.size == 0:
            raise DecodingError("singular decoding matrix (blocks not independent)")
        pivot = column + int(pivot_candidates[0])
        if pivot != column:
            work[[column, pivot]] = work[[pivot, column]]
        pivot_inv = _INV_TABLE[work[column, column]]
        work[column] = _MUL_TABLE[pivot_inv][work[column]]
        factors = work[:, column].copy()
        factors[column] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            work[rows] ^= _MUL_TABLE[factors[rows, None], work[column][None, :]]
    return work[:, size:].copy()


@lru_cache(maxsize=128)
def _cauchy_parity_rows(k: int, parity_blocks: int) -> np.ndarray:
    """Parity rows of the generator matrix (Cauchy construction), cached."""
    require_range("k + parity_blocks", k + parity_blocks, 0, 255, "[]")  # GF(256) Cauchy rows
    x_values = np.arange(k, dtype=np.int32)
    y_values = np.arange(k, k + parity_blocks, dtype=np.int32) + 1
    rows = _INV_TABLE[(x_values[None, :] ^ y_values[:, None])].astype(np.int32)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=128)
def _full_generator_cached(k: int, parity_blocks: int) -> np.ndarray:
    generator = np.vstack(
        [np.eye(k, dtype=np.int32), _cauchy_parity_rows(k, parity_blocks)]
    )
    generator.setflags(write=False)
    return generator


class ReedSolomonCode(ErasureCode):
    """Systematic (k, k + parity) Reed-Solomon code over GF(256)."""

    name = "reed-solomon"

    def __init__(self, parity_blocks: int = 2) -> None:
        self.parity_blocks = require_range("parity_blocks", parity_blocks, 1)

    def _generator_rows(self, k: int) -> np.ndarray:
        """Parity rows of the generator matrix (Cauchy construction)."""
        return _cauchy_parity_rows(k, self.parity_blocks)

    def _full_generator(self, k: int) -> np.ndarray:
        return _full_generator_cached(k, self.parity_blocks)

    # -- encode -----------------------------------------------------------------
    def encode(self, data: bytes, n_blocks: int) -> EncodedChunk:
        originals = split_into_matrix(data, n_blocks)
        block_size = originals.shape[1]
        parity = _gf_coeff_matmul(self._generator_rows(n_blocks), originals)
        views = block_views(originals, block_size) + block_views(parity, block_size)
        return EncodedChunk(
            code_name=self.name,
            original_size=len(data),
            block_size=block_size,
            n_blocks=n_blocks,
            blocks=[EncodedBlock(index=i, data=view) for i, view in enumerate(views)],
            metadata={"parity_blocks": self.parity_blocks},
        )

    # -- decode -----------------------------------------------------------------
    def decode(self, chunk: EncodedChunk, available: Dict[int, BlockBytes]) -> bytes:
        require_block_lengths(chunk, available)
        k = chunk.n_blocks
        if len(available) < k:
            raise DecodingError(
                f"reed-solomon needs {k} blocks, only {len(available)} available"
            )
        # Fast path: all systematic blocks survive.
        if all(index in available for index in range(k)):
            return join_blocks([available[i] for i in range(k)], chunk.original_size)

        generator = self._full_generator(k)
        chosen = sorted(available)[:k]
        sub_matrix = generator[chosen, :]
        inverse = gf_matrix_inverse(sub_matrix)

        received = np.empty((k, chunk.block_size), dtype=np.uint8)
        for row, index in enumerate(chosen):
            received[row] = np.frombuffer(available[index], dtype=np.uint8)

        # Only the erased systematic rows need the matrix product; surviving
        # systematic blocks pass through verbatim.
        erased = [row for row in range(k) if row not in available]
        reconstructed = dict(zip(erased, _gf_coeff_matmul(inverse[erased], received)))
        return join_blocks(
            [reconstructed[row] if row in reconstructed else available[row] for row in range(k)],
            chunk.original_size,
        )

    # -- metadata -----------------------------------------------------------------
    def spec(self, n_blocks: int) -> CodeSpec:
        output = n_blocks + self.parity_blocks
        return CodeSpec(
            name=self.name,
            input_blocks=n_blocks,
            output_blocks=output,
            loss_tolerance=self.parity_blocks,
            size_overhead=self.parity_blocks / n_blocks if n_blocks else 0.0,
        )


def _gf_coeff_matmul(coefficients: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``out[i] = XOR_j coefficients[i, j] * blocks[j]`` over GF(256).

    One table gather per (row, input-block) pair with a reused scratch
    buffer — the structure the 256x256 multiplication table exists for.
    """
    m, k = coefficients.shape
    width = blocks.shape[1]
    out = np.zeros((m, width), dtype=np.uint8)
    if width == 0:
        return out
    scratch = np.empty(width, dtype=np.uint8)
    for i in range(m):
        row = coefficients[i]
        for j in range(k):
            coefficient = int(row[j])
            if coefficient == 0:
                continue
            elif coefficient == 1:
                out[i] ^= blocks[j]
            else:
                gf_mul_vector(coefficient, blocks[j], out=scratch)
                out[i] ^= scratch
    return out
