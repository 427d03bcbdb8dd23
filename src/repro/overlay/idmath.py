"""Vectorized 160-bit ring arithmetic over numpy limb arrays.

The overlay identifier space is the 160-bit SHA-1 ring
(:data:`repro.overlay.ids.ID_SPACE`).  Python integers handle single ids
fine, but the array routing engines (:mod:`repro.overlay.engine_pastry`,
:mod:`repro.overlay.engine_chord`) need ring distances, comparisons and
argmins over whole batches at once.  This module represents each id as
three little-endian ``uint64`` limbs (limb 0 = least significant 64 bits,
limb 2 holds the top 32 bits) stored on the last axis of a ``(..., 3)``
array, and implements exact modular arithmetic with explicit carry/borrow
propagation — no floats, no precision loss, bit-identical to the scalar
``int`` math in :mod:`repro.overlay.ids`.

Conventions:

* ``limbs``: ``(..., 3)`` ``uint64`` arrays, little-endian limb order.
* ``digests``: ``(n,)`` ``S20`` byte strings (big-endian SHA-1 digests) or
  ``(n, 20)`` ``uint8`` views of the same.
* ``digits``: ``(n, 40)`` ``uint8`` nibble matrices, most significant digit
  first — the layout :meth:`repro.overlay.ids.NodeId.digit` uses.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.overlay.ids import ID_SPACE

#: Number of 64-bit limbs per 160-bit id.
LIMB_COUNT = 3

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
#: The top limb only carries bits 128..159.
_TOP_MASK = _U64(0xFFFFFFFF)

#: Half the ring (2^159) as limbs — the clockwise/counter-clockwise divide.
HALF_RING_LIMBS = np.array([0, 0, 1 << 31], dtype=np.uint64)


def limbs_from_ints(values: Sequence[int]) -> np.ndarray:
    """Python ints -> ``(n, 3)`` little-endian limb array."""
    out = np.empty((len(values), LIMB_COUNT), dtype=np.uint64)
    for i, value in enumerate(values):
        value %= ID_SPACE
        out[i, 0] = value & _MASK64
        out[i, 1] = (value >> 64) & _MASK64
        out[i, 2] = value >> 128
    return out


def digest_bytes_matrix(digests: np.ndarray) -> np.ndarray:
    """``(n,)`` S20 digests -> ``(n, 20)`` uint8 (no copy when contiguous)."""
    arr = np.ascontiguousarray(digests)
    return arr.view(np.uint8).reshape(len(arr), 20)


def limbs_from_digests(digests: np.ndarray) -> np.ndarray:
    """``(n,)`` S20 (or ``(n, 20)`` uint8) big-endian digests -> limbs."""
    if digests.dtype != np.uint8:
        byte_rows = digest_bytes_matrix(digests)
    else:
        byte_rows = digests
    n = len(byte_rows)
    wide = byte_rows.astype(np.uint64)
    out = np.zeros((n, LIMB_COUNT), dtype=np.uint64)
    for j in range(4):  # bytes 0..3 -> limb 2 (most significant 32 bits)
        out[:, 2] = (out[:, 2] << _U64(8)) | wide[:, j]
    for j in range(4, 12):  # bytes 4..11 -> limb 1
        out[:, 1] = (out[:, 1] << _U64(8)) | wide[:, j]
    for j in range(12, 20):  # bytes 12..19 -> limb 0
        out[:, 0] = (out[:, 0] << _U64(8)) | wide[:, j]
    return out


def digests_from_limbs(limbs: np.ndarray) -> np.ndarray:
    """``(n, 3)`` limbs -> ``(n,)`` S20 big-endian digests."""
    n = len(limbs)
    byte_rows = np.empty((n, 20), dtype=np.uint8)
    for j in range(4):
        byte_rows[:, j] = (limbs[:, 2] >> _U64(8 * (3 - j))).astype(np.uint8)
    for j in range(4, 12):
        byte_rows[:, j] = (limbs[:, 1] >> _U64(8 * (11 - j))).astype(np.uint8)
    for j in range(12, 20):
        byte_rows[:, j] = (limbs[:, 0] >> _U64(8 * (19 - j))).astype(np.uint8)
    return np.ascontiguousarray(byte_rows).view("S20").reshape(n)


def digits_from_digests(digests: np.ndarray) -> np.ndarray:
    """``(n,)`` S20 digests -> ``(n, 40)`` uint8 nibble matrix (MSD first)."""
    byte_rows = digest_bytes_matrix(digests)
    out = np.empty((len(byte_rows), 40), dtype=np.uint8)
    out[:, 0::2] = byte_rows >> 4
    out[:, 1::2] = byte_rows & 0x0F
    return out


def sub_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a - b) mod 2^160`` on limb arrays (broadcasts leading axes)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    d0 = a0 - b0
    borrow0 = (a0 < b0).astype(np.uint64)
    d1 = a1 - b1 - borrow0
    borrow1 = ((a1 < b1) | ((a1 == b1) & borrow0.astype(bool))).astype(np.uint64)
    d2 = (a2 - b2 - borrow1) & _TOP_MASK
    return np.stack([d0, d1, d2], axis=-1)


def add_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a + b) mod 2^160`` on limb arrays (broadcasts leading axes)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    s0 = a0 + b0
    carry0 = s0 < a0
    t1 = a1 + b1
    s1 = t1 + carry0.astype(np.uint64)
    carry1 = ((t1 < a1) | (s1 < t1)).astype(np.uint64)
    s2 = (a2 + b2 + carry1) & _TOP_MASK
    return np.stack([s0, s1, s2], axis=-1)


def lex_lt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a < b`` as 160-bit integers (limb-lexicographic compare)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return (a2 < b2) | ((a2 == b2) & ((a1 < b1) | ((a1 == b1) & (a0 < b0))))


def lex_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a <= b`` as 160-bit integers."""
    return ~lex_lt(b, a)


def is_zero(a: np.ndarray) -> np.ndarray:
    """Elementwise ``a == 0`` over the limb axis."""
    return (a[..., 0] == 0) & (a[..., 1] == 0) & (a[..., 2] == 0)


def cw_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clockwise ring distance from ``a`` to ``b`` (``(b - a) mod 2^160``)."""
    return sub_mod(b, a)


def ring_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal ring distance ``min(|a-b|, 2^160 - |a-b|)`` as limbs."""
    forward = sub_mod(b, a)
    backward = sub_mod(a, b)
    take_forward = lex_lt(forward, backward)
    return np.where(take_forward[..., None], forward, backward)


def _sentinel_for(arr: np.ndarray, largest: bool) -> float:
    if np.issubdtype(arr.dtype, np.floating):
        return np.inf if largest else -np.inf
    info = np.iinfo(arr.dtype)
    return info.max if largest else info.min


def lex_argmin(keys: Sequence[np.ndarray], axis: int = -1,
               valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Argmin along ``axis`` by lexicographic key order, first index on ties.

    ``keys`` is an ordered sequence of same-shape arrays (mixed dtypes are
    fine); ``valid`` masks out candidates.  Rows with no valid candidate
    return index 0 — callers must guarantee at least one valid entry.
    """
    mask = np.ones(np.broadcast_shapes(*(k.shape for k in keys)), dtype=bool)
    if valid is not None:
        mask &= valid
    for key in keys:
        key = np.broadcast_to(key, mask.shape)
        masked = np.where(mask, key, _sentinel_for(key, largest=True))
        best = masked.min(axis=axis, keepdims=True)
        mask &= masked == best
    return np.argmax(mask, axis=axis)


def lex_argmax(keys: Sequence[np.ndarray], axis: int = -1,
               valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Argmax along ``axis`` by lexicographic key order, first index on ties."""
    mask = np.ones(np.broadcast_shapes(*(k.shape for k in keys)), dtype=bool)
    if valid is not None:
        mask &= valid
    for key in keys:
        key = np.broadcast_to(key, mask.shape)
        masked = np.where(mask, key, _sentinel_for(key, largest=False))
        best = masked.max(axis=axis, keepdims=True)
        mask &= masked == best
    return np.argmax(mask, axis=axis)
