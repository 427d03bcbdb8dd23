"""The shared identifier space of nodes and keys.

Pastry assigns every node a 128-bit id and every object a key in the same
space; PAST and the paper's system both derive keys by hashing names with
SHA-1 (160 bits).  We use a 160-bit space throughout so that ``SHA-1(name)``
is directly a key, as in the paper (Section 4.1: "a unique identifier (UID)
for the chunk is first calculated by performing SHA-1 hash on the chunk
name").

Identifiers are plain Python integers in ``[0, 2**160)`` wrapped in a tiny
value type for readability; all arithmetic is modular ("ring") arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

#: Number of bits in the identifier space (SHA-1 output size).
ID_BITS: int = 160

#: Size of the identifier space.
ID_SPACE: int = 1 << ID_BITS

#: Digits per identifier when interpreted in base ``2**BITS_PER_DIGIT``
#: (Pastry's configuration parameter ``b``; b=4 gives hexadecimal digits).
BITS_PER_DIGIT: int = 4
DIGITS: int = ID_BITS // BITS_PER_DIGIT


@dataclass(frozen=True, order=True)
class NodeId:
    """An identifier on the ring (used for both node ids and object keys)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < ID_SPACE:
            raise ValueError(f"identifier out of range: {self.value!r}")

    def __int__(self) -> int:
        return self.value

    def hex(self) -> str:
        """Fixed-width hexadecimal rendering (40 hex digits)."""
        return f"{self.value:0{DIGITS}x}"

    def digit(self, position: int) -> int:
        """The ``position``-th most significant base-16 digit (Pastry b=4)."""
        if not 0 <= position < DIGITS:
            raise ValueError(f"digit position out of range: {position}")
        shift = (DIGITS - 1 - position) * BITS_PER_DIGIT
        return (self.value >> shift) & ((1 << BITS_PER_DIGIT) - 1)

    def shared_prefix_length(self, other: "NodeId") -> int:
        """Number of leading base-16 digits shared with ``other``."""
        for position in range(DIGITS):
            if self.digit(position) != other.digit(position):
                return position
        return DIGITS

    def __repr__(self) -> str:
        return f"NodeId(0x{self.hex()[:10]}…)"


IdLike = Union[NodeId, int]


def _as_int(identifier: IdLike) -> int:
    return int(identifier) % ID_SPACE


def node_id_from_int(value: int) -> NodeId:
    """Wrap an integer (reduced modulo the ring size) as a :class:`NodeId`."""
    return NodeId(value % ID_SPACE)


def key_for(name: Union[str, bytes]) -> NodeId:
    """SHA-1 hash of a name, as an identifier (the paper's UID construction)."""
    data = name.encode("utf-8") if isinstance(name, str) else bytes(name)
    digest = hashlib.sha1(data).digest()
    return NodeId(int.from_bytes(digest, "big"))


def random_node_id(rng: np.random.Generator) -> NodeId:
    """A uniformly random identifier (Pastry's random nodeId assignment)."""
    # Draw 160 bits as 20 bytes for exact uniformity over the ring.
    raw = rng.bytes(ID_BITS // 8)
    return NodeId(int.from_bytes(raw, "big"))


def distance(a: IdLike, b: IdLike) -> int:
    """Minimal ring distance between two identifiers."""
    delta = (_as_int(a) - _as_int(b)) % ID_SPACE
    return min(delta, ID_SPACE - delta)


def clockwise_distance(a: IdLike, b: IdLike) -> int:
    """Distance travelling clockwise (increasing ids) from ``a`` to ``b``."""
    return (_as_int(b) - _as_int(a)) % ID_SPACE


def ring_between(low: IdLike, target: IdLike, high: IdLike) -> bool:
    """Whether ``target`` lies in the clockwise arc ``(low, high]``."""
    low_int, target_int, high_int = _as_int(low), _as_int(target), _as_int(high)
    if low_int == high_int:
        return True
    return clockwise_distance(low_int, target_int) <= clockwise_distance(low_int, high_int) and target_int != low_int


def numerically_closest(target: IdLike, candidates: Iterable[IdLike]) -> int:
    """The candidate id numerically closest to ``target`` on the ring.

    Ties are broken towards the clockwise (higher-id) side, matching the
    deterministic tie-break used by :class:`repro.overlay.dht.DHTView`.
    """
    target_int = _as_int(target)
    best: int | None = None
    best_key: tuple[int, int] | None = None
    for candidate in candidates:
        candidate_int = _as_int(candidate)
        key = (distance(candidate_int, target_int), clockwise_distance(target_int, candidate_int))
        if best_key is None or key < best_key:
            best, best_key = candidate_int, key
    if best is None:
        raise ValueError("no candidates supplied")
    return best
