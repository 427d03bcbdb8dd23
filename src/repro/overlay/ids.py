"""The shared identifier space of nodes and keys.

Pastry assigns every node a 128-bit id and every object a key in the same
space; PAST and the paper's system both derive keys by hashing names with
SHA-1 (160 bits).  We use a 160-bit space throughout so that ``SHA-1(name)``
is directly a key, as in the paper (Section 4.1: "a unique identifier (UID)
for the chunk is first calculated by performing SHA-1 hash on the chunk
name").

An identifier is a plain Python ``int`` in ``[0, 2**160)`` everywhere, from
the overlay to the experiments; all arithmetic is modular ("ring")
arithmetic.  Every id is in range by construction (a SHA-1 digest, 20 random
bytes, a value reduced ``% ID_SPACE``) except one a caller hands in, and that
one enters through :meth:`repro.overlay.network.OverlayNetwork.join`, which
checks it.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple, Union

import numpy as np

from repro.overlay.validation import require_range

#: Number of bits in the identifier space (SHA-1 output size).
ID_BITS: int = 160

#: Size of the identifier space.
ID_SPACE: int = 1 << ID_BITS

#: Digits per identifier when interpreted in base ``2**BITS_PER_DIGIT``
#: (Pastry's configuration parameter ``b``; b=4 gives hexadecimal digits).
BITS_PER_DIGIT: int = 4
DIGITS: int = ID_BITS // BITS_PER_DIGIT


def digit(value: int, position: int) -> int:
    """The ``position``-th most significant base-16 digit of ``value`` (Pastry b=4)."""
    require_range("position", position, 0, DIGITS)
    shift = (DIGITS - 1 - position) * BITS_PER_DIGIT
    return (value >> shift) & ((1 << BITS_PER_DIGIT) - 1)


def shared_prefix_length(a: int, b: int) -> int:
    """Number of leading base-16 digits ``a`` and ``b`` share."""
    for position in range(DIGITS):
        if digit(a, position) != digit(b, position):
            return position
    return DIGITS


def key_for(name: Union[str, bytes]) -> int:
    """SHA-1 hash of a name, as an identifier (the paper's UID construction)."""
    data = name.encode("utf-8") if isinstance(name, str) else bytes(name)
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


#: Bytes per identifier: 160 bits drawn as 20 bytes, exactly uniform on the ring.
ID_BYTES: int = ID_BITS // 8

#: Every node's coordinates lie in a square of this side.
COORDINATE_SPAN: float = 1000.0

#: Bit generators :func:`random_population` reproduces.  Each answers
#: ``next_uint32`` with the low half of one 64-bit draw and keeps the high half
#: for the next call (``has_uint32`` / ``uinteger`` in its state), and
#: ``next_double`` with ``(next_uint64 >> 11) * 2**-53``.  MT19937 draws 32
#: bits natively and is not one of them.
SPLIT_WORD_GENERATORS: Tuple[str, ...] = ("PCG64", "PCG64DXSM", "Philox", "SFC64")


def _ids_from_bytes(raw: bytes) -> List[int]:
    """One identifier per consecutive 20 bytes, read big-endian."""
    return [int.from_bytes(raw[start:start + ID_BYTES], "big")
            for start in range(0, len(raw), ID_BYTES)]


def random_node_id(rng: np.random.Generator) -> int:
    """A uniformly random identifier (Pastry's random nodeId assignment)."""
    # Draw 160 bits as 20 bytes for exact uniformity over the ring.
    return int.from_bytes(rng.bytes(ID_BYTES), "big")


def random_population(rng: np.random.Generator, count: int) -> Tuple[List[int], np.ndarray]:
    """``count`` nodes' identifiers and ``(count, 2)`` coordinates in one array pass.

    Node ``i`` gets what ``random_node_id(rng)`` and then two
    ``rng.uniform(0, COORDINATE_SPAN)`` calls would give it, and the generator
    ends in the state those ``3 * count`` calls leave.  ``bytes(20)`` reads
    five words from the generator's 32-bit stream: the half-word carried in,
    if any, then the low and high halves of fresh 64-bit draws, the last high
    half left carried when the id needs only its low half.  So an id takes
    three draws or, with a half carried in, two, and the carry alternates
    from node to node.  A coordinate is one draw, ``span * ((draw >> 11) *
    2**-53)``, and does not touch the carry.  Every draw is taken at once
    with ``random_raw``; the coordinate draws are picked out by position, and
    the rest, split into halves behind the carried one, are the id words.

    Raises :class:`TypeError` for anything but a ``Generator`` over one of
    :data:`SPLIT_WORD_GENERATORS` (a legacy ``RandomState`` included), before
    it draws.
    """
    require_range("count", count, 1)
    bit_generator = getattr(rng, "bit_generator", None)
    name = type(bit_generator).__name__ if bit_generator is not None else type(rng).__name__
    if name not in SPLIT_WORD_GENERATORS:
        raise TypeError(f"random_population reproduces {', '.join(SPLIT_WORD_GENERATORS)} "
                        f"streams, not {name}")
    id_bytes, coordinates = _draw_population(bit_generator, count)
    return _ids_from_bytes(id_bytes), coordinates


def _draw_population(bit_generator: np.random.BitGenerator, count: int) -> Tuple[bytes, np.ndarray]:
    """The ids' bytes, concatenated, and the coordinates of :func:`random_population`.

    Its own function so that every array it works in is freed before the
    identifiers are built.
    """
    state = bit_generator.state
    carry = state["has_uint32"]
    carried = (np.arange(count) + carry) & 1
    draws = 5 - carried  # 3 - carried for the id, then 2 for the coordinates
    coordinate_at = (np.cumsum(draws) - 2)[:, None] + np.arange(2)
    raw = bit_generator.random_raw(int(draws.sum()))
    coordinates = raw[coordinate_at]
    coordinates >>= 11
    coordinates = coordinates * 2.0 ** -53
    coordinates *= COORDINATE_SPAN
    is_id = np.ones(raw.size, dtype=bool)
    is_id[coordinate_at] = False
    id_draws = raw[is_id]
    words = np.empty(carry + 2 * id_draws.size, dtype="<u4")
    words[:carry] = state["uinteger"]
    words[carry::2] = id_draws  # the cast keeps the low halves
    id_draws >>= 32
    words[carry + 1::2] = id_draws
    # The last word is carried if the last id left it, and is the state's
    # ``uinteger`` either way.
    state = bit_generator.state
    state["has_uint32"] = words.size - 5 * count
    state["uinteger"] = int(words[-1])
    bit_generator.state = state
    return words[:5 * count].tobytes(), coordinates


def distance(a: int, b: int) -> int:
    """Minimal ring distance between two identifiers."""
    delta = (a - b) % ID_SPACE
    return min(delta, ID_SPACE - delta)


def clockwise_distance(a: int, b: int) -> int:
    """Distance travelling clockwise (increasing ids) from ``a`` to ``b``."""
    return (b - a) % ID_SPACE
