"""Chunk and encoded-block naming convention.

Section 4.2 of the paper: "Each chunk is named as ``filename_ChunkNo`` [...]
The encoded blocks for the chunk X are named ``filename_X_ECB``, where ECB is
the error coded block number and ranges from 1 to m."  The convention lets the
system derive every name it needs from the file name alone (no chunk-to-file
mapping tables), at the cost of making renames expensive -- which the paper
argues is acceptable for the targeted content-named large files.

Chunk numbers and ECB numbers are 1-based, matching the paper's examples.
The CAT file for a file is named ``filename.CAT``.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np

from repro.overlay.validation import require_range

#: Separator between the file name and the chunk / block counters.  File names
#: containing the separator are allowed.
SEPARATOR = "_"

#: Suffix of the chunk-allocation-table object for a file.
CAT_SUFFIX = ".CAT"

#: Marker before the retry number of a salted CAT name (``filename.CAT~salt2``).
CAT_SALT = "~salt"

#: Marker before the retry number of a salted PAST / CFS name (``movie#salt1``).
SALT = "#salt"


def chunk_name(filename: str, chunk_no: int) -> str:
    """The name of chunk ``chunk_no`` (1-based) of ``filename``."""
    require_range("chunk_no", chunk_no, 1)
    return f"{filename}{SEPARATOR}{chunk_no}"


def block_name(filename: str, chunk_no: int, ecb: int) -> str:
    """The name of encoded block ``ecb`` (1-based) of chunk ``chunk_no``."""
    require_range("chunk_no", chunk_no, 1)
    require_range("ecb", ecb, 1)
    return ecb_name(filename, chunk_no, ecb)


def ecb_name(filename: str, chunk_no: int, ecb: int) -> str:
    """:func:`block_name` of numbers already checked (the ledger derives names with it)."""
    return f"{filename}{SEPARATOR}{chunk_no}{SEPARATOR}{ecb}"


def stripe_name(filename: str, index: int) -> str:
    """The name of fixed block ``index`` (0-based) of a CFS-striped file."""
    return f"{filename}/block{index}"


def stripe_names(filename: str, count: int) -> List[str]:
    """:func:`stripe_name` of blocks ``0 .. count - 1``, in block order."""
    return [stripe_name(filename, index) for index in range(count)]


def cat_name(filename: str, attempt: int = 0) -> str:
    """The name under which the file's chunk allocation table is stored.

    Retry ``attempt`` > 0 salts the name, re-hashing it away from a full node.
    """
    name = f"{filename}{CAT_SUFFIX}"
    return f"{name}{CAT_SALT}{attempt}" if attempt else name


def salted_name(name: str, attempt: int) -> str:
    """``name`` re-hashed for placement retry ``attempt`` (PAST and CFS); ``name`` itself at 0."""
    return f"{name}{SALT}{attempt}" if attempt else name


def salt_attempt(name: str) -> int:
    """The retry attempt of a :func:`salted_name` (which must carry a salt)."""
    return int(name.rpartition(SALT)[2])


def cat_file(name: str) -> str:
    """The file whose chunk allocation table is stored under ``name`` (salted or not)."""
    base, salt, attempt = name.rpartition(CAT_SALT)
    if salt and attempt.isdigit() and base.endswith(CAT_SUFFIX):
        name = base
    return name[: -len(CAT_SUFFIX)]


# -- batch helpers for the array-backed placement engine -------------------------
def block_names(filename: str, chunk_no: int, count: int) -> List[str]:
    """The names of all ``count`` encoded blocks of one chunk, in ECB order."""
    require_range("chunk_no", chunk_no, 1)
    require_range("count", count, 1)
    prefix = f"{filename}{SEPARATOR}{chunk_no}{SEPARATOR}"
    return [f"{prefix}{ecb}" for ecb in range(1, count + 1)]


def name_digests(names: Sequence[str]) -> np.ndarray:
    """SHA-1 digests of all ``names`` at once, as an ``S20`` array.

    The byte-string encoding orders exactly like the integer keys, so the
    result can be fed straight into the ``searchsorted`` lookup kernels of
    :class:`repro.overlay.node_state.NodeArrayState`.
    """
    sha1 = hashlib.sha1
    buffer = b"".join([sha1(name.encode("utf-8")).digest() for name in names])
    return np.frombuffer(buffer, dtype="S20")
