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
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.overlay.ids import NodeId, key_for

#: Separator between the file name and the chunk / block counters.  File names
#: containing the separator are allowed; parsing is done from the right.
SEPARATOR = "_"

#: Suffix of the chunk-allocation-table object for a file.
CAT_SUFFIX = ".CAT"


class ParsedBlockName(NamedTuple):
    """Decomposition of an encoded-block name."""

    filename: str
    chunk_no: int
    ecb: int


class ParsedChunkName(NamedTuple):
    """Decomposition of a chunk name."""

    filename: str
    chunk_no: int


def chunk_name(filename: str, chunk_no: int) -> str:
    """The name of chunk ``chunk_no`` (1-based) of ``filename``."""
    if chunk_no < 1:
        raise ValueError(f"chunk numbers are 1-based, got {chunk_no}")
    return f"{filename}{SEPARATOR}{chunk_no}"


def block_name(filename: str, chunk_no: int, ecb: int) -> str:
    """The name of encoded block ``ecb`` (1-based) of chunk ``chunk_no``."""
    if ecb < 1:
        raise ValueError(f"encoded block numbers are 1-based, got {ecb}")
    return f"{chunk_name(filename, chunk_no)}{SEPARATOR}{ecb}"


def cat_name(filename: str) -> str:
    """The name under which the file's chunk allocation table is stored."""
    return f"{filename}{CAT_SUFFIX}"


def replica_name(base_name: str, replica_no: int) -> str:
    """Name of the ``replica_no``-th additional replica of an object.

    Replica 0 is the primary and uses ``base_name`` itself; additional
    replicas get a distinguishable name so that neighbour placement and the
    DHT mapping cannot collide with the primary.
    """
    if replica_no < 0:
        raise ValueError("replica numbers are non-negative")
    if replica_no == 0:
        return base_name
    return f"{base_name}{SEPARATOR}r{replica_no}"


def parse_chunk_name(name: str) -> Optional[ParsedChunkName]:
    """Parse a chunk name back into (filename, chunk_no); None if not a chunk name."""
    head, _, tail = name.rpartition(SEPARATOR)
    if not head or not tail.isdigit():
        return None
    return ParsedChunkName(filename=head, chunk_no=int(tail))


def parse_block_name(name: str) -> Optional[ParsedBlockName]:
    """Parse an encoded-block name into (filename, chunk_no, ecb); None if malformed."""
    head, _, ecb_text = name.rpartition(SEPARATOR)
    if not head or not ecb_text.isdigit():
        return None
    parsed_chunk = parse_chunk_name(head)
    if parsed_chunk is None:
        return None
    return ParsedBlockName(
        filename=parsed_chunk.filename, chunk_no=parsed_chunk.chunk_no, ecb=int(ecb_text)
    )


def key_for_name(name: str) -> NodeId:
    """The DHT key of a named object (SHA-1 of the name, Section 4.1)."""
    return key_for(name)


# -- batch helpers for the array-backed placement engine -------------------------
def block_names(filename: str, chunk_no: int, count: int) -> List[str]:
    """The names of all ``count`` encoded blocks of one chunk, in ECB order."""
    if chunk_no < 1:
        raise ValueError(f"chunk numbers are 1-based, got {chunk_no}")
    if count < 1:
        raise ValueError("count must be >= 1")
    prefix = f"{filename}{SEPARATOR}{chunk_no}{SEPARATOR}"
    return [f"{prefix}{ecb}" for ecb in range(1, count + 1)]


def key_int_for_name(name: str) -> int:
    """The DHT key of a name as a plain int (hot-path variant of key_for_name)."""
    return int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest(), "big")


def name_digests(names: Sequence[str]) -> np.ndarray:
    """SHA-1 digests of all ``names`` at once, as an ``S20`` array.

    The byte-string encoding orders exactly like the integer keys, so the
    result can be fed straight into the ``searchsorted`` lookup kernels of
    :class:`repro.overlay.node_state.NodeArrayState`.
    """
    sha1 = hashlib.sha1
    buffer = b"".join([sha1(name.encode("utf-8")).digest() for name in names])
    return np.frombuffer(buffer, dtype="S20")
