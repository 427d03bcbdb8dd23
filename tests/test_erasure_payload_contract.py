"""The payload contract of :class:`repro.erasure.base.EncodedBlock`.

Every code writes each payload byte once, into the buffer that stores it, and
hands blocks out as read-only views: an original carried verbatim aliases
immutable ``bytes`` input (any other input is copied once), and the blocks a
code computes are row views of one NumPy buffer per call.  A chunk's buffer
lives as long as any of its views, and no longer.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.api import ClusterSession
from repro.erasure.base import EncodedBlock
from repro.erasure.chunk_codec import ChunkCodec, get_code
from repro.erasure.online_code import OnlineCode

CODES = ["online", "xor", "reed-solomon", "null"]
MB = 1 << 20


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


def test_read_only_views_serve_every_stdlib_reader():
    """What callers do with a block, on a read-only view of a writable buffer
    (a ``bytearray`` stands in for the NumPy one): no NumPy involved."""
    buffer = bytearray(range(256)) * 4
    raw = memoryview(buffer).toreadonly()
    rows = [raw[start : start + 100] for start in range(0, len(raw), 128)]
    assert [len(row) for row in rows] == [100] * 8
    assert rows[1] == bytes(range(128, 228)) and bytes(range(128, 228)) == rows[1]
    assert rows[1][10:20] == bytes(range(138, 148))
    assert b"".join(rows[:2]) == bytes(range(100)) + bytes(range(128, 228))
    assert hashlib.sha1(rows[3]).digest() == hashlib.sha1(bytes(rows[3])).digest()
    with pytest.raises(TypeError):
        rows[0][0] = 1
    with pytest.raises(TypeError):  # hashing reads the exporter's hash: a bytearray has none
        hash(rows[0])
    assert hash(memoryview(b"immutable")) == hash(b"immutable")


@pytest.mark.parametrize("size", [16 * 1024, 16 * 1024 + 3])
@pytest.mark.parametrize("name", CODES)
def test_writing_to_a_block_raises_type_error(name, size):
    encoded = get_code(name).encode(payload(size, seed=1), 16)
    for block in encoded.blocks:
        with pytest.raises(TypeError):
            block.data[0] = 0
    assert all(len(block.data) == encoded.block_size for block in encoded.blocks)


@pytest.mark.parametrize("size", [16 * 1024, 16 * 1024 + 3])
@pytest.mark.parametrize("name", CODES)
def test_mutating_a_bytearray_after_encoding_leaves_every_block_unchanged(name, size):
    original = payload(size, seed=2)
    data = bytearray(original)
    code = get_code(name)
    encoded = code.encode(data, 16)
    before = [bytes(block.data) for block in encoded.blocks]
    assert before == [bytes(block.data) for block in code.encode(original, 16).blocks]
    data[:] = bytes(len(data))
    assert [bytes(block.data) for block in encoded.blocks] == before
    assert code.decode(encoded, {block.index: block.data for block in encoded.blocks}) == original


@pytest.mark.parametrize("name", ["xor", "reed-solomon", "null"])
def test_originals_of_bytes_input_are_views_of_it(name):
    data = payload(64 * 1024, seed=3)
    source = np.frombuffer(data, dtype=np.uint8)
    encoded = get_code(name).encode(data, 16)
    aliased = [block for block in encoded.blocks
               if np.shares_memory(np.frombuffer(block.data, np.uint8), source)]
    assert [bytes(block.data) for block in aliased] == [
        data[i * 4096 : (i + 1) * 4096] for i in range(16)]


@pytest.mark.parametrize("name", ["online", "xor", "reed-solomon"])
def test_computed_blocks_are_views_of_one_buffer(name):
    data = payload(64 * 1024, seed=4)
    encoded = get_code(name).encode(data, 16)
    source = np.frombuffer(data, dtype=np.uint8)
    computed = [block.data for block in encoded.blocks
                if not np.shares_memory(np.frombuffer(block.data, np.uint8), source)]
    assert computed
    assert len({id(view.obj) for view in computed}) == 1
    assert all(view.readonly for view in computed)


def test_blocks_compare_by_content_and_are_not_hashable():
    data = payload(64 * 1024, seed=5)
    code = OnlineCode(seed=5)
    first, second = code.encode(data, 16), code.encode(data, 16)
    assert first.blocks == second.blocks
    assert first.blocks[0].data == bytes(first.blocks[0].data)
    with pytest.raises(TypeError):  # a view of a NumPy buffer cannot be hashed
        hash(first.blocks[0].data)
    with pytest.raises(TypeError):
        hash(EncodedBlock(index=0, data=b"bytes alike"))


def test_a_minted_block_is_a_read_only_view_of_its_own_buffer():
    data = payload(64 * 1024, seed=6)
    code = OnlineCode(seed=6)
    encoded = code.encode(data, 16)
    (minted,) = code.generate_additional_blocks(
        encoded, {block.index: block.data for block in encoded.blocks}, 1)
    with pytest.raises(TypeError):
        minted.data[0] = 0
    assert minted.data.obj is not encoded.blocks[0].data.obj
    assert len(minted.data) == encoded.block_size


def test_deleting_a_payload_file_frees_its_encode_buffer():
    session = ClusterSession(40, seed=7, capacities=[64 * MB] * 40)
    client = session.client(codec=ChunkCodec(OnlineCode(seed=7), blocks_per_chunk=16),
                            payload_mode=True)
    data = payload(2 * MB, seed=7)
    assert client.store("scan", data=data).success
    (chunk,) = client.storage.files["scan"].data_chunks()
    buffer = weakref.ref(chunk.encoded.blocks[0].data.obj)
    del chunk
    gc.collect()
    assert buffer() is not None
    assert client.retrieve("scan").data == data
    assert client.delete("scan")
    gc.collect()
    assert buffer() is None
