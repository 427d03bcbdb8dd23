"""Chunk-size negotiation (Section 4.3 of the paper) through ``StorageSystem.store_file``.

Each chunk is sized to the smallest ``getCapacity`` offer of the nodes that
would hold its encoded blocks; zero offers give zero-sized chunks, and the
store fails once the policy's limit of consecutive zero-sized chunks is
exceeded.  Chunk sizes are read back from the stored file's chunk list.
"""

from __future__ import annotations

import pytest

from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode

MB = 1 << 20


def make_storage(dht, codec=None, policy=None) -> StorageSystem:
    return StorageSystem(dht, codec=codec or ChunkCodec(NullCode(), blocks_per_chunk=1),
                         policy=policy or StoragePolicy())


def test_plan_single_chunk_when_file_fits(dht):
    storage = make_storage(dht)
    assert storage.store_file("small", 10 * MB).success
    (chunk,) = storage.files["small"].chunks
    assert (chunk.start, chunk.size) == (0, 10 * MB)
    assert not chunk.is_empty


def test_plan_multiple_chunks_for_large_file(dht):
    # Every node contributes 64 MB, so a 200 MB file needs several chunks.
    storage = make_storage(dht)
    assert storage.store_file("large", 200 * MB).success
    data_chunks = storage.files["large"].data_chunks()
    assert len(data_chunks) >= 3
    assert sum(chunk.size for chunk in data_chunks) == 200 * MB
    # Chunks are contiguous.
    offset = 0
    for chunk in data_chunks:
        assert chunk.start == offset
        offset = chunk.start + chunk.size


def test_chunk_size_respects_erasure_code_expansion(dht):
    # With a (2,3) XOR codec, a chunk of size S creates blocks of S/2, so the
    # chunk can be at most 2x the smallest offer.
    codec = ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2)
    storage = make_storage(dht, codec=codec)
    probe = storage.probe.probe_chunk_fast("xorfile", 1, codec.encoded_block_count())
    assert storage.store_file("xorfile", 40 * MB).success
    first = storage.files["xorfile"].chunks[0]
    assert 0 < first.size <= codec.max_chunk_size(probe.usable_block_size)


def test_policy_max_chunk_size_caps_chunks(dht):
    storage = make_storage(dht, policy=StoragePolicy(max_chunk_size=5 * MB))
    assert storage.store_file("capped", 23 * MB).success
    data_chunks = storage.files["capped"].data_chunks()
    assert all(chunk.size <= 5 * MB for chunk in data_chunks)
    assert len(data_chunks) == 5  # 4 full chunks + remainder


def test_policy_min_chunk_size_treats_small_offers_as_zero(dht):
    # Demand chunks of at least 10x the node capacity: every probe is "zero".
    policy = StoragePolicy(min_chunk_size=640 * MB, max_consecutive_zero_chunks=2)
    storage = make_storage(dht, policy=policy)
    result = storage.store_file("impossible", 10 * MB)
    assert not result.success
    assert (result.chunk_count, result.data_chunk_count) == (3, 0)
    assert "impossible" not in storage.files


def test_zero_chunk_limit_aborts_store(dht):
    # Empty every node so all offers are zero.
    for node in dht.network.live_nodes():
        node.capacity = 0
    storage = make_storage(dht, policy=StoragePolicy(max_consecutive_zero_chunks=3))
    result = storage.store_file("doomed", 1 * MB)
    assert not result.success
    assert result.chunk_count == 4  # limit + 1 zero chunks were tried
    assert result.failure_reason == "4 consecutive zero-sized chunks (limit 3)"


def test_negative_file_size_rejected(dht):
    storage = make_storage(dht)
    with pytest.raises(ValueError):
        storage.store_file("bad", -1)
    assert storage.store_attempts == 0 and storage.probe.total_probes == 0


def test_zero_size_file_produces_no_chunks(dht):
    storage = make_storage(dht)
    assert storage.store_file("empty", 0).success
    assert storage.files["empty"].chunks == []


def test_size_chunk_uses_minimum_offer_and_remaining(dht):
    storage = make_storage(dht)
    probe = storage.probe.probe_chunk_fast("big", 1, 1)
    assert storage.store_file("big", probe.usable_block_size + 1).success
    assert [chunk.size for chunk in storage.files["big"].chunks] == [probe.usable_block_size, 1]
    assert storage.store_file("tiny", 1).success
    assert [chunk.size for chunk in storage.files["tiny"].chunks] == [1]


def test_capacity_evaporating_after_the_probe_leaves_a_zero_sized_chunk(dht, monkeypatch):
    # The paper's remedy when a holder fills up between probe and store: the
    # chunk is recorded as zero-sized and negotiation continues.
    place = StorageSystem._place_chunk
    calls = []

    def first_placement_fails(self, filename, chunk, probe, chunk_data, *request):
        calls.append(chunk.chunk_no)
        return place(self, filename, chunk, probe, chunk_data, *request) if len(calls) > 1 else None

    monkeypatch.setattr(StorageSystem, "_place_chunk", first_placement_fails)
    storage = make_storage(dht)
    result = storage.store_file("raced", 10 * MB)
    assert result.success and (result.chunk_count, result.data_chunk_count) == (2, 1)
    assert [(chunk.start, chunk.size) for chunk in storage.files["raced"].chunks] == [(0, 0), (0, 10 * MB)]
