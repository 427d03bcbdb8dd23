"""Property-based tests (hypothesis) for storage-system invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cat import ChunkAllocationTable
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.ids import distance
from repro.overlay.network import OverlayNetwork

MB = 1 << 20

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- CAT invariants ---------------------------------------------------------------------
@given(sizes=st.lists(st.integers(min_value=0, max_value=10**9), max_size=40))
@common_settings
def test_cat_round_trips_and_covers_file(sizes):
    cat = ChunkAllocationTable.from_chunk_sizes("f", sizes)
    assert cat.file_size == sum(sizes)
    assert cat.chunk_sizes() == [int(s) for s in sizes]
    assert ChunkAllocationTable.deserialize("f", cat.serialize()) == cat
    # Every byte offset belongs to exactly one non-empty chunk.
    if cat.file_size:
        probe_points = {0, cat.file_size - 1, cat.file_size // 2}
        for offset in probe_points:
            (entry,) = cat.chunks_for_range(offset, 1)
            assert entry.start <= offset < entry.end


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
    data=st.data(),
)
@common_settings
def test_cat_range_queries_cover_requested_window(sizes, data):
    cat = ChunkAllocationTable.from_chunk_sizes("f", sizes)
    offset = data.draw(st.integers(min_value=0, max_value=cat.file_size - 1))
    length = data.draw(st.integers(min_value=1, max_value=cat.file_size - offset))
    touched = cat.chunks_for_range(offset, length)
    assert touched, "a non-empty range must touch at least one chunk"
    assert touched[0].start <= offset
    assert touched[-1].end >= offset + length


# -- DHT invariants ------------------------------------------------------------------------
@given(keys=st.lists(st.integers(min_value=0, max_value=2**160 - 1), min_size=1, max_size=50))
@common_settings
def test_dht_lookup_always_returns_closest_live_node(keys):
    network = OverlayNetwork.build(20, np.random.default_rng(5), capacities=[MB] * 20)
    dht = DHTView(network)
    for key in keys:
        found = dht.lookup(key)
        best = min(network.live_ids(), key=lambda nid: (distance(nid, key), nid))
        assert found.node_id == best


# -- storage invariants -----------------------------------------------------------------------
@given(
    file_sizes=st.lists(st.integers(min_value=1, max_value=20 * MB), min_size=1, max_size=12),
)
@common_settings
def test_capacity_accounting_never_exceeds_contributions(file_sizes):
    network = OverlayNetwork.build(16, np.random.default_rng(6), capacities=[32 * MB] * 16)
    dht = DHTView(network)
    storage = StorageSystem(dht, codec=ChunkCodec(NullCode(), blocks_per_chunk=1))
    stored = 0
    for index, size in enumerate(file_sizes):
        result = storage.store_file(f"file-{index}", size)
        if result.success:
            stored += size
    # Node-local invariant: nobody stores more than it contributed.
    for node in network.live_nodes():
        assert node.used <= node.capacity
        assert node.used == sum(node.stored_blocks.values())
    # Global accounting: used space covers exactly the stored files + metadata.
    assert dht.total_used() >= stored
    assert storage.stored_bytes() == stored


@given(
    file_sizes=st.lists(st.integers(min_value=1, max_value=15 * MB), min_size=1, max_size=8),
)
@common_settings
def test_successful_store_always_covers_whole_file_in_cat(file_sizes):
    network = OverlayNetwork.build(16, np.random.default_rng(7), capacities=[48 * MB] * 16)
    storage = StorageSystem(DHTView(network), codec=ChunkCodec(XorParityCode(), blocks_per_chunk=2))
    for index, size in enumerate(file_sizes):
        result = storage.store_file(f"f-{index}", size)
        if result.success:
            stored = storage.files[f"f-{index}"]
            assert stored.cat.file_size == size
            data_bytes = sum(chunk.size for chunk in stored.data_chunks())
            assert data_bytes == size
            # Every data chunk has the full complement of encoded blocks.
            expected_blocks = storage.codec.encoded_block_count()
            for chunk in stored.data_chunks():
                assert len(chunk.placements) == expected_blocks


@given(payload=st.binary(min_size=1, max_size=256 * 1024))
@common_settings
def test_payload_round_trip_is_lossless(payload):
    network = OverlayNetwork.build(12, np.random.default_rng(8), capacities=[4 * MB] * 12)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        payload_mode=True,
    )
    result = storage.store_bytes("blob", payload)
    assert result.success
    out = storage.retrieve_file("blob")
    assert out.complete and out.data == payload


@given(
    payload=st.binary(min_size=10, max_size=128 * 1024),
    data=st.data(),
)
@common_settings
def test_payload_range_reads_match_slices(payload, data):
    network = OverlayNetwork.build(12, np.random.default_rng(9), capacities=[4 * MB] * 12)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_chunk_size=16 * 1024),
        payload_mode=True,
    )
    assert storage.store_bytes("blob", payload).success
    offset = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    length = data.draw(st.integers(min_value=1, max_value=len(payload) - offset))
    window = storage.retrieve_range("blob", offset, length)
    assert window.complete
    assert window.data == payload[offset : offset + length]
