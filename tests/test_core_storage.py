"""Unit tests for the storage system (capacity mode and payload mode)."""

from __future__ import annotations

import gc
import hashlib
import itertools

import numpy as np
import pytest
from reference import dict_walk
from reference.recorder import current

from repro.api import ClusterSession
from repro.core import naming
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

MB = 1 << 20


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


# -- capacity mode ----------------------------------------------------------------------
def test_a_digest_ending_in_a_nul_byte_keeps_it_in_the_ledger(capacity_storage):
    """NumPy ``S20`` scalars strip trailing NUL bytes: a block whose SHA-1 ends
    in 0x00 must still read back its full 20-byte digest and its key."""
    filename = next(name for name in (f"nul-{index}" for index in itertools.count())
                    if hashlib.sha1(naming.block_name(name, 1, 1).encode()).digest()[-1] == 0)
    assert capacity_storage.store_file(filename, 1 * MB).success
    ledger = capacity_storage.ledger
    row = next(row for row in range(ledger.row_count)
               if ledger.row_name(row) == naming.block_name(filename, 1, 1))
    ledger.ensure_digests([row])
    digest = hashlib.sha1(naming.block_name(filename, 1, 1).encode()).digest()
    assert ledger.row_digest(row) == digest
    assert ledger.row_key(row) == int.from_bytes(digest, "big")


def test_store_small_file_succeeds(capacity_storage):
    result = capacity_storage.store_file("a", 10 * MB)
    assert result.success
    assert result.stored_bytes == 10 * MB
    assert result.data_chunk_count >= 1
    assert capacity_storage.file_count == 1
    assert capacity_storage.stored_bytes() == 10 * MB


def test_store_file_larger_than_any_node(capacity_storage, dht):
    # Nodes contribute 64 MB each; a 500 MB file cannot fit on one node but
    # fits in the pool -- the paper's headline capability.
    biggest_node = max(node.capacity for node in dht.network.live_nodes())
    result = capacity_storage.store_file("huge", 500 * MB)
    assert 500 * MB > biggest_node
    assert result.success
    assert result.data_chunk_count > 1
    stored = capacity_storage.files["huge"]
    assert stored.cat.file_size == 500 * MB


def test_store_updates_node_usage_and_utilization(capacity_storage, dht):
    before = dht.total_used()
    capacity_storage.store_file("b", 30 * MB)
    # The consumed space is the file itself plus the (tiny) CAT copies.
    _, _, size, replicas = dict_walk.cat_placement(capacity_storage, "b")
    cat_bytes = size * (1 + len(replicas))
    assert dht.total_used() == before + 30 * MB + cat_bytes
    assert 0 < cat_bytes < 1024
    assert dht.utilization() == pytest.approx(
        (30 * MB + cat_bytes) / dht.total_capacity()
    )


@pytest.mark.parametrize("size", [-5, float("nan"), float("inf")])
def test_store_file_rejects_a_negative_or_non_finite_size(capacity_storage, dht, size):
    with pytest.raises(ValueError):
        capacity_storage.store_file("bad", size)
    # Rejected before any lookup or counter moves.
    assert (capacity_storage.store_attempts, capacity_storage.store_failures) == (0, 0)
    assert capacity_storage.failed_bytes == 0
    assert capacity_storage.probe.total_probes == 0 and dht.lookup_count == 0


def test_duplicate_store_rejected(capacity_storage):
    assert capacity_storage.store_file("dup", 1 * MB).success
    again = capacity_storage.store_file("dup", 1 * MB)
    assert not again.success
    assert "already" in again.failure_reason


def test_store_failure_when_system_full_and_rollback(dht):
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=5),
    )
    total = dht.total_capacity()
    # Fill most of the system with a batch of files, then ask for far more
    # space than remains anywhere.
    for index in range(12):
        assert storage.store_file(f"filler-{index}", int(total * 0.05)).success
    used_before = dht.total_used()
    result = storage.store_file("toobig", int(total * 0.5))
    assert not result.success
    assert storage.store_failures == 1
    assert storage.failed_bytes == int(total * 0.5)
    # Rollback released everything the failed store had placed.
    assert dht.total_used() == used_before
    assert "toobig" not in storage.files


def test_cat_is_stored_and_replicated(capacity_storage, dht):
    capacity_storage.store_file("withcat", 5 * MB)
    stored = capacity_storage.files["withcat"]
    name, primary, size, replicas = dict_walk.cat_placement(capacity_storage, "withcat")
    assert name == "withcat.CAT" and size == stored.cat.serialized_size
    assert current().has_block(dht.network.node(primary), name)
    # One replica by default (cat_replication=2 => primary + 1 neighbour).
    assert len(replicas) == capacity_storage.policy.cat_replication - 1


def test_delete_file_releases_all_space(capacity_storage, dht):
    capacity_storage.store_file("temp", 40 * MB)
    assert dht.total_used() > 0
    assert capacity_storage.delete_file("temp")
    assert dht.total_used() == 0
    assert not capacity_storage.delete_file("temp")
    assert capacity_storage.file_count == 0


def test_a_deleted_file_leaves_no_chunk_in_the_ledger_and_its_leftovers_still_exclude():
    """The ledger keeps a deleted file's chunks as numbers (their blocks' naming
    rule), not as :class:`StoredChunk` objects; what the file left on disk
    still keeps a new file of its name off those nodes: the leftover is its
    first block's, whose root is the holder (the recorder raises on a second
    copy of one name on a node)."""
    session = ClusterSession(24, seed=5, capacities=[256 * MB] * 24)
    client = session.client(codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    assert client.store("scan", 6 * MB).success
    ledger = session.ledger
    chunks = client.storage.files["scan"].data_chunks()
    # Repair re-points a holder's copies while it keeps their bytes, and it returns.
    holder = session.network.node(chunks[0].placements[0].node_id)
    session.recovery(client).handle_failure(holder.node_id)
    session.network.recover(holder.node_id, wipe=False)
    session.dht.add(holder)
    leftovers = {name for name in holder.stored_blocks if name.startswith("scan")}
    assert leftovers
    assert client.delete("scan")
    gc.collect()
    containers = {id(value) for value in vars(ledger).values()}
    for chunk in chunks:
        assert not [ref for ref in gc.get_referrers(chunk) if id(ref) in containers]
    assert set(holder.stored_blocks) == leftovers
    assert client.store("scan", 6 * MB).success
    placed = {placement.block_name: placement.node_id
              for chunk in client.storage.files["scan"].data_chunks()
              for placement in chunk.placements}
    assert all(placed.get(name) != holder.node_id for name in leftovers)
    ledger.check_invariants()


def test_block_replication_places_copies_on_neighbors(dht):
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(block_replication=3),
    )
    storage.store_file("replicated", 5 * MB)
    stored = storage.files["replicated"]
    for chunk in stored.data_chunks():
        for placement in chunk.placements:
            assert len(placement.replica_nodes) == 2


def test_chunk_sizes_are_the_data_chunks_of_a_stored_file(capacity_storage):
    for index in range(5):
        result = capacity_storage.store_file(f"file-{index}", 20 * MB)
        sizes = capacity_storage.chunk_sizes(f"file-{index}")
        stored = capacity_storage.files[f"file-{index}"]
        assert sizes == [chunk.size for chunk in stored.data_chunks()]
        assert len(sizes) == result.data_chunk_count >= 1
        assert sum(sizes) == 20 * MB and all(size > 0 for size in sizes)
    assert capacity_storage.chunk_sizes("never-stored") == []


def test_is_file_available_tracks_node_failures(capacity_storage, dht):
    capacity_storage.store_file("fragile", 10 * MB)
    assert capacity_storage.is_file_available("fragile")
    stored = capacity_storage.files["fragile"]
    for chunk in stored.data_chunks():
        for placement in chunk.placements:
            dht.network.node(placement.node_id).fail()
    assert not capacity_storage.is_file_available("fragile")
    assert not capacity_storage.is_file_available("never-stored")


def test_retrieve_unknown_file(capacity_storage):
    result = capacity_storage.retrieve_file("ghost")
    assert not result.complete
    assert result.failure_reason == "unknown file"


def test_capacity_mode_retrieve_reports_recoverability(capacity_storage):
    capacity_storage.store_file("ok", 12 * MB)
    result = capacity_storage.retrieve_file("ok")
    assert result.complete
    assert result.bytes_available == 12 * MB
    assert result.data is None  # capacity mode carries no payloads


def test_store_bytes_requires_payload_mode(capacity_storage):
    with pytest.raises(RuntimeError):
        capacity_storage.store_bytes("x", b"abc")


def test_store_file_rejected_in_payload_mode(payload_storage):
    with pytest.raises(RuntimeError):
        payload_storage.store_file("x", 100)


# -- payload mode ---------------------------------------------------------------------------
def test_payload_round_trip(payload_storage):
    data = payload(3 * MB, seed=1)
    result = payload_storage.store_bytes("image", data)
    assert result.success
    out = payload_storage.retrieve_file("image")
    assert out.complete
    assert out.data == data


def test_payload_round_trip_multi_chunk(payload_storage, dht):
    data = payload(150 * MB, seed=2)
    result = payload_storage.store_bytes("big-image", data)
    assert result.success and result.data_chunk_count > 1
    out = payload_storage.retrieve_file("big-image")
    assert out.complete and out.data == data


def test_payload_range_read(payload_storage):
    data = payload(8 * MB, seed=3)
    payload_storage.store_bytes("ranged", data)
    window = payload_storage.retrieve_range("ranged", offset=1_000_000, length=123_456)
    assert window.complete
    assert window.data == data[1_000_000 : 1_000_000 + 123_456]


def test_payload_survives_single_holder_failure(payload_storage, dht):
    data = payload(4 * MB, seed=4)
    payload_storage.store_bytes("protected", data)
    stored = payload_storage.files["protected"]
    victim = stored.data_chunks()[0].placements[0].node_id
    dht.network.fail(victim)
    out = payload_storage.retrieve_file("protected")
    assert out.complete and out.data == data


def test_payload_lost_when_too_many_holders_fail(dht):
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(),
        payload_mode=True,
    )
    data = payload(2 * MB, seed=5)
    storage.store_bytes("unprotected", data)
    stored = storage.files["unprotected"]
    for chunk in stored.data_chunks():
        for placement in chunk.placements:
            dht.network.node(placement.node_id).fail()
    out = storage.retrieve_file("unprotected")
    assert not out.complete
    assert out.data is None


def test_payload_reed_solomon_round_trip(dht):
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=4),
        payload_mode=True,
    )
    data = payload(5 * MB, seed=6)
    assert storage.store_bytes("rs", data).success
    stored = storage.files["rs"]
    # Fail two holders of the first chunk: still decodable.
    for placement in stored.data_chunks()[0].placements[:2]:
        dht.network.node(placement.node_id).fail()
    out = storage.retrieve_file("rs")
    assert out.complete and out.data == data
