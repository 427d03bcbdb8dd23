"""Unit tests for failure handling, block regeneration and CAT rebuilding."""

from __future__ import annotations

import numpy as np
import pytest
from reference import dict_walk
from reference.recorder import current

from repro.core.block_ledger import BlockLedger
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.ids import key_for
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

MB = 1 << 20


@pytest.fixture
def xor_storage(dht) -> StorageSystem:
    return StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
    )


def first_block_holder(storage: StorageSystem, filename: str):
    stored = storage.files[filename]
    return stored.data_chunks()[0].placements[0].node_id


def test_handle_failure_regenerates_blocks_elsewhere(xor_storage, dht):
    xor_storage.store_file("file-a", 30 * MB)
    recovery = RecoveryManager(xor_storage)
    victim = first_block_holder(xor_storage, "file-a")
    lost_bytes = dht.network.node(victim).used
    impact = recovery.handle_failure(victim)
    assert impact.bytes_on_failed_node == lost_bytes
    assert impact.bytes_regenerated > 0
    assert impact.data_bytes_lost == 0
    # The file is still fully available afterwards.
    assert xor_storage.is_file_available("file-a")
    # Regenerated placements point at live nodes.
    for chunk in xor_storage.files["file-a"].data_chunks():
        for placement in chunk.placements:
            assert dht.network.node(placement.node_id).alive


def test_handle_failure_updates_dht_view(xor_storage, dht):
    xor_storage.store_file("file-b", 10 * MB)
    recovery = RecoveryManager(xor_storage)
    victim = first_block_holder(xor_storage, "file-b")
    live_before = len(dht)
    recovery.handle_failure(victim)
    assert len(dht) == live_before - 1
    assert not dht.network.node(victim).alive


def test_repeated_failures_eventually_lose_data(xor_storage, dht):
    xor_storage.store_file("file-c", 60 * MB)
    recovery = RecoveryManager(xor_storage)
    rng = np.random.default_rng(0)
    # Fail most of the overlay; with only a (2,3) code some chunk must die.
    victims = list(dht.network.live_ids())
    rng.shuffle(victims)
    for victim in victims[: len(victims) - 4]:
        recovery.handle_failure(victim)
    totals = recovery.totals()
    assert totals["failures"] == len(victims) - 4
    assert totals["total_regenerated_bytes"] >= 0
    # With that much carnage the file is essentially guaranteed to lose data.
    assert totals["total_data_lost_bytes"] > 0 or not xor_storage.is_file_available("file-c")


def test_lost_chunks_counted_once(xor_storage, dht):
    xor_storage.store_file("file-d", 10 * MB)
    recovery = RecoveryManager(xor_storage)
    stored = xor_storage.files["file-d"]
    chunk = stored.data_chunks()[0]
    holders = [placement.node_id for placement in chunk.placements]
    impacts = [recovery.handle_failure(holder) for holder in dict.fromkeys(holders)]
    total_lost = sum(impact.data_bytes_lost for impact in impacts)
    assert total_lost <= chunk.size  # never double counted


@pytest.mark.parametrize("tenants", [1, 2])
def test_repairing_a_dead_node_twice_is_a_no_op(dht, tenants):
    """The ledger's unreleased rows are the record of what a node held: a name
    left in a dead node's dict whose row a repair already released (the
    re-pointed placement keeps the block name) must not be repaired again --
    by the same manager, or by a second tenant's manager on a shared ledger."""
    shared = BlockLedger(dht.network)
    stores = [
        StorageSystem(
            dht,
            codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
            policy=StoragePolicy(block_replication=2),
            ledger=shared,
            tenant=f"tenant-{index}" if tenants > 1 else None,
        )
        for index in range(tenants)
    ]
    for index, storage in enumerate(stores):
        for number in range(3):
            assert storage.store_file(f"file-{index}-{number}", 20 * MB).success
    managers = [RecoveryManager(storage) for storage in stores]
    victim = max(dht.network.live_nodes(), key=lambda node: len(node.stored_blocks)).node_id
    first = [manager.handle_failure(victim) for manager in managers]
    assert all(impact.bytes_regenerated > 0 for impact in first)
    assert sum(impact.replicas_restored for impact in first) > 0
    live_rows, used = shared.live_rows, dht.total_used()
    for manager in managers:
        again = manager.handle_failure(victim)
        assert again.blocks_lost == first[0].blocks_lost
        assert again.bytes_regenerated == again.replicas_restored == again.bytes_dropped == 0
    assert (shared.live_rows, dht.total_used()) == (live_rows, used)
    shared.check_invariants()


def test_a_same_id_rejoin_is_a_holder_by_id_but_not_by_serial():
    """A same-id rejoin is a placement holder by id but not by disk serial.

    A placement's primary leaves without migrating and a fresh machine joins
    under its id.  The placement's primary column keeps the departed node, so
    the ledger's holder ids name the newcomer's id, while the disk exclusion
    carries the departed node's serial and never the newcomer's (a same-id
    rejoin is a new serial): the two filters of a replica repair disagree on
    that machine.  Replacing a dead replica puts the new copy on a node that
    is a holder by neither, and the newcomer takes nothing.  (The walk runs
    over the neighbours of the primary's id, which never include that id, so
    here the newcomer is not offered the copy at all.)
    """
    network = OverlayNetwork.build(16, np.random.default_rng(4), capacities=[1 << 30] * 16)
    dht = DHTView(network)
    storage = StorageSystem(dht, policy=StoragePolicy(block_replication=3))
    assert storage.store_file("f", 1 * MB).success
    ledger = storage.ledger
    placement = ledger.placement_for(storage.files["f"].data_chunks()[0].ledger_index, 0)
    primary, dying, surviving = ledger.placement_nodes(placement)
    name = ledger.placement_name(placement)

    dht.remove(primary.node_id)
    network.leave(primary.node_id)
    fresh = OverlayNode(node_id=primary.node_id, capacity=primary.capacity)
    network.join(fresh)
    dht.add(fresh)
    assert fresh.serial != primary.serial
    assert fresh.node_id in ledger.placement_holders(placement)
    assert ledger.placement_disk_serials(placement) == {dying.serial, surviving.serial}

    impact = RecoveryManager(storage).handle_failure(dying.node_id)
    assert impact.replicas_restored == 1 and impact.data_bytes_lost == 0
    _, *replicas = ledger.placement_nodes(placement)
    (restored,) = [node for node in replicas if node is not surviving]
    assert restored.node_id not in {primary.node_id, dying.node_id, surviving.node_id}
    assert name not in current().blocks(fresh) and fresh.used == 0
    ledger.check_invariants()


def test_regeneration_into_a_full_cluster_drops_blocks(dht):
    """Relocation walks the neighbours; with every node full the block is dropped."""
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
    )
    storage.store_file("file-e", 20 * MB)
    with pytest.raises(TypeError):  # relocation is the only policy: no switch
        RecoveryManager(storage, relocate_when_full=False)
    recovery = RecoveryManager(storage)
    # Exhaust every node so regenerated blocks cannot be placed anywhere.
    for node in dht.network.live_nodes():
        node.used = node.capacity
    victim = first_block_holder(storage, "file-e")
    impact = recovery.handle_failure(victim)
    assert impact.bytes_regenerated == 0
    assert impact.bytes_dropped > 0


def test_cat_copy_restored_after_failure(xor_storage, dht):
    xor_storage.store_file("file-f", 8 * MB)
    _, cat_holder, _, _ = dict_walk.cat_placement(xor_storage, "file-f")
    recovery = RecoveryManager(xor_storage)
    impact = recovery.handle_failure(cat_holder)
    # Either the responsible node already held a replica or a copy was restored.
    assert impact.cat_copies_restored >= 0
    new_root = dht.lookup(key_for("file-f.CAT"))
    assert new_root.alive


def test_rebuild_cat_matches_original(xor_storage):
    xor_storage.store_file("file-g", 120 * MB)
    recovery = RecoveryManager(xor_storage)
    rebuilt = recovery.rebuild_cat("file-g")
    original = xor_storage.files["file-g"].cat
    assert rebuilt.chunk_sizes() == original.chunk_sizes()
    assert rebuilt.file_size == original.file_size


def test_rebuild_cat_misses_a_chunk_whose_every_copy_is_gone(xor_storage, dht):
    """The rebuild probes the ledger: a chunk with no live block reads as missing."""
    xor_storage.store_file("file-h", 300 * MB)
    stored = xor_storage.files["file-h"]
    *kept, last = stored.data_chunks()
    assert kept and stored.chunks[-1] is last
    for placement in last.placements:
        for holder in (placement.node_id, *placement.replica_nodes):
            if dht.network.node(holder).alive:
                dht.network.fail(holder)
    ledger = xor_storage.ledger
    assert ledger.chunk_live_blocks(last.ledger_index) == 0
    assert all(ledger.chunk_live_blocks(chunk.ledger_index) > 0 for chunk in kept)
    rebuilt = RecoveryManager(xor_storage).rebuild_cat("file-h")
    assert rebuilt.chunk_sizes() == [chunk.size for chunk in stored.chunks[:-1]]
    assert rebuilt.file_size == stored.cat.file_size - last.size


def test_rebuild_cat_unknown_file(xor_storage):
    recovery = RecoveryManager(xor_storage)
    with pytest.raises(KeyError):
        recovery.rebuild_cat("nope")


def test_payload_mode_recovery_restores_payload(dht):
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        payload_mode=True,
    )
    data = np.random.default_rng(1).integers(0, 256, size=6 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-h", data)
    recovery = RecoveryManager(storage)
    victim = first_block_holder(storage, "file-h")
    recovery.handle_failure(victim)
    out = storage.retrieve_file("file-h")
    assert out.complete and out.data == data
    # And the regenerated block is again fetchable after a second failure of a
    # different holder, because the chunk regained full redundancy.
    second_victim = first_block_holder(storage, "file-h")
    if second_victim != victim:
        recovery.handle_failure(second_victim)
        out = storage.retrieve_file("file-h")
        assert out.complete and out.data == data


def test_payload_mode_departures_move_every_copy_kind():
    """Graceful departure in payload mode: primaries, neighbour replicas and
    CAT copies leave with their bytes, so every holder a placement names is
    live and has the payload, and every file reads back byte for byte."""
    network = OverlayNetwork.build(40, np.random.default_rng(3), capacities=[64 * MB] * 40)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2),
        payload_mode=True,
    )
    rng = np.random.default_rng(4)
    files = {
        f"file-{number}": rng.integers(0, 256, size=3 * MB + 4099 * number, dtype=np.uint8).tobytes()
        for number in range(6)
    }
    for name, data in files.items():
        assert storage.store_bytes(name, data).success
    recovery = RecoveryManager(storage)
    impacts = []
    for _ in range(8):
        fullest = max(network.live_nodes(), key=lambda node: node.used)
        impacts.append(recovery.handle_leave(fullest.node_id))
    for field in ("bytes_migrated", "replicas_restored", "cat_copies_restored"):
        assert sum(getattr(impact, field) for impact in impacts) > 0, field
    for stored in storage.files.values():
        for chunk in stored.data_chunks():
            for placement in chunk.placements:
                for node_id in (placement.node_id, *placement.replica_nodes):
                    assert node_id in network and network.node(node_id).alive
                    assert placement.block_name in network.node(node_id).payloads
    for node in network.live_nodes():  # CAT copies included
        assert all(name in node.payloads for name in current().blocks(node))
    for name, data in files.items():
        out = storage.retrieve_file(name)
        assert out.complete and out.data == data
    storage.ledger.check_invariants()


def test_payload_mode_failures_leave_every_stored_block_with_its_bytes():
    """Failure repair re-creates every copy kind with its bytes, read from a
    live source: after repeated failures each block a live node stores -- CAT
    copies included -- has its payload on that node."""
    network = OverlayNetwork.build(40, np.random.default_rng(3), capacities=[64 * MB] * 40)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2),
        payload_mode=True,
    )
    rng = np.random.default_rng(4)
    for number in range(6):
        data = rng.integers(0, 256, size=3 * MB + 4099 * number, dtype=np.uint8).tobytes()
        assert storage.store_bytes(f"file-{number}", data).success
    recovery = RecoveryManager(storage)
    for _ in range(6):
        fullest = max(network.live_nodes(), key=lambda node: node.used)
        recovery.handle_failure(fullest.node_id)
    assert sum(impact.cat_copies_restored for impact in recovery.impacts) > 0
    for node in network.live_nodes():
        missing = [name for name in current().blocks(node) if name not in node.payloads]
        assert not missing, f"node {node.node_id!r} stores {missing} without their bytes"
    storage.ledger.check_invariants()


def test_totals_empty_manager():
    network = OverlayNetwork.build(8, np.random.default_rng(0), capacities=[MB] * 8)
    storage = StorageSystem(DHTView(network))
    totals = RecoveryManager(storage).totals()
    assert totals["failures"] == 0
    assert totals["total_regenerated_bytes"] == 0


def test_rateless_repair_mints_fresh_check_blocks(dht):
    """Online-code repair appends new stream indices instead of copying payloads."""
    from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

    storage = StorageSystem(
        dht,
        codec=ChunkCodec(
            OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=9),
            blocks_per_chunk=4,
        ),
        payload_mode=True,
    )
    data = np.random.default_rng(5).integers(0, 256, size=2 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-r", data)
    stored = storage.files["file-r"]
    chunk = stored.data_chunks()[0]
    initial_max_index = max(block.index for block in chunk.encoded.blocks)

    recovery = RecoveryManager(storage)
    victim = first_block_holder(storage, "file-r")
    impact = recovery.handle_failure(victim)
    assert impact.data_bytes_lost == 0

    # The repaired chunk carries at least one block whose stream index
    # continues past the original encoding (the rateless property).
    repaired_max = max(
        block.index for c in stored.data_chunks() for block in c.encoded.blocks
    )
    assert repaired_max > initial_max_index

    out = storage.retrieve_file("file-r")
    assert out.complete and out.data == data

    # A second failure of a current holder still leaves the file decodable.
    second = first_block_holder(storage, "file-r")
    if second != victim:
        recovery.handle_failure(second)
        out = storage.retrieve_file("file-r")
        assert out.complete and out.data == data


def test_rateless_repair_refreshes_replica_payloads(dht):
    """After a fresh check block is minted, surviving replicas must not serve
    the stale pre-repair payload under the new stream index."""
    from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

    storage = StorageSystem(
        dht,
        codec=ChunkCodec(
            OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=17),
            blocks_per_chunk=4,
        ),
        policy=StoragePolicy(block_replication=2),
        payload_mode=True,
    )
    data = np.random.default_rng(6).integers(0, 256, size=2 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-s", data)
    stored = storage.files["file-s"]

    recovery = RecoveryManager(storage)
    victim = first_block_holder(storage, "file-s")
    recovery.handle_failure(victim)

    # Invariant: every stored payload copy (primary or replica) matches the
    # *current* encoded block at its placement position.  A stale replica
    # would serve pre-repair bytes keyed by the new stream index — silent
    # corruption when the primary is unreachable.
    checked = 0
    for chunk in stored.data_chunks():
        for index, placement in enumerate(chunk.placements):
            expected = chunk.encoded.blocks[index].data
            for node_id in (placement.node_id, *placement.replica_nodes):
                payload = storage.dht.network.node(node_id).payloads.get(placement.block_name)
                if payload is not None:
                    assert payload == expected, (
                        f"stale payload on node {node_id} for {placement.block_name}"
                    )
                    checked += 1
    assert checked > 0

    # And retrieval still round-trips when the repaired primary disappears
    # without a recovery pass (forcing replica fallback).
    chunk = stored.data_chunks()[0]
    new_primary = chunk.placements[0].node_id
    if new_primary in storage.dht.network:
        storage.dht.network.fail(new_primary)
        storage.dht.remove(new_primary)
    out = storage.retrieve_file("file-s")
    if out.complete:
        assert out.data == data


def _online_payload_storage(dht, seed: int) -> StorageSystem:
    from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

    return StorageSystem(
        dht,
        codec=ChunkCodec(
            OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=seed),
            blocks_per_chunk=4,
        ),
        payload_mode=True,
    )


def test_regeneration_kernel_failure_is_not_swallowed(dht, monkeypatch):
    """A bug in the mint path must surface: re-placing the old payload would
    leave a perfectly valid block behind and hide it from every check."""
    from repro.erasure.online_code import OnlineCode

    storage = _online_payload_storage(dht, seed=21)
    data = np.random.default_rng(7).integers(0, 256, size=1 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-k", data)

    def broken(self, chunk, available, count):
        raise ValueError("kernel bug")

    monkeypatch.setattr(OnlineCode, "generate_additional_blocks", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        RecoveryManager(storage).handle_failure(first_block_holder(storage, "file-k"))


def test_stalled_decode_falls_back_to_replacing_the_lost_payload(dht, monkeypatch):
    """``DecodingError`` is the one legitimate regeneration outcome besides a
    fresh block: the lost payload itself is re-placed, indices unchanged."""
    from repro.erasure.base import DecodingError
    from repro.erasure.online_code import OnlineCode

    storage = _online_payload_storage(dht, seed=22)
    data = np.random.default_rng(8).integers(0, 256, size=1 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-d", data)
    stored = storage.files["file-d"]
    before = [
        [(block.index, block.data) for block in chunk.encoded.blocks]
        for chunk in stored.data_chunks()
    ]

    def stalled(self, chunk, available, count):
        raise DecodingError("online code peeling stalled")

    # The mint raises ``DecodingError`` exactly when a decode of the same
    # blocks would stall.
    with monkeypatch.context() as patch:
        patch.setattr(OnlineCode, "generate_additional_blocks", stalled)
        impact = RecoveryManager(storage).handle_failure(first_block_holder(storage, "file-d"))
    assert impact.data_bytes_lost == 0 and impact.bytes_regenerated > 0

    after = [
        [(block.index, block.data) for block in chunk.encoded.blocks]
        for chunk in stored.data_chunks()
    ]
    assert after == before
    for chunk in stored.data_chunks():
        for index, placement in enumerate(chunk.placements):
            assert dht.network.node(placement.node_id).alive
            holder = dht.network.node(placement.node_id)
            assert holder.payloads[placement.block_name] == chunk.encoded.blocks[index].data
    out = storage.retrieve_file("file-d")
    assert out.complete and out.data == data


def test_rateless_repair_decodes_nothing(dht, monkeypatch):
    """The fresh block is minted straight from the stored check blocks: no
    ``OnlineCode.decode`` runs during repair, and the file still reads back."""
    from repro.erasure.online_code import OnlineCode

    storage = _online_payload_storage(dht, seed=23)
    data = np.random.default_rng(9).integers(0, 256, size=2 * MB, dtype=np.uint8).tobytes()
    storage.store_bytes("file-m", data)
    stored = storage.files["file-m"]
    before = max(block.index for chunk in stored.data_chunks() for block in chunk.encoded.blocks)

    decodes = []
    real_decode = OnlineCode.decode

    def counted(self, chunk, available):
        decodes.append(chunk)
        return real_decode(self, chunk, available)

    with monkeypatch.context() as patch:
        patch.setattr(OnlineCode, "decode", counted)
        impact = RecoveryManager(storage).handle_failure(first_block_holder(storage, "file-m"))
    assert decodes == []
    assert impact.data_bytes_lost == 0 and impact.bytes_regenerated > 0
    after = max(block.index for chunk in stored.data_chunks() for block in chunk.encoded.blocks)
    assert after > before  # a fresh block was minted, not the old payload copied
    out = storage.retrieve_file("file-m")
    assert out.complete and out.data == data
