"""Multi-tenant ledger: one BlockLedger per overlay for PAST/CFS/ours.

Covers the tenant row/file tagging, per-tenant namespaces and aggregates,
mixed-tenant compaction with stable remaps of every tenant's indexes, the
tenant-filtered repair pipeline, graceful-departure migration of the PAST
and CFS copies (their files are chunks and placements like ours), and the
buffered PAST registration path's exactness under out-of-band churn.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import dict_walk
from reference.dict_walk import past_holders
from reference.recorder import current
from reference.seed_placement import seed_past_store

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core.block_ledger import BlockLedger
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.workloads.filetrace import MB

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")


def _pool(node_count: int, seed: int, capacity=120 * MB):
    rng = np.random.default_rng(seed)
    capacities = [max(int(c), 32 * MB) for c in rng.normal(capacity, capacity / 4, size=node_count)]
    network = OverlayNetwork.build(
        node_count, np.random.default_rng(seed + 1), capacities=capacities)
    return network, DHTView(network)


def _counts(store):
    """One store's counters, worked out by the shared ledger."""
    return store.ledger.tenant_aggregates(store.store_tenant)


def _three_tenants(node_count=40, seed=61):
    """One shared ledger carrying ours + PAST + CFS, each in its own tenant."""
    network, dht = _pool(node_count, seed)
    shared = BlockLedger(network)
    ours = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
        ledger=shared,
        tenant="ours",
    )
    past = PastStore(dht, replication=2, ledger=shared, tenant="past")
    cfs = CfsStore(dht, block_size=2 * MB, replication=2, ledger=shared, tenant="cfs")
    return network, dht, shared, ours, past, cfs


def test_tenant_aggregates_rejects_a_tenant_id_it_never_handed_out():
    network, _ = _pool(8, 5)
    ledger = BlockLedger(network)
    with pytest.raises(ValueError):
        ledger.tenant_aggregates(7)  # only the default tenant 0 exists
    ledger.ensure_tenant("a")
    ledger.ensure_tenant("b")
    with pytest.raises(ValueError):
        ledger.tenant_aggregates(3)
    ledger.ensure_tenant("c")
    with pytest.raises(ValueError):
        ledger.tenant_aggregates(5)
    assert ledger.tenant_aggregates(3) == dict.fromkeys(ledger.tenant_aggregates(), 0)


def test_tenants_scope_the_file_namespace():
    """Every tenant can store the same file name on one shared ledger."""
    _, _, shared, ours, past, cfs = _three_tenants()
    assert ours.store_file("movie", 6 * MB).success
    assert past.store_file("movie", 6 * MB).success
    assert cfs.store_file("movie", 6 * MB).success
    shared.flush_registrations()
    assert shared.active_files == 3
    # Every tenant's counters see exactly its own file.
    assert _counts(ours)["active_files"] == 1
    assert _counts(past)["active_files"] == 1
    assert _counts(cfs)["active_files"] == 1
    assert ours.is_file_available("movie")
    assert past.is_file_available("movie")
    assert cfs.is_file_available("movie")
    # ...and deleting one tenant's copy leaves the namesakes alone.
    assert past.delete_file("movie")
    assert not past.is_file_available("movie")
    assert ours.is_file_available("movie") and cfs.is_file_available("movie")
    assert shared.active_files == 2


def test_two_tenant_ledger_survives_churn_and_deletes():
    """Regression: a two-store ledger (3 tenant names with the default) keeps
    its per-tenant counters exact through churn and deletes."""
    network, dht = _pool(30, 111)
    shared = BlockLedger(network)
    ours = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        ledger=shared,
        tenant="ours",
    )
    past = PastStore(dht, replication=2, ledger=shared, tenant="past")
    for index in range(5):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 3 * MB).success
    victim = dht.state.nodes[0]
    victim.fail()  # crashed with a broadcast ValueError before the fix
    victim.recover(wipe=False)
    assert ours.delete_file("o0") and past.delete_file("p0")
    assert _counts(ours)["active_files"] == _counts(past)["active_files"] == 4
    assert shared.unavailable_files == 0


def test_regenerated_copies_inherit_their_tenant():
    """Regression: replace_copy's fresh rows must carry the file's tenant,
    or later failures of the regenerated holder skip them as foreign rows."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=30, seed=117)
    for index in range(6):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 3 * MB).success
    recovery = RecoveryManager(ours)
    ours_tenant = ours.store_tenant
    recovery.handle_failure(dht.state.nodes[0].node_id)
    assert sum(impact.bytes_regenerated for impact in recovery.impacts) > 0
    shared.flush_registrations()
    # Every live erasure-coded chunk row (placement >= 0, a chunk with a
    # StoredChunk; PAST's placements have none) still belongs to the ours tenant.
    for row in range(shared.row_count):
        _, chunk_idx, placement_idx, _, _ = shared.row_fields(row)
        if (placement_idx >= 0 and shared.chunk_object(chunk_idx) is not None
                and not shared._released[row]):
            assert shared._row_tenant[row] == ours_tenant, row
    # ...and the per-tenant live aggregates still sum to the global ones.
    stores = [ours, past, cfs]
    assert sum(_counts(store)["live_rows"] for store in stores) == shared.live_rows
    assert sum(_counts(store)["live_bytes"] for store in stores) == shared.live_bytes
    # The regenerated copies stay repairable: fail every node once more and
    # the availability counter keeps agreeing with the placement walk.
    for node in list(dht.state.nodes[:6]):
        recovery.handle_failure(node.node_id)
    walked = sum(
        0 if dict_walk.file_available(ours, f"o{index}") else 1 for index in range(6)
    )
    assert _counts(ours)["unavailable_files"] == walked


def test_storage_system_rejects_shared_namespace_collisions_preflight():
    """Regression: a raw shared ledger collision must fail the store cleanly
    (no placements consumed, no mid-store ValueError)."""
    network, dht = _pool(24, 121)
    shared = BlockLedger(network)
    first = StorageSystem(dht, codec=ChunkCodec(XorParityCode(group_size=2),
                                                blocks_per_chunk=2), ledger=shared)
    second = StorageSystem(dht, codec=ChunkCodec(XorParityCode(group_size=2),
                                                 blocks_per_chunk=2), ledger=shared)
    assert first.store_file("movie", 5 * MB).success
    used_before = dht.total_used()
    result = second.store_file("movie", 5 * MB)
    assert not result.success
    assert result.failure_reason == "file already stored"
    assert dht.total_used() == used_before
    assert "movie" not in second.files


def test_duplicate_names_within_one_tenant_still_rejected():
    _, _, shared, ours, past, _ = _three_tenants()
    assert past.store_file("x", 4 * MB).success
    second = PastStore(past.dht, ledger=shared, tenant="past")
    result = second.store_file("x", 4 * MB)
    assert not result.success and result.failure_reason == "file already stored"
    # A raw shared ledger (no tenants) keeps the legacy shared namespace --
    # covered by tests/test_ledger_compaction.py -- while ours' namespace
    # here is untouched by the PAST collision.
    assert ours.store_file("x", 4 * MB).success


def test_per_tenant_aggregates_match_walks():
    _, dht, shared, ours, past, cfs = _three_tenants()
    for index in range(8):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 3 * MB).success
        assert cfs.store_file(f"c{index}", 5 * MB).success
    assert _counts(ours)["active_files"] == _counts(past)["active_files"] == 8
    assert _counts(ours)["stored_data_bytes"] == 8 * 4 * MB
    assert _counts(past)["stored_data_bytes"] == 8 * 3 * MB
    assert _counts(cfs)["stored_data_bytes"] == 8 * 5 * MB
    # Tenant live rows/bytes sum to the global aggregates.
    stores = [ours, past, cfs]
    shared.flush_registrations()
    assert sum(_counts(store)["live_rows"] for store in stores) == shared.live_rows
    assert sum(_counts(store)["live_bytes"] for store in stores) == shared.live_bytes
    # Fail a node: every tenant's unavailable count agrees with a walk.
    victim = dht.state.nodes[0]
    victim.fail()
    for store, names in ((ours, [f"o{i}" for i in range(8)]),
                        (past, [f"p{i}" for i in range(8)]),
                        (cfs, [f"c{i}" for i in range(8)])):
        walked = sum(0 if store.is_file_available(name) else 1 for name in names)
        assert _counts(store)["unavailable_files"] == walked
    victim.recover(wipe=False)
    assert shared.unavailable_files == 0


def test_mixed_tenant_compaction_keeps_stable_remaps():
    """Released rows of all three tenants GC together; every index survives."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=36, seed=67)
    for index in range(10):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 3 * MB).success
        assert cfs.store_file(f"c{index}", 5 * MB).success

    def snapshots():
        return (
            {f"o{i}": ours.is_file_available(f"o{i}") for i in range(10)},
            {f"p{i}": [(n, h.node_id) for n, h, _, _ in _past_entries(past, f"p{i}")]
             for i in range(10) if f"p{i}" in past.files},
            {f"c{i}": [(n, p.node_id, s, [r.node_id for r in reps])
                       for n, p, s, reps in cfs.block_entries(f"c{i}")]
             for i in range(10) if f"c{i}" in cfs.files},
        )

    def _past_entries(store, name):
        """The PAST file's placement as ``(name, primary, size, replicas)``, read
        the way ``CfsStore.block_entries`` reads a CFS file's."""
        ledger = store.ledger
        idx = ledger.file_index(name, store.store_tenant)
        entries = []
        for placement in ledger.file_placements(idx) if idx is not None else ():
            primary, *replicas = ledger.placement_nodes(placement)
            entries.append((ledger.placement_name(placement), primary, ledger.file_size(idx), replicas))
        return entries

    # Release rows in every tenant: deletions plus a wiped holder.
    assert ours.delete_file("o0") and past.delete_file("p0") and cfs.delete_file("c0")
    node = dht.state.nodes[1]
    node.fail()
    node.recover(wipe=True)
    before = snapshots()
    tenant_rows_before = {store.store_tenant: _counts(store) for store in (ours, past, cfs)}
    stats = shared.compact()
    assert stats["rows_released"] > 0
    assert snapshots() == before
    for store in (ours, past, cfs):
        assert _counts(store) == tenant_rows_before[store.store_tenant]
    # The compacted ledger keeps working: repair, more stores, another GC.
    RecoveryManager(ours).handle_failure(dht.state.nodes[2].node_id)
    assert ours.store_file("after-compact", 4 * MB).success
    shared.compact()
    assert ours.is_file_available("after-compact")


def test_marginal_chunk_migration_keeps_tenant_unavailable_exact():
    """Regression: migrating a block of a chunk sitting exactly at its decode
    threshold crosses availability down (replace_copy kills the live row)
    and immediately back up (_register_copy_row); both crossings must move
    the per-tenant counter, not just the global one."""
    _, dht, shared, ours, past, _ = _three_tenants(node_count=40, seed=131)
    for index in range(6):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 2 * MB).success
    recovery = RecoveryManager(ours)
    # Fail one block holder per file so some chunks sit at exactly the
    # required live-placement count, then gracefully depart other holders.
    victims = [node.node_id for node in dht.state.nodes[:4]]
    for victim in victims:
        dht.network.node(victim).fail()
        dht.remove(victim)
    for _ in range(6):
        holders = [node for node in dht.state.nodes if node.stored_blocks]
        if len(dht.state.nodes) <= 3 or not holders:
            break
        recovery.handle_leave(holders[0].node_id)

    def walked_available(name: str) -> bool:
        return dict_walk.file_available(ours, name)

    walked_bad = sum(0 if walked_available(f"o{index}") else 1 for index in range(6))
    assert _counts(ours)["unavailable_files"] == walked_bad
    assert shared.unavailable_files >= _counts(ours)["unavailable_files"]


def test_repair_pipeline_only_regenerates_its_own_tenant():
    """ours' RecoveryManager must not resurrect PAST/CFS rows as CAT copies."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=32, seed=71)
    for index in range(6):
        assert ours.store_file(f"o{index}", 4 * MB).success
        assert past.store_file(f"p{index}", 3 * MB).success
        assert cfs.store_file(f"c{index}", 5 * MB).success
    recovery = RecoveryManager(ours)
    victims = [node.node_id for node in dht.state.nodes[:8]]
    for victim in victims:
        recovery.handle_failure(victim)
    # Baseline placements lose copies (replicas may survive); nothing regenerates
    # them, exactly as the seed baselines have no repair pipeline.
    shared.flush_registrations()

    def walked_available(name: str) -> bool:
        return dict_walk.file_available(ours, name)

    # The per-tenant counters agree with the placement walk after the
    # mixed-tenant repair pass (losses, if any, are counted identically).
    for index in range(6):
        assert ours.is_file_available(f"o{index}") == walked_available(f"o{index}")
    walked_bad = sum(0 if walked_available(f"o{index}") else 1 for index in range(6))
    assert _counts(ours)["unavailable_files"] == walked_bad
    total = sum(impact.bytes_regenerated for impact in recovery.impacts)
    assert total > 0
    # No baseline row was duplicated onto a live node by the repair pass: the
    # live copies of every PAST/CFS placement are never more than placed.
    for index in range(6):
        entries = cfs.block_entries(f"c{index}")
        for _, primary, _, replicas in entries:
            assert len(replicas) <= cfs.replication - 1


def test_graceful_leave_migrates_every_tenant():
    """handle_leave moves ours chunks, a *second* storage tenant's chunks,
    AND the PAST/CFS copies -- the departure is final, so one
    manager must migrate everything (nothing can run after network.leave
    releases the remaining rows)."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=30, seed=73)
    other = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        ledger=shared,
        tenant="ours2",
    )
    assert ours.store_file("o", 6 * MB).success
    assert other.store_file("o2", 6 * MB).success
    assert past.store_file("p", 5 * MB).success
    assert cfs.store_file("c", 7 * MB).success
    recovery = RecoveryManager(ours)
    # Depart every node that holds anything, one at a time; every file of
    # every tenant must remain fully available because copies are moved,
    # never regenerated.
    for _ in range(10):
        holders = [node for node in dht.state.nodes if node.stored_blocks]
        if len(dht.state.nodes) <= 3 or not holders:
            break
        impact = recovery.handle_leave(holders[0].node_id)
        assert impact.bytes_regenerated == 0
        assert ours.is_file_available("o")
        assert other.is_file_available("o2")
        assert past.is_file_available("p")
        assert cfs.is_file_available("c")
    migrated = sum(impact.bytes_migrated for impact in recovery.impacts)
    assert migrated > 0
    # Per-tenant aggregates survived the cross-tenant migration exactly.
    stores = [ours, other, past, cfs]
    shared.flush_registrations()
    assert sum(_counts(store)["live_rows"] for store in stores) == shared.live_rows
    assert sum(_counts(store)["live_bytes"] for store in stores) == shared.live_bytes
    assert shared.unavailable_files == 0
    for store in stores:
        assert _counts(store)["unavailable_files"] == 0


def test_graceful_leave_moves_each_baseline_copy_to_its_root():
    """PAST and CFS at replication 2 on one ledger: a departing node holding
    both schemes' primaries and replicas hands every copy to the name's root
    (or the root's neighbourhood), releases its own rows and keeps each row's
    kind, so every file stays available.  Holders are node build serials;
    rows are ``(name, holder, kind, released)`` in row order (kind 0 primary,
    1 replica)."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=20, seed=151)
    for index in range(6):
        assert past.store_file(f"p{index}", (2 + index % 3) * MB).success
        assert cfs.store_file(f"c{index}", (3 + index) * MB).success
    files = [(past, f"p{index}") for index in range(6)] + [(cfs, f"c{index}") for index in range(6)]

    def layout(store, name):
        idx = shared.file_index(name, store.store_tenant)
        return [(shared.row_name(row), shared.row_owner(row).serial, int(shared._kind[row]),
                 shared.row_released(row)) for row in shared.file_rows(idx)]

    before = {name: layout(store, name) for store, name in files}
    leaving = next(node for node in dht.state.nodes if node.serial == 19)
    impact = RecoveryManager(ours).handle_leave(leaving.node_id)
    assert (impact.bytes_migrated, impact.bytes_dropped, impact.bytes_regenerated) == (16 * MB, 0, 0)
    moved = {
        "p1": [("p1", 19, 0, True), ("p1", 2, 1, False), ("p1", 16, 0, False)],
        "p2": [("p2", 2, 0, False), ("p2", 19, 1, True), ("p2", 16, 1, False)],
        "c1": [("c1/block0", 8, 0, False), ("c1/block1", 8, 0, False),
               ("c1/block0", 19, 1, True), ("c1/block1", 19, 1, True),
               ("c1/block0", 5, 1, False), ("c1/block1", 5, 1, False)],
        "c4": [("c4/block0", 19, 0, True), ("c4/block1", 14, 0, False),
               ("c4/block2", 19, 0, True), ("c4/block3", 8, 0, False),
               ("c4/block0", 2, 1, False), ("c4/block1", 15, 1, False),
               ("c4/block2", 2, 1, False), ("c4/block3", 19, 1, True),
               ("c4/block0", 16, 0, False), ("c4/block2", 8, 0, False),
               ("c4/block3", 5, 1, False)],
    }
    for store, name in files:
        assert layout(store, name) == moved.get(name, before[name]), name
        assert store.is_file_available(name), name
    assert (shared.live_rows, shared.unavailable_files) == (48, 0)
    shared.check_invariants()


def test_deleting_a_migrated_baseline_file_takes_every_copy_back():
    """A PAST or CFS delete removes the copies the ledger references now, not the
    holders the store saw at store time: a copy a departure moved is deleted too,
    so the disks and the ledger agree on zero bytes afterwards."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=20, seed=151)
    for index in range(6):
        assert past.store_file(f"p{index}", (2 + index % 3) * MB).success
        assert cfs.store_file(f"c{index}", (3 + index) * MB).success
    leaving = next(node for node in dht.state.nodes if node.serial == 19)
    assert RecoveryManager(ours).handle_leave(leaving.node_id).bytes_migrated > 0
    for index in range(6):
        assert past.delete_file(f"p{index}") and cfs.delete_file(f"c{index}")
    assert dht.total_used() == shared.live_bytes == 0
    shared.check_invariants()


def test_a_departure_keeps_the_cfs_block_layout():
    """After a departure moves CFS primaries and replicas, ``chunk_sizes`` still
    lists each block once and ``block_entries`` names, per block, a primary and
    ``replication - 1`` replicas that all hold it -- never the departed node."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=20, seed=151)
    for index in range(6):
        assert past.store_file(f"p{index}", (2 + index % 3) * MB).success
        assert cfs.store_file(f"c{index}", (3 + index) * MB).success
    sizes = {f"c{index}": cfs.chunk_sizes(f"c{index}") for index in range(6)}
    leaving = next(node for node in dht.state.nodes if node.serial == 19)
    RecoveryManager(ours).handle_leave(leaving.node_id)
    for name, layout in sizes.items():
        assert cfs.chunk_sizes(name) == layout
        entries = cfs.block_entries(name)
        assert [size for _, _, size, _ in entries] == layout
        for block, primary, _, replicas in entries:
            assert len(replicas) == cfs.replication - 1, block
            assert all(current().has_block(holder, block) for holder in (primary, *replicas)), block


def test_replace_copy_preserves_baseline_tenant_columns():
    """The migrated twin of a baseline copy keeps its tenant, so per-tenant
    aggregates and availability stay exact through a graceful departure."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=24, seed=141)
    assert past.store_file("p", 4 * MB).success
    assert cfs.store_file("c", 6 * MB).success
    shared.flush_registrations()
    for store, name in ((past, "p"), (cfs, "c")):
        tenant = store.store_tenant
        live_before = (_counts(store)["live_rows"], _counts(store)["live_bytes"])
        idx = shared.file_index(name, tenant)
        row = next(r for r in shared.file_rows(idx) if not shared._released[r])
        new_node = next(node for node in dht.state.nodes
                        if node.alive and shared.row_name(row) not in current().blocks(node))
        assert new_node.store_block(shared.row_name(row), int(shared._size[row]))
        _, _, _, size, kind = shared.row_fields(row)
        new_row = shared.replace_copy(row, new_node, size, None, kind)
        assert shared._row_tenant[new_row] == tenant
        assert shared._released[row]
        assert store.is_file_available(name)
        assert (_counts(store)["live_rows"], _counts(store)["live_bytes"]) == live_before
    # The GC drops the released halves; the migrated twins and their tenant
    # columns must read back exactly through the remap.
    shared.compact()
    assert past.is_file_available("p") and cfs.is_file_available("c")
    stores = [ours, past, cfs]
    assert sum(_counts(store)["live_rows"] for store in stores) == shared.live_rows
    assert sum(_counts(store)["live_bytes"] for store in stores) == shared.live_bytes
    # Deleting the file finally collects both halves, per tenant.
    assert past.delete_file("p")
    stats = shared.compact()
    assert stats["rows_released"] > 0
    assert _counts(past)["active_files"] == 0
    assert cfs.is_file_available("c")


def test_colliding_namespaces_and_aggregates_survive_compact():
    """Cross-tenant name collisions stay scoped through delete + compact, and
    every tenant's aggregates read back unchanged after the GC."""
    _, dht, shared, ours, past, cfs = _three_tenants(node_count=36, seed=151)
    for store in (ours, past, cfs):
        assert store.store_file("shared-name", 4 * MB).success
        assert store.store_file(f"own-{shared.tenant_names[store.store_tenant]}", 2 * MB).success
    shared.flush_registrations()
    # Release rows: one tenant drops its copy of the colliding name, and a
    # wiped holder releases rows of whoever it hosted.
    assert past.delete_file("shared-name")
    node = dht.state.nodes[0]
    node.fail()
    node.recover(wipe=True)
    stores = (ours, past, cfs)
    before = {store.store_tenant: shared.tenant_aggregates(store.store_tenant) for store in stores}
    stats = shared.compact()
    assert stats["rows_released"] > 0
    for store in stores:
        assert shared.tenant_aggregates(store.store_tenant) == before[store.store_tenant]
    # The namespaces stayed scoped: the deleted namesake is gone only for
    # its own tenant, and that tenant can re-store the name post-GC.
    assert not past.is_file_available("shared-name")
    assert shared.file_index("shared-name", ours.store_tenant) is not None
    assert shared.file_index("shared-name", cfs.store_tenant) is not None
    assert past.store_file("shared-name", 3 * MB).success
    assert past.is_file_available("shared-name")
    assert sum(_counts(store)["live_rows"] for store in stores) == shared.live_rows


# -- buffered PAST registration ------------------------------------------------------


def _queued_holders(ledger, name):
    """The holders a still-buffered PAST registration of ``name`` names (read without a flush)."""
    return next(entry[3] for entry in ledger._pending_whole if entry[0] == name)


def test_buffered_past_registration_is_exact_under_out_of_band_churn():
    """fail/recover/leave between a PAST store and the next read stay exact."""
    network, dht = _pool(24, 81)
    past = PastStore(dht, replication=2)
    assert past.store_file("movie", 5 * MB).success
    ledger = past.ledger
    # Nothing materialised yet: the registration is buffered...
    assert ledger.row_count == 0
    primary = _queued_holders(ledger, "movie")[0]
    # ...and a failure hitting a still-buffered holder is reconciled exactly
    # at the next read (the flush records the row dead-but-revivable).
    primary.fail()
    assert past.is_file_available("movie")  # the replica survives
    assert ledger.row_count > 0  # the availability read flushed the buffer
    replica = past_holders(past, "movie")[1]
    replica.fail()
    assert not past.is_file_available("movie")
    primary.recover(wipe=False)
    assert past.is_file_available("movie")

    # A store whose holder is wiped before any flush point loses the copies.
    assert past.store_file("short-lived", 4 * MB).success
    holder, second = _queued_holders(ledger, "short-lived")
    holder.fail()
    holder.recover(wipe=True)
    second.fail()
    assert not past.is_file_available("short-lived")


def test_buffered_registrations_survive_compaction_and_deletes():
    network, dht = _pool(24, 83)
    past = PastStore(dht)
    for index in range(12):
        assert past.store_file(f"f{index}", 3 * MB).success
    ledger = past.ledger
    assert ledger.active_files == 12  # aggregates are eager
    assert ledger.stored_data_bytes == 12 * 3 * MB
    # Deleting a still-buffered file flushes, then releases its rows.
    assert past.delete_file("f3")
    assert ledger.active_files == 11
    stats = ledger.compact()
    assert stats["rows_released"] > 0
    for index in range(12):
        assert past.is_file_available(f"f{index}") == (index != 3)
    # file_index flushes only when the name is actually pending.
    assert past.store_file("late", 3 * MB).success
    assert ledger.file_index("nope") is None
    assert ledger.file_index("late") is not None
    assert past.is_file_available("late")


def test_buffered_past_matches_scalar_twin_after_heavy_churn():
    """End-to-end parity: buffered ledger vs the seed holder-list walks."""
    seed_network, _ = _pool(30, 91)
    seed_store = seed_past_store(seed_network, replication=2)
    _, dht = _pool(30, 91)
    scalar, vector = (seed_store, seed_store.dht), (PastStore(dht, replication=2), dht)
    for index in range(20):
        r1 = scalar[0].store_file(f"f{index}", 4 * MB)
        r2 = vector[0].store_file(f"f{index}", 4 * MB)
        assert r1 == r2
    rng = np.random.default_rng(97)
    nodes_s = scalar[1].state.nodes
    nodes_v = vector[1].state.nodes
    for _ in range(30):
        pick = int(rng.integers(len(nodes_s)))
        action = int(rng.integers(3))
        for nodes in (nodes_s, nodes_v):
            node = nodes[pick]
            if action == 0:
                node.fail()
            elif action == 1:
                node.recover(wipe=False)
            else:
                node.recover(wipe=True)
        for index in range(20):
            name = f"f{index}"
            expected = dict_walk.past_file_available(scalar[0], name)
            assert expected == vector[0].is_file_available(name), (name, action)
            assert expected == dict_walk.past_file_available(vector[0], name)


def test_queue_rejects_duplicates_and_handles_degenerate_stores():
    network, dht = _pool(12, 99)
    shared = BlockLedger(network)
    holder = dht.state.nodes[0]
    assert holder.store_block("a", 1 * MB)  # queueing records copies that exist
    shared.queue_whole_file("a", 1 * MB, "a", [holder])
    with pytest.raises(ValueError):
        shared.queue_whole_file("a", 1 * MB, "a", [dht.state.nodes[1]])
    with pytest.raises(ValueError):
        shared.register_whole_file("a", 1 * MB, "a", [dht.state.nodes[1]])
    # Zero-holder registration goes through the immediate path: no placement, unavailable.
    shared.queue_whole_file("empty", 1 * MB, "empty", [])
    assert shared.unavailable_files == 1
    shared.flush_registrations()
    assert shared.active_files == 2


def test_whole_file_registration_reads_no_tenant_as_tenant_zero():
    """``tenant=None`` is the untagged tenant 0, as for the three sibling
    registrations -- it used to raise only after counting the file and
    indexing it under ``(None, name)``, which left the ledger inconsistent."""
    network, dht = _pool(12, 98)
    ledger = BlockLedger(network)
    holder = dht.state.nodes[0]
    assert holder.store_block("whole", 1 * MB)
    index = ledger.register_whole_file("whole", 1 * MB, "whole", [holder], tenant=None)
    assert ledger.file_index("whole") == index
    assert ledger.active_files == 1
    ledger.check_invariants()
