"""Compaction edge cases: the GC pass must be invisible to every observer.

:meth:`BlockLedger.compact` drops released rows and remaps every row id held
anywhere -- columns, per-file lists, per-placement copy lists, per-owner
indexes.  These tests drive the remap through the awkward windows: mid
failure sweep (dead-but-unreleased rows that may still revive), across
``recover(wipe=False)``, interleaved with the repair pipeline, and over the
PAST and CFS files (one chunk each, their blocks placements like ours) --
always comparing against an uncompacted twin and
the seed path: its dict walk (``tests/reference/dict_walk.py``), its placement
algorithms (``tests/reference/seed_placement.py``) and its frozen repair
impacts (``tests/golden/compaction_repair.json``).
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import dict_walk
from reference.dict_walk import past_holders
from reference.golden import load_golden
from reference.recorder import current
from reference.seed_placement import SeedCfsStore, SeedLookupView, seed_past_store

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core.block_ledger import KIND_META, KIND_PRIMARY, KIND_REPLICA
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.workloads.filetrace import MB, FileTraceConfig, generate_file_trace

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")


def _fresh_storage(node_count: int, seed: int) -> StorageSystem:
    rng = np.random.default_rng(seed)
    capacities = [max(int(c), 16 * MB) for c in rng.normal(90 * MB, 20 * MB, size=node_count)]
    network = OverlayNetwork.build(
        node_count, np.random.default_rng(seed + 1), capacities=capacities)
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
    )


def _store_trace(storage: StorageSystem, count: int, seed: int) -> list:
    trace = generate_file_trace(
        FileTraceConfig(file_count=count, mean_size=10 * MB, std_size=4 * MB, min_size=1 * MB),
        rng=np.random.default_rng(seed),
    )
    return [record.name for record in trace if storage.store_file(record.name, record.size).success]


def _availability_map(storage: StorageSystem, names: list) -> dict:
    return {name: storage.is_file_available(name) for name in names}


def _dict_scan(store) -> tuple:
    return dict_walk.live_bytes_and_count(store.dht.network)


def test_compaction_mid_failure_sweep_preserves_all_accounting():
    """Compacting between failures -- with rows dead but unreleased -- is safe."""
    compacted = _fresh_storage(50, seed=101)
    control = _fresh_storage(50, seed=101)
    names = _store_trace(compacted, 120, seed=103)
    assert names == _store_trace(control, 120, seed=103)

    victims = [node.node_id for node in compacted.dht.network.live_nodes()[::7]]
    half = len(victims) // 2
    for storage in (compacted, control):
        for victim in victims[:half]:
            storage.dht.network.node(victim).fail()
    # Deleting a few files mid-sweep gives compaction released rows to drop.
    for storage in (compacted, control):
        for name in names[::11]:
            assert storage.delete_file(name)
    kept = [name for index, name in enumerate(names) if index % 11]

    stats = compacted.ledger.compact()
    dict_walk.audit(compacted)
    assert stats["rows_released"] > 0
    assert stats["rows_after"] == stats["rows_before"] - stats["rows_released"]
    # Dead-but-unreleased rows (the in-flight sweep) must survive the GC.
    assert compacted.ledger.live_rows < stats["rows_after"]

    # Continue the sweep after compacting, then revive everyone without wiping.
    for storage in (compacted, control):
        for victim in victims[half:]:
            storage.dht.network.node(victim).fail()
    assert _availability_map(compacted, kept) == _availability_map(control, kept)
    assert compacted.unavailable_file_count() == control.unavailable_file_count()
    dict_walk.audit(compacted)

    for storage in (compacted, control):
        for victim in victims:
            storage.dht.network.node(victim).recover(wipe=False)
    assert _availability_map(compacted, kept) == _availability_map(control, kept)
    assert compacted.unavailable_file_count() == 0
    assert compacted.usage_summary() == control.usage_summary()
    assert (compacted.ledger.live_bytes, compacted.ledger.live_rows) == _dict_scan(compacted)
    dict_walk.audit(compacted)


def test_recover_without_wipe_after_compaction_revives_exact_rows():
    """recover(wipe=False) on remapped rows restores the pre-failure state."""
    storage = _fresh_storage(40, seed=111)
    names = _store_trace(storage, 80, seed=113)
    ledger = storage.ledger
    baseline = (ledger.live_bytes, ledger.live_rows, storage.unavailable_file_count())

    victim = storage.dht.network.live_nodes()[3]
    victim_rows = len(current().blocks(victim))
    victim.fail()
    for name in names[::9]:
        assert storage.delete_file(name)
    stats = ledger.compact()
    assert stats["rows_released"] > 0

    recovered_names = set(ledger.row_name(row) for row in ledger.recovery_rows(victim))
    assert recovered_names == set(current().blocks(victim))
    assert len(recovered_names) <= victim_rows  # deleted files released theirs

    victim.recover(wipe=False)
    assert storage.unavailable_file_count() == 0
    survivors = [name for index, name in enumerate(names) if index % 9]
    assert all(storage.is_file_available(name) for name in survivors)
    assert (ledger.live_bytes, ledger.live_rows) == _dict_scan(storage)
    assert ledger.live_rows < baseline[1]  # the deletions really released rows
    assert baseline[2] == 0


def test_repair_pipeline_keeps_working_across_compactions():
    """handle_failure against compacted row ids matches the scalar seed twin."""
    scalar = load_golden("compaction_repair.json")
    vector = _fresh_storage(60, seed=121)
    names = _store_trace(vector, 140, seed=123)
    assert names == scalar["stored"]
    manager = RecoveryManager(vector)

    victims = list(vector.dht.network.live_ids())
    np.random.default_rng(129).shuffle(victims)
    for round_no, victim in enumerate(victims[:18]):
        impact_v = manager.handle_failure(victim)
        assert [impact_v.bytes_regenerated, impact_v.data_bytes_lost, impact_v.blocks_lost] == (
            scalar["impacts"][round_no]
        ), victim
        if round_no % 5 == 4:
            vector.ledger.compact()  # repair re-points leave released rows behind
        dict_walk.audit(vector)
    assert manager.totals() == scalar["totals"]
    usage_v = [[n.node_id, n.used] for n in vector.dht.network.live_nodes()]
    assert usage_v == scalar["usage"]


def _baseline_pair(node_count: int, seed: int, make_seed, make):
    """The seed reference and the production instance of a baseline over twin pools."""
    stores = []
    for factory in (make_seed, make):
        rng = np.random.default_rng(seed)
        capacities = [max(int(c), 16 * MB) for c in rng.normal(80 * MB, 20 * MB, size=node_count)]
        network = OverlayNetwork.build(
            node_count, np.random.default_rng(seed + 1), capacities=capacities,
        )
        stores.append(factory(network))
    return stores


def _available(scheme: str, store, name: str) -> bool:
    """The seed holder-list / per-block walk over either representation."""
    walk = dict_walk.past_file_available if scheme == "past" else dict_walk.cfs_file_available
    return walk(store, name)


@pytest.mark.parametrize("scheme", ["past", "cfs"])
def test_baseline_replica_row_release_parity(scheme):
    """Deleting replicated baseline files releases exactly the dict-path copies."""
    if scheme == "past":
        scalar, vector = _baseline_pair(
            30, 201,
            lambda net: seed_past_store(net, replication=3, retries=2),
            lambda net: PastStore(DHTView(net), replication=3, retries=2),
        )
    else:
        scalar, vector = _baseline_pair(
            30, 207,
            lambda net: SeedCfsStore(SeedLookupView(net), block_size=2 * MB, replication=2,
                                     retries_per_block=2),
            lambda net: CfsStore(DHTView(net), block_size=2 * MB, replication=2,
                                 retries_per_block=2),
        )
    names = [f"file-{index}" for index in range(24)]
    for name in names:
        r1 = scalar.store_file(name, 5 * MB)
        r2 = vector.store_file(name, 5 * MB)
        assert r1 == r2, name

    ledger = vector.ledger
    # Reading the raw columns bypasses every flush point, so materialise the
    # buffered PAST registrations first (a no-op for CFS).
    ledger.flush_registrations()
    # Replica rows are first-class: the ledger carries one row per copy.
    kinds = ledger._kind[: ledger.row_count]
    assert (kinds == KIND_REPLICA).sum() > 0
    assert (kinds == KIND_PRIMARY).sum() > 0
    assert (kinds == KIND_META).sum() == 0

    def node_dicts(store):
        return {
            node.node_id: dict(current().blocks(node))
            for node in store.dht.network.live_nodes()
        }

    for name in names[::3]:
        assert scalar.delete_file(name) and vector.delete_file(name)
        assert _available(scheme, scalar, name) == vector.is_file_available(name) is False
    assert node_dicts(scalar) == node_dicts(vector)
    scan_bytes, scan_count = _dict_scan(vector)
    assert ledger.live_bytes == scan_bytes
    assert ledger.live_rows == scan_count

    stats = ledger.compact()
    assert stats["rows_released"] > 0
    survivors = [name for index, name in enumerate(names) if index % 3]
    for name in survivors:
        assert _available(scheme, scalar, name) == vector.is_file_available(name) is True
        assert _available(scheme, vector, name)
    # Post-compaction, failing a holder still flips availability in lockstep.
    sample = survivors[0]
    if scheme == "past":
        holders = past_holders(vector, sample)
        scalar_holders = past_holders(scalar, sample)
    else:
        holders = [entry[1] for entry in vector.block_entries(sample)]
        holders += [r for entry in vector.block_entries(sample) for r in entry[3]]
        scalar_holders = [entry[1] for entry in scalar.block_entries(sample)]
        scalar_holders += [r for entry in scalar.block_entries(sample) for r in entry[3]]
    for node in holders:
        node.fail()
    for node in scalar_holders:
        node.fail()
    assert vector.is_file_available(sample) == _available(scheme, scalar, sample) is False
    assert not _available(scheme, vector, sample)


@pytest.mark.parametrize("scheme", ["past", "cfs"])
def test_compaction_preserves_baseline_bookkeeping_after_wipe(scheme):
    """A surviving baseline file's bookkeeping must outlive the GC of its wiped rows.

    The seed tuple bookkeeping never forgets a placed block, so after a
    holder comes back wiped and the ledger compacts, ``chunk_sizes`` /
    ``block_entries`` (and holder identities) must still match the scalar
    twin block for block.
    """
    if scheme == "past":
        scalar, vector = _baseline_pair(
            30, 221,
            lambda net: seed_past_store(net, replication=2),
            lambda net: PastStore(DHTView(net), replication=2),
        )
    else:
        scalar, vector = _baseline_pair(
            30, 227,
            lambda net: SeedCfsStore(SeedLookupView(net), block_size=2 * MB),
            lambda net: CfsStore(DHTView(net), block_size=2 * MB),
        )
    assert scalar.store_file("wiped", 7 * MB).success
    assert vector.store_file("wiped", 7 * MB).success

    def snapshot(store):
        if scheme == "past":
            return [(store.files["wiped"], [h.node_id for h in past_holders(store, "wiped")])]
        return [
            (name, primary.node_id, size, [r.node_id for r in replicas])
            for name, primary, size, replicas in store.block_entries("wiped")
        ]

    if scheme == "past":
        victims_v = [past_holders(vector, "wiped")[0]]
        victims_s = [past_holders(scalar, "wiped")[0]]
    else:
        victims_v = [vector.block_entries("wiped")[0][1]]
        victims_s = [scalar.block_entries("wiped")[0][1]]
    for node in victims_v + victims_s:
        node.fail()
        node.recover(wipe=True)  # releases the ledger rows on the vector side

    stats = vector.ledger.compact()
    assert snapshot(scalar) == snapshot(vector)
    if scheme == "cfs":
        assert scalar.chunk_sizes("wiped") == vector.chunk_sizes("wiped")
        assert len(vector.chunk_sizes("wiped")) == 4  # nothing forgotten
    assert _available(scheme, scalar, "wiped") == vector.is_file_available("wiped")
    assert _available(scheme, vector, "wiped") == vector.is_file_available("wiped")
    # Deleting the file lets the GC collect the rows the file still had.
    assert vector.delete_file("wiped")
    assert vector.ledger.compact()["rows_after"] < stats["rows_after"] + 1


def test_shared_ledger_rejects_duplicate_names_before_placing():
    """A name registered by another store on a shared ledger fails cleanly."""
    from repro.core.block_ledger import BlockLedger
    from repro.overlay.dht import DHTView as _DHTView

    rng = np.random.default_rng(501)
    capacities = [max(int(c), 16 * MB) for c in rng.normal(80 * MB, 20 * MB, size=24)]
    network = OverlayNetwork.build(
        24, np.random.default_rng(502), capacities=capacities)
    dht = _DHTView(network)
    shared = BlockLedger(network)
    past = PastStore(dht, ledger=shared)
    cfs = CfsStore(dht, block_size=2 * MB, ledger=shared)
    assert past.store_file("x", 5 * MB).success
    used_before = dht.total_used()
    lookups_before = dht.lookup_count
    result = cfs.store_file("x", 5 * MB)
    assert not result.success
    assert result.failure_reason == "file already stored"
    assert result.lookups == 0
    # Nothing was placed and nothing was charged: the rejection is pre-flight.
    assert dht.total_used() == used_before
    assert dht.lookup_count == lookups_before
    assert "x" not in cfs.files
    # The reverse direction is symmetric.
    assert cfs.store_file("y", 5 * MB).success
    assert not past.store_file("y", 5 * MB).success


def test_compaction_on_clean_ledger_is_a_no_op():
    storage = _fresh_storage(20, seed=301)
    _store_trace(storage, 30, seed=303)
    ledger = storage.ledger
    before = (ledger.row_count, ledger.live_rows, [ledger.row_name(row) for row in range(5)])
    stats = ledger.compact()
    assert stats["rows_released"] == 0
    assert (ledger.row_count, ledger.live_rows, [ledger.row_name(row) for row in range(5)]) == before


def test_compaction_shrinks_allocated_columns():
    """GC actually returns memory: allocation tracks the live row count."""
    storage = _fresh_storage(30, seed=311)
    names = _store_trace(storage, 200, seed=313)
    ledger = storage.ledger
    allocated_before = ledger.memory_footprint()["allocated_rows"]
    for name in names:
        assert storage.delete_file(name)
    stats = ledger.compact()
    assert stats["rows_after"] == 0
    assert ledger.memory_footprint()["allocated_rows"] <= allocated_before
    # The ledger stays usable after a full drain.
    assert _store_trace(storage, 20, seed=317)
    assert storage.unavailable_file_count() == 0


def test_the_digest_cache_grows_on_write_and_compaction_gathers_it_with_the_rows():
    """Ingest hashes no name, so the digest cache stays empty; a repair writes
    digests (at most as far as the row columns reach), and a compaction keeps
    exactly the kept rows' digests."""
    storage = _fresh_storage(30, 21)
    names = _store_trace(storage, 40, 22)
    ledger = storage.ledger
    assert len(ledger._digest) == len(ledger._digest_known) == 0
    recovery = RecoveryManager(storage)
    for node in list(storage.dht.state.nodes[:3]):
        recovery.handle_failure(node.node_id)
    assert 0 < len(ledger._digest) == len(ledger._digest_known) <= len(ledger._owner)
    for name in names[:5]:
        assert storage.delete_file(name)
    known = np.flatnonzero(ledger._digest_known[: ledger.row_count])
    kept_known = sorted(ledger.row_name(row) for row in known if not ledger.row_released(row))
    assert len(kept_known) < known.size  # the failed nodes' and deleted files' rows go
    ledger.compact()
    assert len(ledger._digest) <= ledger.row_count
    assert sorted(ledger.row_name(row) for row in np.flatnonzero(ledger._digest_known)) == kept_known
    ledger.check_invariants()
