"""The ledger's row indexes are a lazily sorted view of its columns.

A property test of :class:`~repro.core.block_ledger._RowIndex` on its own,
then one directed test per trap the columns-as-index design has to get right
(the letters follow ISSUE 17): an index never forgets a released row, sorts
happen inside lookups, and compaction only resets.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core import block_ledger
from repro.core.block_ledger import _RowIndex
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork

MB = 1 << 20


def _storage(node_count: int = 24, seed: int = 7, block_replication: int = 1) -> StorageSystem:
    network = OverlayNetwork.build(
        node_count, np.random.default_rng(seed), capacities=[64 * MB] * node_count,
    )
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=block_replication),
    )


def _store(storage: StorageSystem, count: int, prefix: str = "f") -> list:
    names = [f"{prefix}{index}" for index in range(count)]
    for name in names:
        assert storage.store_file(name, 3 * MB).success
    return names


def _spare_node(storage: StorageSystem, name: str, avoid=()):
    return next(
        node for node in storage.dht.state.nodes
        if node.alive and name not in node.stored_blocks and node.node_id not in avoid
    )


def _repoint(storage: StorageSystem, placement_idx: int, old_node, new_node) -> int:
    ledger = storage.ledger
    row = next(
        row for row in ledger.recovery_rows(old_node)
        if ledger.row_fields(row)[2] == placement_idx
    )
    name, size = ledger.row_name(row), ledger.row_fields(row)[3]
    assert new_node.store_block(name, size)
    return ledger.replace_copy(row, new_node, size, None, block_ledger.KIND_PRIMARY)


# -- _RowIndex alone ---------------------------------------------------------------
@settings(max_examples=3 * settings.default.max_examples // 2, deadline=None)
@given(
    limit=st.integers(0, 8),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.lists(st.integers(-1, 6), min_size=1, max_size=6)),
            st.tuples(st.just("lookup"), st.integers(0, 8)),
            st.tuples(st.just("reset"), st.integers(0, 6)),
        ),
        max_size=40,
    ),
)
def test_row_index_equals_brute_force(limit, ops):
    """Any interleaving of appends, lookups and compaction-style resets, over an
    int32 column as the ledger's are."""
    saved = block_ledger._OVERFLOW_LIMIT
    block_ledger._OVERFLOW_LIMIT = limit
    try:
        index, column, previous = _RowIndex("keys"), np.zeros(0, dtype=np.int32), None

        def lookup(key):  # the index reads ``row_count`` and its column off a ledger
            return index.lookup(SimpleNamespace(row_count=len(column), keys=column), key)

        for op, arg in ops:
            if op == "append":
                column = np.concatenate([column, np.asarray(arg, dtype=np.int32)])
            elif op == "reset":  # what compact() does: drop rows, then reset
                column = column[column != arg]
                index.reset()
            else:
                rows = lookup(arg)
                assert rows == np.flatnonzero(column == arg).tolist()
                assert rows is not previous
                again = lookup(arg)
                assert again == rows and again is not rows
                rows.append(-7)  # the caller owns its list
                assert -7 not in lookup(arg)
                previous = rows
                assert index.seen == len(column) and index.built <= index.seen
    finally:
        block_ledger._OVERFLOW_LIMIT = saved


def test_the_sort_key_of_an_int32_column_is_widened_past_the_int32_range():
    """70 000 rows with keys up to 40 000: the packed sort key ``key * n + row``
    reaches 2.8e9, which int32 arithmetic wraps; the index still equals one
    stable argsort of the column."""
    n = 70_000
    column = np.random.default_rng(3).integers(-1, 40_000, size=n).astype(np.int32)
    assert int(column.max()) * n > 2 ** 31
    index = _RowIndex("keys")
    ledger = SimpleNamespace(row_count=n, keys=column)
    index.lookup(ledger, 0)
    assert index.built == n  # one sort, no overflow
    order = np.argsort(column, kind="stable")
    assert index.flat == order[np.count_nonzero(column < 0) :].tolist()
    for key in (0, 1, 20_000, int(column.max())):
        assert index.lookup(ledger, key) == np.flatnonzero(column == key).tolist()


def test_a_registry_grown_past_the_id_limit_raises_and_writes_nothing_past_it(monkeypatch):
    """Ids and counts are int32: growing a registry past ``_ID_LIMIT`` entries
    raises before any count or column passes the limit."""
    limit = 1500
    monkeypatch.setattr(block_ledger, "_ID_LIMIT", limit)
    network = OverlayNetwork.build(64, np.random.default_rng(7), capacities=[20 * 1024 * MB] * 64)
    cfs = CfsStore(DHTView(network), block_size=4 * MB)
    stored = 0
    with pytest.raises(OverflowError):
        for index in range(30):
            assert cfs.store_file(f"file-{index}", 244 * MB).success
            stored += 1
    assert stored == limit // 61  # 61 blocks a file: the next file's placements do not fit
    ledger = cfs.ledger
    assert ledger.placement_count == ledger.row_count == 61 * stored
    columns = (*block_ledger._ROW_COLUMNS, *block_ledger._PLACEMENT_COLUMNS,
               *block_ledger._CHUNK_COLUMNS, *block_ledger._FILE_COLUMNS,
               *block_ledger._SLOT_COLUMNS)
    assert max(len(getattr(ledger, attr)) for attr in columns) == limit
    assert max(ledger.row_count, ledger.placement_count, ledger.chunk_count,
               ledger.file_count, len(ledger._slot_nodes)) <= limit


# -- (a) a re-pointed row stays in the column: consumers must skip released rows ----
@pytest.mark.parametrize("limit", [0, block_ledger._OVERFLOW_LIMIT])
def test_placement_repointed_twice_skips_the_released_holders(monkeypatch, limit):
    monkeypatch.setattr(block_ledger, "_OVERFLOW_LIMIT", limit)
    storage = _storage()
    name = _store(storage, 2)[0]
    ledger = storage.ledger
    chunk = storage.files[name].chunks[0]
    p = ledger.placement_for(chunk.ledger_index, 0)
    first = storage.dht.network.node(chunk.placements[0].node_id)
    block = chunk.placements[0].block_name
    second = _spare_node(storage, block)
    _repoint(storage, p, first, second)
    # The old holder crashes and returns unwiped: its released row must neither
    # be killed again nor revived into a second live copy.
    first.fail()
    assert ledger.live_copy_owner(p) is second
    first.recover(wipe=False)
    assert ledger.placement_live_copies(p) == 1
    # Back onto the first holder (a fresh row next to its released one), then
    # away again: the re-point must release the fresh row, not the stale one.
    assert first.remove_block(block, chunk.placements[0].size)  # its orphan of the block
    _repoint(storage, p, second, first)
    second.fail()
    assert ledger.live_copy_owner(p) is first
    third = _spare_node(storage, block, avoid={second.node_id})
    _repoint(storage, p, first, third)
    assert ledger.live_copy_owner(p) is third
    assert ledger.placement_live_copies(p) == 1
    assert ledger.recovery_rows(first) == [
        row for row in ledger.recovery_rows(first) if ledger.row_fields(row)[2] != p
    ]
    ledger.check_invariants()


# -- (b) + the bug it hid: retiring a deleted file's placements from the histogram ---
@pytest.mark.parametrize("how", ["wiped", "wiped, compacted", "departed, compacted"])
def test_deleting_a_file_retires_placements_that_have_no_live_or_no_rows_at_all(how):
    """Every placement of a deleted file leaves the replication histogram.

    Without the compaction the dead placement is reachable only through
    *released* rows (retirement derived from the file's unreleased rows skips
    it).  With it no row is left at all -- at fb4206a the histogram kept the
    placement in bin 0 for ever, because retirement was derived from rows;
    "departed, compacted" is the shrunk example the state machine found.
    """
    storage = _storage()
    names = _store(storage, 3)
    ledger = storage.ledger
    placement = storage.files[names[0]].chunks[0].placements[0]
    holder = storage.dht.network.node(placement.node_id)
    if how.startswith("wiped"):
        holder.fail()
        holder.recover(wipe=True)
    else:
        storage.dht.remove(holder.node_id)
        storage.dht.network.leave(holder.node_id)
    assert ledger.replication_histogram()[0] >= 1  # every copy is gone for good
    if how.endswith("compacted"):
        assert ledger.compact()["rows_released"] > 0
    for name in names:
        assert storage.delete_file(name)
    assert ledger.replication_histogram().sum() == 0
    ledger.check_invariants()


# -- (c) file_rows of a removed file: released rows until the next compaction --------
def test_file_rows_is_a_fresh_list_and_keeps_released_rows_until_compaction():
    storage = _storage()
    names = _store(storage, 2)
    ledger = storage.ledger
    f = ledger.file_index(names[0])
    rows = ledger.file_rows(f)
    assert rows == sorted(rows) and isinstance(rows, list)
    assert ledger.file_rows(f) is not rows
    assert storage.delete_file(names[0])
    assert ledger.file_index(names[0]) is None
    assert ledger.file_rows(f) == rows
    assert all(ledger._released[row] for row in rows)
    ledger.compact()
    assert ledger.file_rows(f) == []
    ledger.check_invariants()


# -- (d) keys born after the sort ---------------------------------------------------
def test_rows_of_keys_that_did_not_exist_at_the_last_sort(monkeypatch):
    monkeypatch.setattr(block_ledger, "_OVERFLOW_LIMIT", 8)
    storage = _storage()
    _store(storage, 4)
    ledger = storage.ledger
    holders = {node.node_id for node in ledger._slot_nodes}
    fresh = next(node for node in storage.dht.state.nodes if node.node_id not in holders)
    some = ledger._slot_nodes[0]
    assert ledger.recovery_rows(some) and ledger.file_rows(0)  # sorts all but by_placement
    assert ledger.live_copy_owner(0) is not None
    sorted_at = ledger._by_owner.built
    assert sorted_at == ledger.row_count > 8
    # A new file (new file key, new placement keys) and a new owner slot.
    name = _store(storage, 1, prefix="late")[0]
    f = ledger.file_index(name)
    cat_row = ledger.file_rows(f)[-1]  # a copy of the file's CAT, re-created on ``fresh``
    assert fresh.store_block(ledger.row_name(cat_row), ledger.row_fields(cat_row)[3])
    meta_row = ledger.restore_meta_copy(fresh, cat_row)
    assert ledger._by_owner.built == sorted_at
    assert f + 1 >= len(ledger._by_file.offsets)
    assert ledger.file_rows(f) == np.flatnonzero(ledger._file[: ledger.row_count] == f).tolist()
    assert ledger.recovery_rows(fresh) == [meta_row]
    p = ledger.placement_for(storage.files[name].chunks[0].ledger_index, 0)
    assert p + 1 >= len(ledger._by_placement.offsets)
    assert ledger.live_copy_owner(p).node_id == storage.files[name].chunks[0].placements[0].node_id
    ledger.check_invariants()


# -- (e) a sort in the middle of a repair -------------------------------------------
def test_repair_is_identical_when_every_lookup_sorts(monkeypatch):
    """The repair loop iterates a list it holds while its own re-points sort."""
    def run(limit):
        monkeypatch.setattr(block_ledger, "_OVERFLOW_LIMIT", limit)
        storage = _storage(block_replication=2)
        _store(storage, 12)
        recovery = RecoveryManager(storage)
        held = storage.ledger.recovery_rows(storage.dht.state.nodes[3])
        snapshot = list(held)
        for node in list(storage.dht.state.nodes[:6]):
            recovery.handle_failure(node.node_id)
        assert held == snapshot
        storage.ledger.check_invariants()
        return (
            [dataclasses.astuple(impact) for impact in recovery.impacts],
            [storage.ledger.recovery_rows(node) for node in storage.dht.network.nodes()],
        )

    assert run(0) == run(3) == run(10 ** 9)


# -- (f) compaction between a failure and the unwiped return ------------------------
def test_rows_dead_across_a_compaction_revive_through_the_rebuilt_index():
    storage = _storage()
    names = _store(storage, 8)
    ledger = storage.ledger
    victims = [node for node in storage.dht.state.nodes if ledger.recovery_rows(node)][:5]
    live_rows = ledger.live_rows
    for node in victims:
        node.fail()
    assert ledger.live_rows < live_rows
    assert storage.delete_file(names[0])  # released rows: compaction moves row ids
    assert ledger.compact()["rows_released"] > 0
    for node in victims:
        node.recover(wipe=False)
    ledger.check_invariants()
    assert ledger.live_rows == int(np.count_nonzero(~ledger._released[: ledger.row_count]))
    assert ledger.unavailable_files == 0
    for name in names[1:]:
        assert storage.is_file_available(name)
    for node in victims:
        rows = ledger.recovery_rows(node)
        assert {ledger.row_name(row) for row in rows} <= set(node.stored_blocks)
        assert all(ledger.row_owner(row) is node for row in rows)


# -- (g) buffered whole-file registrations are flushed before a lookup -------------
def test_pending_whole_file_rows_are_visible_to_every_lookup():
    storage = _storage()
    past = PastStore(storage.dht, replication=2, ledger=storage.ledger, tenant="past")
    assert past.store_file("whole", 2 * MB).success
    ledger = storage.ledger
    assert ledger._pending_whole and ledger.row_count == 0
    holder = next(entry[3][0] for entry in ledger._pending_whole if entry[0] == "whole")
    rows = ledger.recovery_rows(holder)
    assert not ledger._pending_whole and len(rows) == 1
    assert past.store_file("whole2", 2 * MB).success
    assert ledger._pending_whole
    f = ledger.file_index("whole", past.store_tenant)
    assert ledger.file_rows(f) == [0, 1] and not ledger._pending_whole
    ledger.check_invariants()


# -- (h) a compaction with nothing to drop leaves the indexes alone ----------------
def test_compact_without_released_rows_keeps_the_sorted_indexes(monkeypatch):
    monkeypatch.setattr(block_ledger, "_OVERFLOW_LIMIT", 8)
    storage = _storage()
    _store(storage, 4)
    ledger = storage.ledger
    assert ledger.recovery_rows(ledger._slot_nodes[0])
    flat, built = ledger._by_owner.flat, ledger._by_owner.built
    assert built == ledger.row_count
    stats = ledger.compact()
    assert stats["rows_released"] == 0 and stats["rows_after"] == built
    assert ledger._by_owner.flat is flat and ledger._by_owner.built == built


# -- memory accounting ---------------------------------------------------------------
def _traced(action) -> int:
    """The bytes ``action()`` leaves allocated, as ``tracemalloc`` counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_memory_footprint_counts_the_index_lists_and_the_chunk_columns(monkeypatch):
    """``index_bytes`` is the row indexes' list slots and the int objects they
    hold, within 10 % of what ``tracemalloc`` counts: once all three are sorted,
    then for the rows a later lookup reads into the overflow."""
    monkeypatch.setattr(block_ledger, "_OVERFLOW_LIMIT", 2000)
    network = OverlayNetwork.build(48, np.random.default_rng(7), capacities=[4096 * MB] * 48)
    storage = StorageSystem(
        DHTView(network), codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    ledger = storage.ledger
    indexes = (ledger._by_owner, ledger._by_file, ledger._by_placement)
    empty = ledger.memory_footprint()
    assert empty["index_bytes"] == 0
    _store(storage, 600)
    ingested = ledger.memory_footprint()
    assert ingested["index_bytes"] == 0  # ingest builds nothing

    def look_up():
        ledger.recovery_rows(ledger._slot_nodes[0])
        ledger.file_rows(0)
        ledger.live_copy_owner(0)

    sorted_bytes = _traced(look_up)
    assert all(index.built == index.seen == ledger.row_count for index in indexes)
    footprint = ledger.memory_footprint()
    assert footprint["index_bytes"] == pytest.approx(sorted_bytes, rel=0.1)
    assert footprint["column_bytes"] == ingested["column_bytes"]  # an index adds no column
    _store(storage, 150, prefix="late")
    overflow_bytes = _traced(look_up)
    assert all(0 < index.seen - index.built <= 2000 for index in indexes)
    grown = ledger.memory_footprint()["index_bytes"] - footprint["index_bytes"]
    assert grown == pytest.approx(overflow_bytes, rel=0.1)
    assert set(empty) == {"row_count", "live_rows", "released_rows", "allocated_rows",
                          "column_bytes", "index_bytes", "name_bytes"}
