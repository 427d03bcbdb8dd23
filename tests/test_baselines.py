"""Unit tests for the PAST and CFS baseline implementations."""

from __future__ import annotations

import numpy as np
import pytest
from reference.dict_walk import past_holders
from reference.recorder import current

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.experiments.storage_insertion import InsertionStats
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import StoreResult

MB = 1 << 20

# The holder walks below read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")


@pytest.fixture
def network() -> OverlayNetwork:
    return OverlayNetwork.build(24, np.random.default_rng(8), capacities=[64 * MB] * 24)


@pytest.fixture
def dht(network) -> DHTView:
    return DHTView(network)


# -- PAST --------------------------------------------------------------------------------
def test_past_store_places_whole_file_on_one_node(dht):
    past = PastStore(dht)
    result = past.store_file("movie", 30 * MB)
    assert result.success
    assert result.chunk_count == 1
    assert result.lookups == 1
    name, holders = past.files["movie"], past_holders(past, "movie")
    assert len(holders) == 1
    assert current().has_block(holders[0], name)


@pytest.mark.parametrize("size", [-5, float("nan"), float("inf")])
def test_past_rejects_a_negative_or_non_finite_size(dht, size):
    past = PastStore(dht)
    with pytest.raises(ValueError):
        past.store_file("bad", size)
    # Rejected before any lookup: no salted retries are spent on it.
    assert past.total_lookups == 0 and dht.lookup_count == 0
    assert not past.files


def test_past_cannot_store_file_larger_than_one_node(dht):
    past = PastStore(dht, retries=5)
    result = past.store_file("giant", 100 * MB)  # every node holds only 64 MB
    assert not result.success
    assert result.lookups == 6


def test_past_salted_retry_finds_space(dht, network):
    past = PastStore(dht, retries=4)
    # Fill the primary target of "unlucky" so the first attempt fails.
    from repro.overlay.ids import key_for

    primary = dht.lookup(key_for("unlucky"))
    primary.used = primary.capacity
    result = past.store_file("unlucky", 10 * MB)
    assert result.success
    assert result.lookups >= 2
    stored_name, holders = past.files["unlucky"], past_holders(past, "unlucky")
    assert holders[0].node_id != primary.node_id or stored_name != "unlucky"


def test_past_no_retries_fails_on_full_primary(dht):
    from repro.overlay.ids import key_for

    past = PastStore(dht, retries=0)
    primary = dht.lookup(key_for("unlucky"))
    primary.used = primary.capacity
    assert not past.store_file("unlucky", 10 * MB).success


def test_past_replication_places_k_copies(dht):
    past = PastStore(dht, replication=3)
    result = past.store_file("copied", 5 * MB)
    assert result.success
    holders = past_holders(past, "copied")
    assert len(holders) == 3
    assert result.stored_bytes == 3 * 5 * MB


def test_past_availability_and_delete(dht, network):
    past = PastStore(dht, replication=2)
    past.store_file("hafile", 5 * MB)
    assert past.is_file_available("hafile")
    holders = past_holders(past, "hafile")
    for holder in holders:
        holder.fail()
    assert not past.is_file_available("hafile")
    assert past.delete_file("hafile")
    assert not past.delete_file("hafile")
    assert not past.is_file_available("never")


def test_past_duplicate_store_rejected(dht):
    past = PastStore(dht)
    assert past.store_file("dup", MB).success
    assert not past.store_file("dup", MB).success


def test_past_parameter_validation(dht):
    with pytest.raises(ValueError):
        PastStore(dht, replication=0)
    with pytest.raises(ValueError):
        PastStore(dht, retries=-1)


# -- CFS ------------------------------------------------------------------------------------
def test_cfs_splits_into_fixed_blocks(dht):
    cfs = CfsStore(dht, block_size=4 * MB)
    result = cfs.store_file("dataset", 30 * MB)
    assert result.success
    assert result.chunk_count == 8  # ceil(30/4)
    sizes = cfs.chunk_sizes("dataset")
    assert sizes[:-1] == [4 * MB] * 7
    assert sizes[-1] == 30 * MB - 7 * 4 * MB
    assert result.lookups >= 8


@pytest.mark.parametrize("size", [-5, float("nan"), float("inf")])
def test_cfs_rejects_a_negative_or_non_finite_size(dht, size):
    cfs = CfsStore(dht)
    with pytest.raises(ValueError):
        cfs.store_file("bad", size)
    # Nothing stored, nothing looked up, and the ledger never saw the size.
    assert not cfs.files and cfs.total_lookups == 0 and dht.lookup_count == 0
    assert cfs.ledger.stored_data_bytes == 0 and cfs.ledger.active_files == 0


def test_cfs_block_count_for(dht):
    cfs = CfsStore(dht, block_size=4 * MB)
    assert cfs.block_count_for(0) == 0
    assert cfs.block_count_for(1) == 1
    assert cfs.block_count_for(4 * MB) == 1
    assert cfs.block_count_for(4 * MB + 1) == 2


def test_cfs_stores_file_larger_than_any_node(dht):
    cfs = CfsStore(dht, block_size=4 * MB, retries_per_block=8)
    result = cfs.store_file("large", 200 * MB)
    assert result.success


def test_cfs_failure_rolls_back_by_default(dht, network):
    cfs = CfsStore(dht, block_size=4 * MB, retries_per_block=0)
    # Leave almost no room anywhere.
    for node in network.live_nodes():
        node.used = node.capacity - 1 * MB
    used_before = dht.total_used()
    result = cfs.store_file("wontfit", 40 * MB)
    assert not result.success
    assert dht.total_used() == used_before


def test_cfs_replication_on_successors(dht):
    cfs = CfsStore(dht, block_size=4 * MB, replication=2)
    cfs.store_file("replicated", 8 * MB)
    entries = cfs.block_entries("replicated")
    assert len(entries) == 2
    for name, primary, size, replicas in entries:
        assert len(replicas) == 1
        assert current().has_block(replicas[0], name)


def test_cfs_availability_and_delete(dht):
    cfs = CfsStore(dht, block_size=4 * MB)
    cfs.store_file("avail", 12 * MB)
    assert cfs.is_file_available("avail")
    name, primary, _, _ = cfs.block_entries("avail")[0]
    primary.fail()
    assert not cfs.is_file_available("avail")
    assert cfs.delete_file("avail")
    assert not cfs.is_file_available("avail")
    assert not cfs.delete_file("avail")


def test_cfs_duplicate_and_validation(dht):
    cfs = CfsStore(dht)
    assert cfs.store_file("dup", MB).success
    assert not cfs.store_file("dup", MB).success
    with pytest.raises(ValueError):
        CfsStore(dht, block_size=0)
    with pytest.raises(ValueError):
        CfsStore(dht, replication=0)
    with pytest.raises(ValueError):
        CfsStore(dht, retries_per_block=-1)


# -- shared ledger -------------------------------------------------------------------------------
def test_past_and_cfs_share_one_ledger(dht, network):
    """Both baselines on one BlockLedger: O(1) answers equal the holder walks."""
    from repro.core import BlockLedger

    shared = BlockLedger(network)
    past = PastStore(dht, replication=2, ledger=shared)
    cfs = CfsStore(dht, block_size=2 * MB, replication=2, ledger=shared)
    assert past.store_file("movie", 10 * MB).success
    assert cfs.store_file("dataset", 9 * MB).success
    assert past.ledger is cfs.ledger is shared
    assert shared.active_files == 2

    def walk_past(name):
        stored, holders = past.files[name], past_holders(past, name)
        return any(current().has_block(h, stored) for h in holders)

    def walk_cfs(name):
        return all(
            any(current().has_block(h, block) for h in [primary, *replicas])
            for block, primary, _, replicas in cfs.block_entries(name)
        )

    victims = [past_holders(past, "movie")[0]] + [e[1] for e in cfs.block_entries("dataset")]
    for node in victims:
        node.fail()
    assert past.is_file_available("movie") == walk_past("movie")
    assert cfs.is_file_available("dataset") == walk_cfs("dataset")
    for node in victims:
        node.recover(wipe=False)
    assert past.is_file_available("movie") == walk_past("movie") is True
    assert cfs.is_file_available("dataset") == walk_cfs("dataset") is True

    # Delete both, compact the shared ledger to empty, re-store the same names.
    assert past.delete_file("movie") and cfs.delete_file("dataset")
    stats = shared.compact()
    assert stats["rows_after"] == 0 and stats["rows_released"] > 0
    assert past.store_file("movie", 10 * MB).success
    assert cfs.store_file("dataset", 9 * MB).success
    assert past.is_file_available("movie") and cfs.is_file_available("dataset")


# -- InsertionStats ------------------------------------------------------------------------------
def test_insertion_stats_tracks_failures_and_chunks():
    stats = InsertionStats()
    stats.record(
        StoreResult("a", 100, True, 100, 4, 4, 4), chunk_sizes=[25, 25, 25, 25]
    )
    stats.record(StoreResult("b", 200, False, 0, 0, 0, 3))
    assert stats.attempts == 2
    assert stats.failures == 1
    assert stats.failure_fraction == 0.5
    assert stats.failed_data_fraction == pytest.approx(200 / 300)
    assert stats.lookups == 7
    table1 = stats.chunk_stats()
    assert table1["mean_chunks_per_file"] == 4 and table1["std_chunks_per_file"] == 0
    assert table1["mean_chunk_size"] == 25 and table1["std_chunk_size"] == 0


def test_insertion_stats_empty():
    stats = InsertionStats()
    assert stats.failure_fraction == 0.0
    assert stats.failed_data_fraction == 0.0
    assert set(stats.chunk_stats().values()) == {0.0}
