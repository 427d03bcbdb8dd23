"""Per-node block caches: LRU semantics, serve-path hits, degraded accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import ClusterSession
from repro.core.cache import CacheManager, NodeBlockCache
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork

MB = 1 << 20


def _session(seed: int = 3, nodes: int = 48) -> ClusterSession:
    return ClusterSession(nodes, seed=seed, capacities=[1 << 32] * nodes,
                          bandwidth_mb_s=8.0)


# ------------------------------------------------------------- NodeBlockCache --
def test_lru_evicts_least_recently_used_first():
    cache = NodeBlockCache(100)
    assert cache.admit("a", 40) == []
    assert cache.admit("b", 40) == []
    cache.touch(["a"])  # "b" becomes the LRU entry
    assert cache.admit("c", 40) == ["b"]
    assert cache.has_all(["a", "c"])
    assert "b" not in cache
    assert cache.evictions == 1
    assert cache.used == 80 and len(cache) == 2


def test_admit_rejects_block_larger_than_budget():
    cache = NodeBlockCache(10)
    assert cache.admit("huge", 11) == []
    assert "huge" not in cache and cache.used == 0


def test_readmit_updates_size_without_double_counting():
    cache = NodeBlockCache(100)
    cache.admit("a", 60)
    cache.admit("a", 30)
    assert cache.used == 30 and len(cache) == 1


def test_cache_manager_rejects_non_positive_budget():
    with pytest.raises(ValueError):
        CacheManager(0)
    with pytest.raises(ValueError):
        NodeBlockCache(-1)


@pytest.mark.parametrize("capacity, hit_latency", [
    (0, 0.0), (0.5, 0.0), (math.inf, 0.0), (math.nan, 0.0),
    (1, -1.0), (1, math.nan), (1, math.inf),
])
def test_cache_manager_rejects_bad_input_at_construction(capacity, hit_latency):
    # A sub-byte budget would otherwise fail only at the first fill, mid-run,
    # and a bad latency would be clamped away by the serving engine.
    with pytest.raises(ValueError):
        CacheManager(capacity, hit_latency_s=hit_latency)


def test_manager_keeps_per_client_caches_separate():
    manager = CacheManager(64 * MB)
    manager.fill_chunk(1, [("blk", 1 * MB)])
    assert manager.lookup_chunk(1, ["blk"], 1 * MB)
    assert not manager.lookup_chunk(2, ["blk"], 1 * MB)
    assert manager.chunk_hits == 1 and manager.chunk_misses == 1
    # Caches are created on fill, not on a missed lookup.
    assert manager.summary()["cache_clients"] == 1.0


# ------------------------------------------------------- serve-path integration --
def test_cache_hit_skips_the_transfer_charge():
    session = _session()
    client = session.client(policy=StoragePolicy(block_replication=2))
    assert client.store("movie", 4 * MB).success
    gateway = session.gateways(1)[0]
    client.attach(client=gateway)
    cache = client.attach_cache(64 * MB)

    first = client.retrieve("movie")
    assert first.complete and first.chunks_cached == 0
    after_miss = session.transfers.submitted_count
    assert after_miss > 0

    second = client.retrieve("movie")
    assert second.complete
    assert second.chunks_cached == len(client.storage.files["movie"].chunks)
    assert session.transfers.submitted_count == after_miss
    assert cache.chunk_hits > 0 and cache.hit_ratio() > 0


def test_attach_cache_accepts_a_raw_byte_budget():
    session = _session()
    client = session.client()
    cache = client.attach_cache(8 * MB)
    assert isinstance(cache, CacheManager)
    assert cache.capacity_bytes == 8 * MB
    assert client.storage.cache is cache


def test_cache_misses_spread_read_load_across_replicas():
    session = _session(seed=5)
    client = session.client(policy=StoragePolicy(block_replication=2))
    assert client.store("hot", 2 * MB).success
    gateway = session.gateways(1)[0]
    client.attach(client=gateway)
    # A one-byte budget admits nothing: every read is a miss, so the
    # least-loaded source selection alternates between the holders.
    cache = client.attach_cache(CacheManager(1))
    for _ in range(6):
        assert client.retrieve("hot").complete
    assert cache.chunk_hits == 0
    assert cache.primary_reads > 0 and cache.replica_reads > 0
    assert len(client.storage.read_load) >= 2
    loads = sorted(client.storage.read_load.values())
    assert loads[-1] <= sum(loads)  # balanced: no single holder served it all


def test_without_cache_reads_charge_the_primary_only():
    session = _session(seed=7)
    client = session.client(policy=StoragePolicy(block_replication=2))
    assert client.store("cold", 2 * MB).success
    client.attach(client=session.gateways(1)[0])
    for _ in range(4):
        assert client.retrieve("cold").complete
    stored = client.storage.files["cold"]
    primaries = {chunk.placements[0].node_id for chunk in stored.chunks}
    assert set(client.storage.read_load) == primaries


# --------------------------------------------------------- degraded accounting --
def test_cached_repeat_read_does_not_recount_degraded():
    session = _session(seed=9)
    client = session.client(
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=1),
    )
    assert client.store("scan", 3 * MB).success
    client.attach(client=session.gateways(1)[0])
    client.attach_cache(64 * MB)
    storage = client.storage

    # Kill the last placement's holder of every chunk: each chunk loses one
    # whole placement (degraded) but stays recoverable through the parity.
    victims = {chunk.placements[-1].node_id
               for chunk in storage.files["scan"].chunks}
    for node_id in victims:
        session.network.fail(node_id)

    before = storage.degraded_reads
    first = client.retrieve("scan")
    assert first.complete and first.chunks_degraded > 0
    assert storage.degraded_reads == before + 1

    # The repeat read is served from cache: still complete, no extra
    # degraded count (the chunk never touched the thinned placements).
    second = client.retrieve("scan")
    assert second.complete and second.chunks_cached > 0
    assert second.chunks_degraded == 0
    assert storage.degraded_reads == before + 1


def test_range_read_spanning_chunks_is_cache_aware():
    session = _session(seed=11)
    # Small per-node capacities force multi-chunk files.
    session = ClusterSession(48, seed=11, capacities=[8 * MB] * 48,
                             bandwidth_mb_s=8.0)
    client = session.client(policy=StoragePolicy(block_replication=2))
    assert client.store("volume", 24 * MB).success
    stored = client.storage.files["volume"]
    assert len(stored.chunks) >= 2
    client.attach(client=session.gateways(1)[0])
    client.attach_cache(64 * MB)

    first_chunk = stored.data_chunks()[0]
    boundary = first_chunk.start + first_chunk.size
    offset, length = boundary - 1024, 4096
    first = client.retrieve("volume", offset, length)
    assert first.complete and first.chunks_needed >= 2
    assert first.chunks_cached == 0
    submitted = session.transfers.submitted_count

    second = client.retrieve("volume", offset, length)
    assert second.complete
    assert second.chunks_cached == second.chunks_needed
    assert session.transfers.submitted_count == submitted

    # Range and whole-file reads share the same per-retrieve counters.
    whole = client.retrieve("volume")
    assert whole.complete
    assert whole.chunks_cached == first.chunks_needed  # spanned chunks reused
    assert client.storage.failed_reads == 0


def test_range_counters_match_whole_file_counters_without_cache():
    rows = []
    for use_range in (False, True):
        session = ClusterSession(48, seed=13, capacities=[8 * MB] * 48,
                                 bandwidth_mb_s=8.0)
        client = session.client(
            codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
            policy=StoragePolicy(block_replication=1),
        )
        assert client.store("volume", 24 * MB).success
        storage = client.storage
        # One victim can lose each chunk at most one placement: every chunk
        # stays recoverable, at least the first runs degraded.
        session.network.fail(storage.files["volume"].chunks[0].placements[-1].node_id)
        size = storage.files["volume"].size
        result = (client.retrieve("volume", 0, size) if use_range
                  else client.retrieve("volume"))
        assert result.complete and result.chunks_degraded >= 1
        rows.append((result.chunks_needed, result.chunks_degraded,
                     storage.degraded_reads, storage.failed_reads))
    assert rows[0] == rows[1]


# ----------------------------------------------------------------- payload mode --
def test_payload_mode_cached_bytes_identical():
    rng = np.random.default_rng(17)
    data = bytes(rng.integers(0, 256, size=300_000, dtype=np.uint8))
    session = _session(seed=15)
    client = session.client(payload_mode=True,
                            policy=StoragePolicy(block_replication=2))
    assert client.store("img", data=data).success
    client.attach(client=session.gateways(1)[0])
    cache = client.attach_cache(64 * MB)

    first = client.retrieve("img")
    assert first.complete and first.data == data
    second = client.retrieve("img")
    assert second.complete and second.data == data
    assert second.chunks_cached > 0
    assert cache.block_hits > 0


@pytest.mark.parametrize("seed", range(4))
def test_payload_cache_misses_a_block_that_repair_reminted(seed):
    """Rateless repair mints a new check block under the *old* name.  A client
    cache still holding the old bytes must miss on it instead of handing them
    to the decoder as the new stream index (a complete read of wrong bytes)."""
    network = OverlayNetwork.build(40, np.random.default_rng(seed), capacities=[64 * MB] * 40)
    code = OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=seed)
    storage = StorageSystem(DHTView(network), codec=ChunkCodec(code, blocks_per_chunk=4),
                            payload_mode=True)
    data = np.random.default_rng(100 + seed).integers(0, 256, size=MB, dtype=np.uint8).tobytes()
    assert storage.store_bytes("scan", data).success
    storage.attach_cache(CacheManager(64 * MB))
    assert storage.retrieve_file("scan", client=1).data == data  # fills client 1's cache

    recovery = RecoveryManager(storage)
    for _ in range(3):
        recovery.handle_failure(storage.files["scan"].data_chunks()[0].placements[0].node_id)
    warm = storage.retrieve_file("scan", client=1)
    assert warm.complete and warm.data == data
    assert warm.chunks_cached == 0  # the re-minted blocks came from their holders
    # The refill replaced the stale entries: the next read is a full hit.
    again = storage.retrieve_file("scan", client=1)
    assert again.data == data and again.chunks_cached == len(storage.files["scan"].data_chunks())
