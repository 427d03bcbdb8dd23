"""The store contract PAST, CFS, the proposed system and the whole-file Condor
machine share: ``store_file(name, size) -> StoreResult``, ``chunk_sizes(name)``
on the stores that split files into chunks, ``files`` and ``delete_file``.

Every scheme Figures 7-9, Table 1 and Table 4 compare answers through it, so
one parametrised test holds all four to it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.grid.iolib import WholeFileStore
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork

MB = 1 << 20
NODES = 16
CAPACITY = 64 * MB


def _past(network):
    return PastStore(DHTView(network))


def _cfs(network):
    return CfsStore(DHTView(network), block_size=4 * MB)


def _ours(network):
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=8),
    )


def _whole_file(network):
    return WholeFileStore(network.live_nodes()[0])


#: (id, factory, whether it answers chunk_sizes, data chunks of a 40 MB file
#: as (fewest, most), whether it looks anything up).
STORES = [
    ("past", _past, False, (1, 1), True),
    ("cfs", _cfs, True, (10, 10), True),
    ("ours", _ours, True, (1, 9), True),
    ("whole-file", _whole_file, True, (1, 1), False),
]


@pytest.fixture(params=STORES, ids=[entry[0] for entry in STORES])
def contract(request):
    _, factory, chunking, chunks, looks_up = request.param
    network = OverlayNetwork.build(NODES, np.random.default_rng(4), capacities=[CAPACITY] * NODES)
    return network, factory(network), chunking, chunks, looks_up


def _counters(network, store):
    """Everything a refused or rejected store must leave as it was."""
    dht = getattr(store, "dht", None)
    return (
        sorted(store.files),
        sum(node.used for node in network.nodes()),
        getattr(store, "total_lookups", 0),
        getattr(store, "store_attempts", 0),
        0 if dht is None else dht.lookup_count,
    )


def test_a_store_holds_the_name_and_its_chunks(contract):
    network, store, chunking, (fewest, most), looks_up = contract
    result = store.store_file("data", 40 * MB)
    assert result.success and result.failure_reason is None
    assert (result.filename, result.requested_size, result.stored_bytes) == ("data", 40 * MB, 40 * MB)
    assert "data" in store.files
    assert fewest <= result.data_chunk_count <= most
    assert result.data_chunk_count <= result.chunk_count
    assert (result.lookups >= result.data_chunk_count) if looks_up else result.lookups == 0
    if chunking:
        sizes = store.chunk_sizes("data")
        assert sum(sizes) == 40 * MB and len(sizes) == result.data_chunk_count
        assert store.chunk_sizes("never-stored") == []


def test_a_taken_name_is_refused_before_anything_moves(contract):
    network, store, chunking, _, _ = contract
    assert store.store_file("data", 8 * MB).success
    before = _counters(network, store)
    layout = store.chunk_sizes("data") if chunking else None
    again = store.store_file("data", 1 * MB)
    assert not again.success and again.failure_reason == "file already stored"
    assert (again.lookups, again.stored_bytes, again.chunk_count, again.data_chunk_count) == (0, 0, 0, 0)
    assert _counters(network, store) == before
    assert (store.chunk_sizes("data") if chunking else None) == layout


def test_delete_frees_the_name_and_its_space(contract):
    network, store, chunking, _, _ = contract
    assert store.store_file("data", 8 * MB).success
    assert store.delete_file("data")
    assert "data" not in store.files
    assert sum(node.used for node in network.nodes()) == 0
    if chunking:
        assert store.chunk_sizes("data") == []
    assert not store.delete_file("data")
    assert store.store_file("data", 8 * MB).success


def test_too_large_a_file_fails_and_leaves_nothing(contract):
    network, store, _, _, _ = contract
    result = store.store_file("huge", NODES * CAPACITY + 1)
    assert not result.success and result.failure_reason
    assert result.stored_bytes == 0
    assert "huge" not in store.files
    assert sum(node.used for node in network.nodes()) == 0


@pytest.mark.parametrize("size", [-50, math.nan, math.inf])
def test_a_bad_size_is_rejected_before_anything_moves(contract, size):
    network, store, _, _, _ = contract
    before = _counters(network, store)
    with pytest.raises(ValueError, match="^size must be in "):
        store.store_file("bad", size)
    assert _counters(network, store) == before
