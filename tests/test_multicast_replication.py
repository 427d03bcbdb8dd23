"""Tests for multicast-driven replica creation tied into the storage system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.multicast.bullet import BulletConfig
from repro.multicast.replication import MulticastReplicator
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork

MB = 1 << 20


@pytest.fixture
def storage():
    network = OverlayNetwork.build(40, np.random.default_rng(21), capacities=[64 * MB] * 40)
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
        payload_mode=True,
    )


@pytest.fixture
def replicator(storage):
    return MulticastReplicator(
        storage,
        config=BulletConfig(total_packets=60, ransub_fraction=0.2),
        rng=np.random.default_rng(3),
    )


def stored_file(storage, name="bulk.bin", size=20 * MB, seed=1):
    data = np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    assert storage.store_bytes(name, data).success
    return name, data


def test_replicate_chunk_adds_replica_placements(storage, replicator):
    name, _ = stored_file(storage)
    chunk = storage.files[name].data_chunks()[0]
    before_copies = [len(placement.replica_nodes) for placement in chunk.placements]
    report = replicator.replicate_chunk(name, chunk.chunk_no, replicas=2)
    assert report.replicas_requested == 2
    assert report.replicas_created == 2 * len(chunk.placements)
    assert report.replicas_skipped_no_space == 0
    assert report.epochs_used > 0
    after = storage.files[name].data_chunks()[0]
    assert all(len(p.replica_nodes) == b + 2 for p, b in zip(after.placements, before_copies))


def test_replicated_chunk_survives_primary_holder_failures(storage, replicator):
    name, data = stored_file(storage, size=10 * MB, seed=2)
    chunk = storage.files[name].data_chunks()[0]
    replicator.replicate_chunk(name, chunk.chunk_no, replicas=1)
    # Fail every primary holder of the chunk: replicas keep the file available.
    for placement in storage.files[name].data_chunks()[0].placements:
        storage.dht.network.fail(placement.node_id)
        storage.dht.remove(placement.node_id)
    assert storage.is_file_available(name)
    out = storage.retrieve_file(name)
    assert out.complete and out.data == data


def test_replicate_file_covers_every_data_chunk(storage, replicator):
    name, _ = stored_file(storage, size=90 * MB, seed=3)
    reports = replicator.replicate_file(name, replicas=1)
    assert len(reports) == len(storage.files[name].data_chunks())
    assert all(report.replicas_created >= 1 for report in reports)


def test_replication_consumes_capacity_on_holders(storage, replicator):
    name, _ = stored_file(storage, size=12 * MB, seed=4)
    used_before = storage.dht.total_used()
    replicator.replicate_chunk(name, 1, replicas=2)
    assert storage.dht.total_used() > used_before


def test_replication_reports_skips_when_pool_is_full(storage, replicator):
    name, _ = stored_file(storage, size=8 * MB, seed=5)
    for node in storage.dht.network.live_nodes():
        node.used = node.capacity
    report = replicator.replicate_chunk(name, 1, replicas=2)
    assert report.replicas_created == 0
    assert report.replicas_skipped_no_space == 2 * len(storage.files[name].data_chunks()[0].placements)


def test_replication_validation(storage, replicator):
    with pytest.raises(KeyError):
        replicator.replicate_chunk("ghost", 1, replicas=1)
    name, _ = stored_file(storage, size=5 * MB, seed=6)
    with pytest.raises(ValueError):
        replicator.replicate_chunk(name, 1, replicas=0)
    with pytest.raises(KeyError):
        replicator.replicate_chunk(name, 99, replicas=1)
    with pytest.raises(KeyError):
        replicator.replicate_file("ghost", 1)
