"""End-to-end integration tests across the whole stack.

These exercise the realistic lifecycle the paper describes: build an overlay,
store real data through the erasure-coded striping path, suffer churn with
recovery, and keep serving reads -- plus the Condor-style usage where the
storage system is driven through the interposition layer.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.grid.bigcopy import run_bigcopy
from repro.grid.machines import build_condor_pool_nodes
from repro.multicast.bullet import BulletConfig, BulletSession
from repro.multicast.tree import build_locality_tree
from repro.overlay.dht import DHTView
from repro.overlay.ids import random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.workloads.filetrace import GB, MB, FileTraceConfig, generate_file_trace

from repro.erasure.null_code import NullCode


def random_bytes(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


def test_full_lifecycle_store_churn_recover_read():
    rng = np.random.default_rng(100)
    network = OverlayNetwork.build(48, rng, capacities=[48 * MB] * 48)
    dht = DHTView(network)
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
        payload_mode=True,
    )
    recovery = RecoveryManager(storage)

    files = {f"doc-{index}": random_bytes(3 * MB + index * 100_000, seed=index) for index in range(8)}
    for name, data in files.items():
        assert storage.store_bytes(name, data).success

    # Churn: fail 25% of the overlay one node at a time, recovering each time.
    victims = [node.node_id for node in network.live_nodes()[:12]]
    for victim in victims:
        recovery.handle_failure(victim)

    # Every file is still retrievable bit-for-bit.
    for name, data in files.items():
        out = storage.retrieve_file(name)
        assert out.complete, f"{name} lost after churn"
        assert out.data == data

    totals = recovery.totals()
    assert totals["failures"] == len(victims)
    assert totals["total_data_lost_bytes"] == 0.0


def test_trace_driven_insertion_then_partial_reads():
    rng = np.random.default_rng(200)
    network = OverlayNetwork.build(64, rng, capacities=[2 * GB] * 64)
    dht = DHTView(network)
    storage = StorageSystem(dht, codec=ChunkCodec(NullCode(), blocks_per_chunk=1))
    trace = generate_file_trace(FileTraceConfig(file_count=150), seed=3)
    successes = 0
    for record in trace:
        if storage.store_file(record.name, record.size).success:
            successes += 1
    assert successes == len(trace)  # plenty of space at this scale
    # Partial-range availability queries resolve through the CAT.
    sample = trace.files[0]
    result = storage.retrieve_range(sample.name, offset=sample.size // 2, length=1 * MB)
    assert result.complete
    assert result.chunks_needed >= 1
    assert dht.utilization() > 0


def test_new_node_joining_takes_future_load():
    rng = np.random.default_rng(300)
    network = OverlayNetwork.build(16, rng, capacities=[32 * MB] * 16)
    dht = DHTView(network)
    storage = StorageSystem(dht)
    for index in range(10):
        assert storage.store_file(f"pre-{index}", 8 * MB).success
    newcomer = OverlayNode(node_id=random_node_id(rng), coordinates=(5.0, 5.0), capacity=256 * MB)
    network.join(newcomer)
    dht.add(newcomer)
    stored_on_newcomer_before = len(newcomer.stored_blocks)
    successes = sum(
        1 for index in range(30) if storage.store_file(f"post-{index}", 8 * MB).success
    )
    # Most stores succeed thanks to the newcomer's capacity, and the newcomer
    # picks up a share of the new blocks (self-organisation on join).
    assert successes >= 25
    assert len(newcomer.stored_blocks) > stored_on_newcomer_before


def test_multicast_replica_push_over_real_overlay():
    rng = np.random.default_rng(400)
    network = OverlayNetwork.build(40, rng, capacities=[MB] * 40)
    ids = network.live_ids()
    source, replicas = ids[0], ids[1:9]
    tree = build_locality_tree(network, source, replicas, fanout=2)
    session = BulletSession(tree, BulletConfig(total_packets=120, ransub_fraction=0.2), rng=rng)
    session.run(until_complete=True)
    assert session.is_complete()
    # Every replica target received the whole chunk.
    for leaf in tree.leaves():
        assert session.node_packet_count(leaf.label) == 120


def test_condor_backend_round_trip_with_reed_solomon_protection():
    network, _ = build_condor_pool_nodes(16, seed=9)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=4),
        policy=StoragePolicy(max_consecutive_zero_chunks=32),
    )
    result = run_bigcopy(storage, 2 * GB)
    assert result.success
    # The copy is protected: any single machine failure keeps it available.
    copy_name = "bigcopy-copy"
    holders = {
        placement.node_id
        for chunk in storage.files[copy_name].data_chunks()
        for placement in chunk.placements
    }
    victim = next(iter(holders))
    network.fail(victim)
    assert storage.is_file_available(copy_name)
