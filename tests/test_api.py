"""The client facade: oracle-identical to the hand-rolled low-level wiring."""

from __future__ import annotations

import pytest

from repro.api import ArchiveClient, ClusterSession
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
from repro.sim.faults import assign_domains
from repro.sim.rng import RandomStreams
from repro.workloads.capacity import CapacityConfig, generate_capacities
from repro.workloads.filetrace import MB, FileTraceConfig, generate_file_trace

CAPACITY = CapacityConfig(node_count=64, distribution="normal",
                          mean=400 * MB, std=100 * MB)


def _manual_deployment(seed: int):
    """The pre-facade hand wiring, label for label."""
    streams = RandomStreams(seed)
    capacities = generate_capacities(CAPACITY, rng=streams.fresh("capacities"))
    network = OverlayNetwork.build(
        64,
        rng=streams.fresh("overlay"),
        capacities=list(capacities),
    )
    assign_domains(network.nodes(), sites=2, racks_per_site=2)
    dht = DHTView(network)
    ledger = BlockLedger(network)
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2),
        ledger=ledger,
        tenant="archive",
    )
    return network, storage, streams


def _facade_deployment(seed: int):
    session = ClusterSession(
        64,
        seed=seed,
        capacity_config=CAPACITY,
        sites=2,
        racks_per_site=2,
    )
    client = session.client(
        "archive",
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2),
    )
    return session, client


def test_session_deployment_matches_manual_wiring():
    manual_network, manual_storage, manual_streams = _manual_deployment(29)
    session, client = _facade_deployment(29)

    manual_ids = [node.node_id for node in manual_network.nodes()]
    facade_ids = [node.node_id for node in session.network.nodes()]
    assert manual_ids == facade_ids
    assert ([node.capacity for node in manual_network.nodes()]
            == [node.capacity for node in session.network.nodes()])
    assert ([(node.site, node.rack) for node in manual_network.nodes()]
            == [(node.site, node.rack) for node in session.network.nodes()])

    # Same stores land on the same placements -- placement- and RNG-identical.
    trace = generate_file_trace(
        FileTraceConfig(file_count=30, mean_size=2 * MB, std_size=1 * MB,
                        min_size=256 * 1024, name_prefix="f"),
        rng=manual_streams.fresh("trace"),
    )
    session_streams = session.streams
    facade_trace = generate_file_trace(
        FileTraceConfig(file_count=30, mean_size=2 * MB, std_size=1 * MB,
                        min_size=256 * 1024, name_prefix="f"),
        rng=session_streams.fresh("trace"),
    )
    for manual_record, facade_record in zip(trace, facade_trace):
        assert (manual_record.name, manual_record.size) == (
            facade_record.name, facade_record.size)
        manual_result = manual_storage.store_file(manual_record.name,
                                                  manual_record.size)
        facade_result = client.store(facade_record.name, facade_record.size)
        assert manual_result.success == facade_result.success
    for name, stored in manual_storage.files.items():
        facade_stored = client.storage.files[name]
        manual_placements = [
            (p.node_id, p.replica_nodes, p.size)
            for chunk in stored.chunks for p in chunk.placements]
        facade_placements = [
            (p.node_id, p.replica_nodes, p.size)
            for chunk in facade_stored.chunks for p in chunk.placements]
        assert manual_placements == facade_placements
    assert manual_storage.usage_summary() == client.storage.usage_summary()


def test_adopt_wraps_existing_network_without_consuming_randomness():
    manual_network, _, _ = _manual_deployment(31)
    session = ClusterSession.adopt(manual_network)
    assert session.network is manual_network
    assert session.transfers is None
    assert session.utilization() == session.dht.utilization()


def test_each_tenant_name_is_claimed_once():
    session, _ = _facade_deployment(3)
    with pytest.raises(ValueError):
        session.client("archive")
    other = session.client("other")
    assert isinstance(other, ArchiveClient)
    assert [handle.tenant for handle in session.clients()] == ["archive", "other"]


def test_attach_requires_a_fabric():
    session, client = _facade_deployment(5)
    with pytest.raises(RuntimeError):
        client.attach()


def test_store_and_retrieve_argument_validation():
    session, client = _facade_deployment(7)
    with pytest.raises(ValueError):
        client.store("nothing")
    assert client.store("sized", 1 * MB).success
    with pytest.raises(ValueError):
        client.retrieve("sized", offset=0)  # needs length too
    assert client.retrieve("sized").complete
    assert client.retrieve("sized", 0, 1024).complete
    assert client.available("sized")
    assert client.file_count == 1
    assert client.delete("sized")
    assert client.file_count == 0


def test_recovery_manager_rides_the_session_fabric():
    session = ClusterSession(48, seed=9, capacities=[1 << 30] * 48,
                             bandwidth_mb_s=8.0)
    client = session.client(policy=StoragePolicy(block_replication=2))
    manager = session.recovery(client, repair_window=32)
    assert isinstance(manager, RecoveryManager)
    assert manager.transfers is session.transfers


def test_a_repair_weight_the_fabric_cannot_use_is_refused_at_construction():
    """On a fabric every repair goes through the repair class's pacer, so its
    weight check runs when the manager is built -- not inside the first
    ``handle_failure``, after the node was failed and its rows were dropped."""
    session = ClusterSession(48, seed=9, capacities=[1 << 30] * 48, bandwidth_mb_s=8.0)
    client = session.client(codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    assert client.store("f", 4 * MB).success
    with pytest.raises(ValueError, match="weight"):
        session.recovery(client, repair_weight=0.0)
    unwindowed = session.recovery(client)  # the pacer's pass-through mode
    assert unwindowed.pacer is not None and unwindowed.pacer.max_in_flight is None


def test_gateways_are_deterministic_and_strided():
    session = ClusterSession(64, seed=13, capacities=[1 << 30] * 64)
    four = session.gateways(4)
    assert four == session.gateways(4)
    assert len(four) == 4 and len(set(four)) == 4
    assert four == sorted(four)
    everyone = session.gateways(10_000)
    assert len(everyone) == 64


def test_tenant_aggregates_come_from_the_shared_ledger():
    session, client = _facade_deployment(17)
    assert client.store("a", 1 * MB).success
    aggregates = client.aggregates()
    assert aggregates["active_files"] == 1
    assert aggregates["stored_data_bytes"] >= 1 * MB
    untagged = session.client()
    assert untagged.tenant is None
    assert untagged.store("b", 1 * MB).success
    # An untagged client reads the same five counters, over the whole ledger.
    whole = untagged.aggregates()
    assert whole["active_files"] == 2
    assert whole == session.ledger.tenant_aggregates()


def test_session_requires_nodes_or_network():
    with pytest.raises(ValueError):
        ClusterSession()


@pytest.mark.parametrize("argument, kwargs", [
    # No bandwidth_mb_s: no fabric is built, so these would vanish.
    ("oversubscription", {"node_count": 8, "oversubscription": 4.0}),
    ("latency", {"node_count": 8, "latency": {"inter_site_latency": 0.02}}),
])
def test_session_rejects_fabric_arguments_without_a_fabric(argument, kwargs):
    with pytest.raises(ValueError, match=f"^{argument}="):
        ClusterSession(**kwargs)


@pytest.mark.parametrize("argument, value", [
    ("capacities", [64 * MB] * 24),
    ("capacity_config", CapacityConfig(node_count=24)),
    ("sites", 2),
])
def test_session_rejects_build_arguments_on_an_adopted_network(argument, value):
    network, _, _ = _manual_deployment(41)
    with pytest.raises(ValueError, match=f"^{argument}="):
        ClusterSession(network=network, **{argument: value})
    with pytest.raises(ValueError, match=f"^{argument}="):
        ClusterSession.adopt(network, **{argument: value})


def test_vectorized_keyword_is_gone_not_ignored():
    """One placement path: the seed-path selector is a ``TypeError`` everywhere."""
    network, _, _ = _manual_deployment(37)
    dht = DHTView(network)
    for build in (
        lambda: StorageSystem(dht, vectorized=False),
        lambda: PastStore(dht, vectorized=False),
        lambda: CfsStore(dht, vectorized=False),
        lambda: ClusterSession(8, vectorized=False),
        lambda: ClusterSession(8, fast_build=True),
        lambda: dht.locate_name("x", False),
    ):
        with pytest.raises(TypeError):
            build()
