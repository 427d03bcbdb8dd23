"""Unit tests for the simulated overlay network (membership, routing engines, failure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.dht import DHTView
from repro.overlay.engine_pastry import PastryArrayRouter
from repro.overlay.ids import distance, key_for, random_node_id
from repro.overlay.network import OverlayError, OverlayNetwork
from repro.overlay.node import OverlayNode

from reference.seed_pastry import SeedPastryRouter


@pytest.fixture
def network() -> OverlayNetwork:
    return OverlayNetwork.build(50, np.random.default_rng(42), capacities=[1000] * 50)


@pytest.fixture
def router(network: OverlayNetwork) -> PastryArrayRouter:
    """The Pastry engine, attached before the test changes membership."""
    return network.attach_router("pastry")


def test_build_populates_nodes_and_capacities(network: OverlayNetwork):
    assert len(network) == 50
    assert all(node.capacity == 1000 for node in network.nodes())
    assert sum(node.capacity for node in network.nodes()) == 50_000


def test_build_requires_matching_capacities():
    with pytest.raises(ValueError):
        OverlayNetwork.build(3, np.random.default_rng(0), capacities=[1, 2])
    with pytest.raises(ValueError):
        OverlayNetwork.build(0, np.random.default_rng(0))


def test_responsible_node_is_numerically_closest(network: OverlayNetwork):
    key = key_for("some-object")
    root = network.responsible_node(key)
    best = min(network.live_ids(), key=lambda nid: (distance(nid, key), int(nid)))
    assert root == best


def test_route_reaches_responsible_node_from_any_start(network: OverlayNetwork, router):
    key = key_for("another-object")
    expected = network.responsible_node(key)
    for start in network.live_ids()[:10]:
        result = router.route(key, start)
        assert result.root == expected
        assert result.path[0] == start
        assert result.path[-1] == expected
        assert result.hops == len(result.path) - 1


def test_route_hops_are_logarithmicish(network: OverlayNetwork, router):
    rng = np.random.default_rng(7)
    hops = [router.route(random_node_id(rng), network.live_ids()[0]).hops for _ in range(30)]
    # 50 nodes with hex digits: expect a small number of hops on average.
    assert 0 < np.mean(hops) <= 6


def test_route_from_failed_node_rejected(network: OverlayNetwork, router):
    victim = network.live_ids()[0]
    network.fail(victim)
    with pytest.raises(OverlayError):
        router.route(key_for("x"), victim)


def test_failed_node_no_longer_responsible(network: OverlayNetwork, router):
    key = key_for("doomed")
    first = network.responsible_node(key)
    network.fail(first)
    second = network.responsible_node(key)
    assert second != first
    # Routing still converges to the new root from any live start.
    result = router.route(key, network.live_ids()[0])
    assert result.root == second


def test_fail_removes_from_neighbor_state(network: OverlayNetwork, router):
    """Per-node state lives in the reference router; leaf sets are repaired."""
    reference = network.attach_router(SeedPastryRouter(network))
    victim = network.live_ids()[0]
    network.fail(victim)
    for node in network.live_nodes():
        assert victim not in reference.leaf_set(node.node_id)
        assert victim not in reference.routing_table(node.node_id).known_nodes()
        assert len(reference.leaf_set(node.node_id)) == 2 * network.leaf_set_half_size
    # The array engine drops the victim too (leaf sets are positional there).
    assert victim not in router


def test_leave_removes_node_entirely(network: OverlayNetwork):
    victim = network.live_ids()[0]
    network.leave(victim)
    assert victim not in network
    with pytest.raises(OverlayError):
        network.node(victim)


def test_join_new_node_becomes_routable(network: OverlayNetwork, router):
    rng = np.random.default_rng(99)
    newcomer = OverlayNode(node_id=random_node_id(rng), coordinates=(1.0, 2.0), capacity=5)
    network.join(newcomer)
    assert newcomer.node_id in network
    # The newcomer is responsible for keys close to its own id.
    assert network.responsible_node(newcomer.node_id) == newcomer.node_id
    result = router.route(newcomer.node_id, network.live_ids()[0])
    assert result.root == newcomer.node_id


def test_join_duplicate_id_rejected(network: OverlayNetwork):
    existing = network.live_ids()[0]
    with pytest.raises(OverlayError):
        network.join(OverlayNode(node_id=existing))


def test_proximity_symmetric_nonnegative(network: OverlayNetwork):
    a, b = network.live_ids()[:2]
    assert network.proximity(a, b) == network.proximity(b, a) >= 0.0
    assert network.proximity(a, a) == 0.0


def test_utilization_tracks_used_space(network: OverlayNetwork):
    view = DHTView(network)
    assert view.utilization() == 0.0
    node = network.live_nodes()[0]
    node.store_block("x", 500)
    assert view.utilization() == pytest.approx(500 / 50_000)
