"""Unit tests for the DHT oracle view, including equivalence with real routing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.overlay.dht import DHTView, first_fits
from repro.overlay.ids import key_for, random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode

from reference.recorder import BlockRecorder


@pytest.fixture
def network() -> OverlayNetwork:
    return OverlayNetwork.build(40, np.random.default_rng(3), capacities=[100] * 40)


@pytest.fixture
def view(network: OverlayNetwork) -> DHTView:
    return DHTView(network)


def test_lookup_matches_overlay_responsible_node(network, view):
    rng = np.random.default_rng(11)
    for _ in range(200):
        key = random_node_id(rng)
        assert view.lookup(key).node_id == network.responsible_node(key)


def test_lookup_matches_hop_by_hop_routing(network, view):
    rng = np.random.default_rng(12)
    start = network.live_ids()[0]
    router = network.attach_router("pastry")
    for _ in range(50):
        key = random_node_id(rng)
        assert view.lookup(key).node_id == router.route(key, start).root


def test_lookup_counts_lookups(view):
    before = view.lookup_count
    view.lookup(key_for("a"))
    view.lookup(key_for("b"))
    assert view.lookup_count == before + 2


def test_locate_key_and_locate_name_agree_with_the_lookup_oracle(network, view):
    """The boundary-bisect lookups return lookup()'s node and count like it."""
    rng = np.random.default_rng(12)
    victims = list(network.live_ids())[:5]
    for step in range(60):
        if step % 12 == 0:  # churn between probes: patched bounds, same answers
            view.remove(victims.pop())
        key = random_node_id(rng)
        before = view.lookup_count
        assert view.locate_key(key) is view.lookup(key)
        assert view.locate_name(f"object-{step}") is view.lookup(key_for(f"object-{step}"))
        assert view.lookup_count == before + 4


def test_remove_changes_lookup_result(network, view):
    key = key_for("victim-object")
    owner = view.lookup(key)
    network.fail(owner.node_id)
    view.remove(owner.node_id)
    replacement = view.lookup(key)
    assert replacement.node_id != owner.node_id
    assert replacement.node_id == network.responsible_node(key)


def test_add_restores_node(network, view):
    node = view.lookup(key_for("thing"))
    view.remove(node.node_id)
    assert len(view) == len(network) - 1
    view.add(node)
    assert len(view) == len(network)
    assert view.lookup(node.node_id).node_id == node.node_id


def test_refresh_syncs_with_network_failures(network, view):
    for node_id in network.live_ids()[:5]:
        network.fail(node_id)
    view.refresh()
    assert len(view) == len(network) - 5


def test_successors_are_clockwise_and_live(network, view):
    key = key_for("succession")
    successors = view.successors(key, 5)
    assert len(successors) == 5
    assert all(node.alive for node in successors)
    values = [node.node_id for node in successors]
    assert len(set(values)) == 5


def test_successors_count_validation(view):
    with pytest.raises(ValueError):
        view.successors(key_for("x"), -1)
    assert view.successors(key_for("x"), 0) == []


def test_neighbors_are_closest_and_exclude_self(network, view):
    target = network.live_ids()[0]
    neighbors = view.neighbors(target, 4)
    assert len(neighbors) == 4
    assert all(node.node_id != target for node in neighbors)
    # They should be closer to the target than a random far node is, on average.
    from repro.overlay.ids import distance

    neighbor_distances = [distance(node.node_id, target) for node in neighbors]
    all_distances = sorted(distance(nid, target) for nid in network.live_ids() if nid != target)
    assert sorted(neighbor_distances) == all_distances[:4]


def test_immediate_neighbors_returns_two(view, network):
    target = network.live_ids()[0]
    assert len(view.neighbors(target, 2)) == 2


def test_empty_view_raises(network):
    view = DHTView(network)
    for node_id in list(network.live_ids()):
        network.fail(node_id)
    view.refresh()
    with pytest.raises(LookupError):
        view.lookup(key_for("anything"))
    with pytest.raises(LookupError):
        view.locate_key(key_for("anything"))
    assert view.lookup_count == 0


def test_capacity_and_utilization(network, view):
    assert view.total_capacity() == 40 * 100
    node = view.lookup(key_for("fill-me"))
    node.store_block("fill-me", 50)
    assert view.total_used() == 50
    assert view.utilization() == pytest.approx(50 / 4000)
    assert sum(node.free for node in view.state.nodes) == 4000 - 50


def test_lookup_is_uniformly_spread(network, view):
    # Responsibility follows id-space gaps; over many random keys every node
    # should receive at least one object with overwhelming probability.
    rng = np.random.default_rng(1)
    owners = {view.lookup(random_node_id(rng)).node_id for _ in range(4000)}
    assert len(owners) >= int(0.9 * len(network))


# -- first_fits: the one placement walk ----------------------------------------------
def _nodes(capacities, used=None, alive=None):
    nodes = []
    for serial, capacity in enumerate(capacities):
        node = OverlayNode(node_id=serial, capacity=capacity, serial=serial)
        node.used = used[serial] if used else 0
        node.alive = alive[serial] if alive else True
        nodes.append(node)
    return nodes


def test_first_fits_takes_the_first_want_fits_in_candidate_order():
    # serial 0 is full, 1 excluded, 2 down; 3, 4 and 5 fit.
    nodes = _nodes([10, 100, 100, 100, 100, 100], alive=[True, True, False, True, True, True])
    assert first_fits(nodes, "b", 20, {1}, want=2) == [nodes[3], nodes[4]]
    assert [node.used for node in nodes] == [0, 0, 0, 20, 20, 0]
    assert first_fits(nodes[::-1], "c", 20) == [nodes[5]]
    assert first_fits(nodes, "d", 20, want=0) == []
    assert first_fits(nodes[:3], "e", 20, {1}, want=3) == []  # the candidates ran out
    assert [node.used for node in nodes] == [0, 0, 0, 20, 20, 20]


def test_first_fits_offers_nothing_past_the_want_th_fit(monkeypatch):
    """A try past the break would take capacity: count the offers under the recorder."""
    nodes = _nodes([100] * 6)
    offered = []
    with BlockRecorder() as recorder:
        door = OverlayNode.store_block  # the recorder's wrapper

        def counted(node, block_name, size, exclude=()):
            offered.append(node.serial)
            return door(node, block_name, size, exclude)

        monkeypatch.setattr(OverlayNode, "store_block", counted)
        assert first_fits(nodes, "b", 10, {0, 2}, want=2) == [nodes[1], nodes[3]]
        assert offered == [0, 1, 2, 3]
        assert [recorder.blocks(node) for node in nodes] == [{}, {"b": 10}, {}, {"b": 10}, {}, {}]
        monkeypatch.undo()
    assert [node.used for node in nodes] == [0, 10, 0, 10, 0, 0]


def _inline_walk(candidates, name, size, exclude, want):
    """The hand-written loop every placement site carried before the helper."""
    placed = []
    for node in candidates:
        if len(placed) >= want:
            break
        if node.serial not in exclude and node.store_block(name, size):
            placed.append(node)
    return placed


_population = st.integers(0, 12).flatmap(lambda count: st.tuples(
    st.lists(st.integers(0, 100), min_size=count, max_size=count),
    st.lists(st.integers(0, 100), min_size=count, max_size=count),
    st.lists(st.booleans(), min_size=count, max_size=count),
))


@given(population=_population, exclude=st.sets(st.integers(0, 14)),
       window=st.integers(0, 14), want=st.integers(0, 6), size=st.integers(0, 60))
def test_first_fits_matches_the_inline_walk(population, exclude, window, want, size):
    """Same fits, same order and the same bytes taken as the old per-site loop."""
    capacities, used, alive = population
    used = [min(taken, capacity) for taken, capacity in zip(used, capacities)]
    ours, theirs = (_nodes(capacities, used, alive) for _ in range(2))
    placed = first_fits(ours[:window], "b", size, exclude, want)
    expected = _inline_walk(theirs[:window], "b", size, exclude, want)
    assert [node.serial for node in placed] == [node.serial for node in expected]
    assert [node.used for node in ours] == [node.used for node in theirs]
