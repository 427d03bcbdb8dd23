"""The array routing engines' oracles.

The load-bearing pin: the vectorized Pastry engine routes every lookup
hop-for-hop identically to the seed's scalar per-node router (kept under
``tests/reference/seed_pastry.py`` and fed the same membership events) --
same hop counts, same roots, same full paths -- at multiple population sizes
and after interleaved join/leave/fail churn.  Chord rides the same harness
and is pinned against brute-force ring invariants (successor lists and
finger tables recomputed from the sorted id ring).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.engine import make_router
from repro.overlay.engine_chord import ChordArrayRouter
from repro.overlay.engine_pastry import PastryArrayRouter
from repro.overlay.ids import ID_SPACE, NodeId, random_node_id
from repro.overlay.network import OverlayError, OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.multicast.tree import build_routed_tree

from reference.seed_pastry import SeedPastryRouter


def _lookups(network: OverlayNetwork, count: int, rng):
    live = network.live_ids()
    keys = [random_node_id(rng) for _ in range(count)]
    starts = [live[int(i)] for i in rng.integers(len(live), size=count)]
    return keys, starts


def _churn(network: OverlayNetwork, events: int, rng) -> None:
    """Interleaved joins, graceful leaves and abrupt failures."""
    for _ in range(events):
        live = network.live_ids()
        kind = int(rng.integers(3))
        if kind == 0 or len(live) < 16:
            node = OverlayNode(
                node_id=random_node_id(rng),
                coordinates=(float(rng.uniform(0.0, 1000.0)),
                             float(rng.uniform(0.0, 1000.0))),
            )
            network.join(node)
        elif kind == 1:
            network.leave(live[int(rng.integers(len(live)))])
        else:
            network.fail(live[int(rng.integers(len(live)))])


# ---------------------------------------------------------- the Pastry oracle --
@pytest.mark.parametrize("nodes", [50, 200])
def test_pastry_engine_is_path_identical_to_seed_router(nodes):
    """Hop counts, roots AND full paths match the scalar seed router."""
    rng = np.random.default_rng(91)
    network = OverlayNetwork.build(nodes, rng)
    router = network.attach_router("pastry")
    reference = network.attach_router(SeedPastryRouter(network))
    keys, starts = _lookups(network, 120, rng)
    batch = router.route_many(keys, starts, collect_paths=True)
    for index, (key, start) in enumerate(zip(keys, starts)):
        seed = reference.route(key, start)
        assert seed.hops == int(batch.hops[index])
        assert int(seed.root) == batch.root_ids()[index]
        assert [int(node_id) for node_id in seed.path] == batch.paths[index]


@pytest.mark.parametrize("nodes", [50, 200])
def test_pastry_identity_survives_interleaved_churn(nodes):
    """The incremental on_join/on_leave/on_fail patches stay exact."""
    rng = np.random.default_rng(47)
    network = OverlayNetwork.build(nodes, rng)
    router = network.attach_router("pastry")
    reference = network.attach_router(SeedPastryRouter(network))
    _churn(network, 30, rng)
    keys, starts = _lookups(network, 150, rng)
    batch = router.route_many(keys, starts, collect_paths=True)
    for index, (key, start) in enumerate(zip(keys, starts)):
        seed = reference.route(key, start)
        assert seed.hops == int(batch.hops[index])
        assert int(seed.root) == batch.root_ids()[index]
        assert [int(node_id) for node_id in seed.path] == batch.paths[index]


def test_route_many_matches_scalar_engine_route():
    rng = np.random.default_rng(3)
    network = OverlayNetwork.build(120, rng)
    router = network.attach_router("pastry")
    keys, starts = _lookups(network, 60, rng)
    batch = router.route_many(keys, starts, collect_paths=True)
    for index, (key, start) in enumerate(zip(keys, starts)):
        single = router.route(key, start)
        assert single.hops == int(batch.hops[index])
        assert int(single.root) == batch.root_ids()[index]
        assert [int(node_id) for node_id in single.path] == batch.paths[index]


def test_pastry_columns_keep_their_dtypes():
    rng = np.random.default_rng(8)
    network = OverlayNetwork.build(64, rng)
    router = network.attach_router("pastry")
    assert isinstance(router, PastryArrayRouter)
    assert router._table.dtype == np.int32
    assert router._digits.dtype == np.uint8
    footprint = router.memory_footprint()
    assert footprint["total_bytes"] > 0
    assert footprint["bytes_per_node"] * 64 >= footprint["table_bytes"]


# ----------------------------------------------------------- the Chord oracle --
def _ring_successor(sorted_ids, value: int) -> int:
    index = int(np.searchsorted(np.array(sorted_ids, dtype=object), value))
    return sorted_ids[index % len(sorted_ids)]


def _assert_chord_invariants(network: OverlayNetwork,
                             router: ChordArrayRouter) -> None:
    sorted_ids = sorted(int(node_id) for node_id in network.live_ids())
    count = len(sorted_ids)
    for position, node_id in enumerate(sorted_ids):
        successors = router.successor_list_ids(node_id)
        expected = [sorted_ids[(position + offset) % count]
                    for offset in range(1, min(len(successors), count - 1) + 1)]
        assert successors == expected
        fingers = router.finger_ids(node_id)
        assert len(fingers) == 160
        for bit in (0, 1, 8, 40, 100, 159):
            target = (node_id + (1 << bit)) % ID_SPACE
            assert fingers[bit] == _ring_successor(sorted_ids, target)
        # Finger targets are monotone on the ring: successive fingers never
        # move counter-clockwise relative to the node.
        offsets = [(finger - node_id) % ID_SPACE for finger in fingers]
        assert all(b >= a for a, b in zip(offsets, offsets[1:]))


def test_chord_successor_and_finger_invariants():
    rng = np.random.default_rng(19)
    network = OverlayNetwork.build(80, rng)
    router = network.attach_router("chord")
    assert isinstance(router, ChordArrayRouter)
    _assert_chord_invariants(network, router)


def test_chord_invariants_survive_interleaved_churn():
    rng = np.random.default_rng(23)
    network = OverlayNetwork.build(80, rng)
    router = network.attach_router("chord")
    _churn(network, 40, rng)
    _assert_chord_invariants(network, router)


def test_chord_routes_resolve_to_ring_successors():
    rng = np.random.default_rng(29)
    network = OverlayNetwork.build(150, rng)
    router = network.attach_router("chord")
    sorted_ids = sorted(int(node_id) for node_id in network.live_ids())
    keys, starts = _lookups(network, 80, rng)
    batch = router.route_many(keys, starts)
    for key, root in zip(keys, batch.root_ids()):
        assert root == _ring_successor(sorted_ids, int(key))


# ------------------------------------------------------ fail -> recover churn --
@pytest.mark.parametrize("engine", ["pastry", "chord"])
def test_recovered_node_is_reannounced_to_the_attached_router(engine):
    """``network.recover`` is ``fail``'s counterpart: the router learns the node
    again and routes hop-for-hop like a router built fresh on the membership."""
    rng = np.random.default_rng(131)
    network = OverlayNetwork.build(120, rng)
    router = network.attach_router(engine)
    victims = [network.live_ids()[int(i)] for i in rng.permutation(120)[:12]]
    for victim in victims:
        network.fail(victim)
        assert victim not in router
        with pytest.raises(OverlayError):
            router.route(random_node_id(rng), victim)
    for victim in victims:
        node = network.recover(victim)
        assert node.alive and victim in router
    # Recovering a node that is already up announces nothing twice.
    network.recover(victims[0])
    assert router.live_count == 120

    fresh = make_router(engine, network)
    keys = [random_node_id(rng) for _ in range(150)]
    starts = (victims * 13)[:150]  # every route starts at a restarted node
    patched = router.route_many(keys, starts, collect_paths=True)
    rebuilt = fresh.route_many(keys, starts, collect_paths=True)
    assert patched.hops.tolist() == rebuilt.hops.tolist()
    assert patched.root_ids() == rebuilt.root_ids()
    assert patched.paths == rebuilt.paths
    assert router.route(keys[0], victims[0]).hops == int(patched.hops[0])


def test_recover_without_a_router_is_plain_node_recover():
    network = OverlayNetwork.build(20, np.random.default_rng(5), capacities=[100] * 20)
    victim = network.live_nodes()[3]
    victim.store_block("kept", 10)
    network.fail(victim.node_id)
    assert network.recover(victim.node_id) is victim
    assert victim.alive and victim.has_block("kept")
    network.fail(victim.node_id)
    network.recover(victim.node_id, wipe=True)
    assert victim.alive and not victim.stored_blocks


# ---------------------------------------------------------------- engines --
def test_unknown_engine_is_rejected():
    rng = np.random.default_rng(1)
    network = OverlayNetwork.build(8, rng)
    with pytest.raises(OverlayError, match="unknown routing engine"):
        make_router("gossip", network)


def test_engine_build_options_are_checked():
    """Options go to the engine's constructor; there is no dispatch switch any more."""
    network = OverlayNetwork.build(40, np.random.default_rng(2))
    with pytest.raises(TypeError):
        network.attach_router("pastry", dispatch=False)
    pastry = network.attach_router("pastry", leaf_set_half_size=4)
    chord = network.attach_router("chord")
    assert network._routing_listeners == [pastry, chord]


@pytest.mark.parametrize("engine", ["pastry", "chord"])
def test_joins_past_the_initial_slot_slack_grow_the_columns(engine):
    """More joins than the slack an engine is built with: the slot columns
    grow, and routes still equal an engine built fresh on the membership."""
    rng = np.random.default_rng(61)
    network = OverlayNetwork.build(24, rng)
    router = network.attach_router(engine)
    capacity = router._capacity
    for _ in range(capacity):
        network.join(OverlayNode(node_id=random_node_id(rng)))
    assert router._capacity > capacity and router.live_count == 24 + capacity
    keys, starts = _lookups(network, 120, rng)
    patched = router.route_many(keys, starts, collect_paths=True)
    rebuilt = make_router(engine, network).route_many(keys, starts, collect_paths=True)
    assert patched.hops.tolist() == rebuilt.hops.tolist()
    assert patched.paths == rebuilt.paths


# ------------------------------------------------------------ the routed tree --
def test_routed_tree_spans_all_targets():
    rng = np.random.default_rng(31)
    network = OverlayNetwork.build(200, rng)
    router = network.attach_router("pastry")
    live = network.live_ids()
    picks = rng.choice(len(live), size=17, replace=False)
    source = live[int(picks[0])]
    targets = [live[int(index)] for index in picks[1:]]
    tree = build_routed_tree(router, source, targets + targets[:3])

    vertex_ids = [int(node.overlay_id) for node in tree.nodes()]
    assert len(vertex_ids) == len(set(vertex_ids)), "no duplicate vertices"
    assert int(tree.root.overlay_id) == int(source)
    assert {int(target) for target in targets} <= set(vertex_ids)
    # Every parent-child edge is a hop of some routed path, so the tree's
    # height is bounded by the deepest lookup.
    batch = router.route_many(targets, source, collect_paths=True)
    assert tree.height() <= max(len(path) for path in batch.paths)


def test_routed_tree_with_no_targets_is_just_the_source():
    rng = np.random.default_rng(37)
    network = OverlayNetwork.build(30, rng)
    router = network.attach_router("pastry")
    source = network.live_ids()[0]
    tree = build_routed_tree(router, source, [source])
    assert len(tree) == 1 and int(tree.root.overlay_id) == int(source)


# --------------------------------------------------------------- misc surface --
def test_keys_accept_ints_and_node_ids():
    rng = np.random.default_rng(41)
    network = OverlayNetwork.build(50, rng)
    router = network.attach_router("pastry")
    key = random_node_id(rng)
    start = network.live_ids()[0]
    as_node_id = router.route(key, start)
    as_int = router.route(int(key), start)
    assert int(as_node_id.root) == int(as_int.root)
    assert as_node_id.hops == as_int.hops


def test_trailing_nul_keys_route_correctly():
    """Keys whose digest ends in 0x00 bytes (numpy S20 scalars strip them)."""
    rng = np.random.default_rng(43)
    network = OverlayNetwork.build(80, rng)
    router = network.attach_router("pastry")
    reference = network.attach_router(SeedPastryRouter(network))
    start = network.live_ids()[0]
    for shift in (8, 16, 24):
        key = NodeId(((int(random_node_id(rng)) >> shift) << shift) % ID_SPACE)
        seed = reference.route(key, start)
        engine = router.route(key, start)
        assert seed.hops == engine.hops
        assert int(seed.root) == int(engine.root)
