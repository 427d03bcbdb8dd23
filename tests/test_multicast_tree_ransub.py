"""Unit tests for multicast tree construction and the RanSub protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.multicast.ransub import RanSubProtocol
from repro.multicast.tree import build_binary_tree, build_locality_tree
from repro.overlay.network import OverlayNetwork


# -- trees ------------------------------------------------------------------------
def test_binary_tree_height_five_matches_paper_setup():
    tree = build_binary_tree(5)
    assert len(tree) == 63
    assert len(tree.leaves()) == 32
    assert tree.height() == 5
    assert tree.root.is_root and not tree.root.is_leaf


def test_binary_tree_structure_invariants():
    tree = build_binary_tree(3)
    for node in tree.nodes():
        if not node.is_leaf:
            assert len(node.children) == 2
            for child in node.children:
                assert child.parent is node
    labels = [node.label for node in tree.nodes()]
    assert len(set(labels)) == len(labels)


def test_binary_tree_height_zero_is_single_node():
    tree = build_binary_tree(0)
    assert len(tree) == 1
    assert tree.leaves() == [tree.root]


def test_binary_tree_negative_height_rejected():
    with pytest.raises(ValueError):
        build_binary_tree(-1)


def test_locality_tree_includes_all_targets_once():
    network = OverlayNetwork.build(40, np.random.default_rng(1), capacities=[1] * 40)
    ids = network.live_ids()
    source, targets = ids[0], ids[1:20]
    tree = build_locality_tree(network, source, targets, fanout=3)
    overlay_ids = [node.overlay_id for node in tree.nodes()]
    assert overlay_ids[0] == source
    assert set(overlay_ids[1:]) == set(targets)
    assert len(overlay_ids) == len(set(overlay_ids))
    # Fanout is respected.
    assert all(len(node.children) <= 3 for node in tree.nodes())


def test_locality_tree_prefers_close_children():
    network = OverlayNetwork.build(30, np.random.default_rng(2), capacities=[1] * 30)
    ids = network.live_ids()
    source, targets = ids[0], ids[1:]
    tree = build_locality_tree(network, source, targets, fanout=2)
    # The root's children should be among the closest handful of targets.
    child_proximities = sorted(
        network.proximity(source, child.overlay_id) for child in tree.root.children
    )
    all_proximities = sorted(network.proximity(source, target) for target in targets)
    assert child_proximities[0] == all_proximities[0]


def test_locality_tree_validation_and_dedup():
    network = OverlayNetwork.build(10, np.random.default_rng(3), capacities=[1] * 10)
    ids = network.live_ids()
    with pytest.raises(ValueError):
        build_locality_tree(network, ids[0], ids[1:3], fanout=0)
    tree = build_locality_tree(network, ids[0], [ids[1], ids[1], ids[0]], fanout=2)
    assert len(tree) == 2  # source + one unique target (source excluded from targets)


# -- RanSub --------------------------------------------------------------------------
def test_ransub_views_have_bounded_size():
    tree = build_binary_tree(4)
    protocol = RanSubProtocol(tree, subset_size=5, rng=np.random.default_rng(0))
    views = protocol.run_epoch(lambda label: label)
    assert set(views) == {node.label for node in tree.nodes()}
    assert all(len(view.members) <= 5 for view in views.values())
    assert all(view.epoch == 1 for view in views.values())


def test_ransub_members_carry_packet_counts():
    tree = build_binary_tree(3)
    protocol = RanSubProtocol(tree, subset_size=4, rng=np.random.default_rng(1))
    views = protocol.run_epoch(lambda label: label * 10)
    for view in views.values():
        for member in view.members:
            assert member.packets_held == member.label * 10


def test_ransub_views_are_random_subsets_of_population():
    tree = build_binary_tree(4)
    population = {node.label for node in tree.nodes()}
    protocol = RanSubProtocol(tree, subset_size=6, rng=np.random.default_rng(2))
    views = protocol.run_epoch(lambda label: 0)
    seen = set()
    for view in views.values():
        members = {member.label for member in view.members}
        assert members <= population
        seen |= members
    # Across all views a large share of the population should appear somewhere.
    assert len(seen) >= len(population) // 2


def test_ransub_epochs_change_views():
    tree = build_binary_tree(4)
    protocol = RanSubProtocol(tree, subset_size=3, rng=np.random.default_rng(3))
    first = protocol.run_epoch(lambda label: 0)
    second = protocol.run_epoch(lambda label: 0)
    assert protocol.epoch == 2
    # With overwhelming probability at least one leaf's view differs between epochs.
    different = any(first[node.label].members != second[node.label].members for node in tree.leaves())
    assert different


def test_ransub_counts_messages_per_epoch():
    tree = build_binary_tree(3)
    protocol = RanSubProtocol(tree, subset_size=3, rng=np.random.default_rng(4))
    protocol.run_epoch(lambda label: 0)
    # Collect + distribute each send one message per tree edge.
    assert protocol.messages_last_epoch == 2 * (len(tree) - 1)


def test_ransub_subset_size_validation():
    tree = build_binary_tree(2)
    with pytest.raises(ValueError):
        RanSubProtocol(tree, subset_size=0, rng=np.random.default_rng(0))
