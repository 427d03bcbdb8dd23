"""Unit tests for Bullet packet dissemination."""

from __future__ import annotations

import numpy as np
import pytest

from repro.multicast.bullet import BulletConfig, BulletSession
from repro.multicast.tree import build_binary_tree


def make_session(**overrides) -> BulletSession:
    config = BulletConfig(
        total_packets=overrides.pop("total_packets", 200),
        ransub_fraction=overrides.pop("ransub_fraction", 0.16),
        link_capacity=overrides.pop("link_capacity", 10),
        peer_capacity=overrides.pop("peer_capacity", 5),
        download_capacity=overrides.pop("download_capacity", 25),
        max_epochs=overrides.pop("max_epochs", 500),
    )
    tree = build_binary_tree(overrides.pop("height", 4))
    return BulletSession(tree, config, rng=np.random.default_rng(overrides.pop("seed", 0)))


def test_config_validation():
    with pytest.raises(ValueError):
        BulletConfig(total_packets=0)
    with pytest.raises(ValueError):
        BulletConfig(ransub_fraction=0.0)
    with pytest.raises(ValueError):
        BulletConfig(download_capacity=0)
    with pytest.raises(ValueError):
        BulletConfig(max_epochs=0)


def test_source_starts_with_all_packets_and_receivers_empty():
    session = make_session()
    assert session.node_packet_count(session.tree.root.label) == 200
    for leaf in session.tree.leaves():
        assert session.node_packet_count(leaf.label) == 0
    assert not session.is_complete()


def test_run_disseminates_to_every_leaf():
    session = make_session()
    history = session.run(until_complete=True)
    assert session.is_complete()
    assert history[-1].complete_leaves == len(session.tree.leaves())
    # Every non-source vertex ends with the full chunk.
    for node in session.tree.nodes():
        assert session.node_packet_count(node.label) == 200


def test_packet_counts_are_monotone_per_epoch():
    session = make_session()
    session.run(until_complete=True)
    averages = [stats.average for stats in session.history]
    assert all(b >= a for a, b in zip(averages, averages[1:]))
    assert averages[-1] == pytest.approx(200.0)


def test_epoch_stats_min_le_avg_le_max():
    session = make_session()
    session.run(epochs=10, until_complete=False)
    for stats in session.history:
        assert stats.minimum <= stats.average <= stats.maximum <= 200


def test_download_capacity_bounds_per_epoch_progress():
    session = make_session(download_capacity=7, link_capacity=7, peer_capacity=7)
    session.run_epoch()
    for node in session.tree.nodes():
        if not node.is_root:
            assert session.node_packet_count(node.label) <= 7


def test_larger_ransub_view_speeds_up_dissemination():
    slow = make_session(ransub_fraction=0.03, seed=1)
    fast = make_session(ransub_fraction=0.20, seed=1)
    slow.run(until_complete=True)
    fast.run(until_complete=True)
    assert len(fast.history) <= len(slow.history)


def test_mesh_pulls_help_over_pure_tree_push():
    pure_tree = make_session(peer_capacity=0, download_capacity=10, seed=2)
    with_mesh = make_session(peer_capacity=5, download_capacity=25, seed=2)
    pure_tree.run(until_complete=True)
    with_mesh.run(until_complete=True)
    assert len(with_mesh.history) < len(pure_tree.history)


def test_fixed_epoch_run_does_not_overrun():
    session = make_session()
    history = session.run(epochs=5, until_complete=False)
    assert len(history) == 5


def test_max_epochs_caps_run():
    session = make_session(total_packets=5000, max_epochs=10, link_capacity=1, peer_capacity=1,
                           download_capacity=2)
    session.run(until_complete=True)
    assert len(session.history) == 10
    assert not session.is_complete()


def test_transfer_moves_only_missing_packets():
    session = make_session()
    root = session.tree.root.label
    leaf = session.tree.leaves()[0].label
    moved = session._transfer(root, leaf, budget=50)
    assert moved == 50
    # Moving again with the same budget brings new packets only.
    before = set(session.packets[leaf])
    session._transfer(root, leaf, budget=50)
    assert len(session.packets[leaf]) == 100
    assert before < session.packets[leaf]
    # Zero budget moves nothing.
    assert session._transfer(root, leaf, budget=0) == 0
