"""Unit tests for per-node state and the reference router's leaf sets."""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState

from reference.recorder import BlockRecorder
from reference.seed_pastry import LeafSet


def make_node(value: int, capacity: int = 1000) -> OverlayNode:
    return OverlayNode(node_id=value, capacity=capacity)


# -- LeafSet (tests/reference/seed_pastry.py) ------------------------------------
def test_leaf_set_keeps_closest_on_each_side():
    owner = 1000
    leaf = LeafSet(owner, half_size=2)
    for value in (1100, 1200, 1300, 900, 800, 700):
        leaf.consider(value)
    members = {int(member) for member in leaf.members()}
    assert members == {1100, 1200, 900, 800}


def test_leaf_set_ignores_owner_and_duplicates():
    owner = 50
    leaf = LeafSet(owner, half_size=2)
    assert not leaf.consider(owner)
    assert leaf.consider(60)
    leaf.consider(60)
    assert len(leaf) == 1


def test_leaf_set_remove():
    leaf = LeafSet(0, half_size=2)
    leaf.consider(10)
    assert leaf.remove(10)
    assert not leaf.remove(10)
    assert len(leaf) == 0


def test_leaf_set_immediate_neighbors():
    leaf = LeafSet(1000, half_size=3)
    for value in (1010, 1050, 990, 950):
        leaf.consider(value)
    immediate = {int(node) for node in leaf.immediate_neighbors()}
    assert immediate == {990, 1010}


def test_leaf_set_closest_to_includes_owner():
    leaf = LeafSet(1000, half_size=2)
    leaf.consider(2000)
    assert leaf.closest_to(1001) == 1000
    assert leaf.closest_to(1999) == 2000


def test_leaf_set_requires_positive_half_size():
    with pytest.raises(ValueError):
        LeafSet(0, half_size=0)


# -- OverlayNode block storage -------------------------------------------------------
def test_store_block_respects_capacity():
    node = make_node(1, capacity=100)
    assert node.store_block("a", 60)
    assert not node.store_block("b", 50)  # would exceed capacity
    assert node.store_block("c", 40)
    assert node.free == 0


def test_store_block_rejects_duplicates_and_dead_nodes():
    """A dead node takes nothing; a second copy of one block is kept off its holders
    by ``store_block``'s ``exclude``, which the placing call fills with the
    ledger's on-disk holders of the block."""
    network = OverlayNetwork.build(12, np.random.default_rng(2), capacities=[1 << 30] * 12)
    storage = StorageSystem(DHTView(network))
    # The recorder raises where the seed's node would have refused a name it held.
    with BlockRecorder() as recorder:
        assert storage.store_file("f", 1 << 20).success
        ledger = storage.ledger
        placement = ledger.placement_for(storage.files["f"].chunks[0].ledger_index, 0)
        (row,) = [row for row in range(ledger.row_count) if ledger.row_fields(row)[2] == placement]
        holder, name, size = ledger.row_owner(row), ledger.row_name(row), ledger.row_fields(row)[3]
        ledger.ensure_digests([row])
        assert storage.dht.locate_key(ledger.row_key(row)) is holder
        holders = ledger.placement_disk_serials(placement)
        assert holders == {holder.serial}
        again = RecoveryManager(storage).place_block(name, size, ledger.row_key(row), holders)
        assert again is not None and again is not holder
        assert recorder.has_block(again, name) and recorder.has_block(holder, name)
    node = make_node(2, capacity=100)
    node.fail()
    assert not node.store_block("b", 10)


def test_store_block_refuses_an_excluded_serial_and_changes_nothing():
    """``exclude`` is the door's exclusion: the node refuses, and no count moves."""
    network = OverlayNetwork.build(4, np.random.default_rng(5), capacities=[100] * 4)
    view = DHTView(network)
    node = view.state.nodes[0]
    with BlockRecorder() as recorder:
        assert not node.store_block("a", 10, {node.serial})
        assert not node.store_block("a", 10, (node.serial, node.serial + 1))
        assert node.used == 0 and view.total_used() == 0 and recorder.blocks(node) == {}
        assert node.store_block("a", 10, {node.serial + 1})
        assert node.used == 10 and view.total_used() == 10 and recorder.blocks(node) == {"a": 10}
        # A full or down node refuses as before, excluded or not.
        assert not node.store_block("b", 91, ())
        node.fail()
        assert not node.store_block("b", 1, ())
        assert not node.store_block("b", 1, {node.serial})
        assert recorder.blocks(node) == {"a": 10}
    view.state.check_invariants()


def test_the_recorder_holds_an_excluded_store_to_changing_nothing(monkeypatch):
    """A door that took bytes despite ``exclude`` fails the recorder's check."""
    node = make_node(9, capacity=100)
    node.serial = 0
    door = OverlayNode.store_block

    def leaky_door(self, block_name, size, exclude=()):
        return door(self, block_name, size) and False  # takes the bytes, answers no

    monkeypatch.setattr(OverlayNode, "store_block", leaky_door)
    with BlockRecorder(), pytest.raises(AssertionError):
        node.store_block("a", 10, {0})


def test_remove_block_releases_space():
    """A node removes a copy its ledger records once; a second removal is refused."""
    network = OverlayNetwork.build(12, np.random.default_rng(3), capacities=[1 << 30] * 12)
    storage = StorageSystem(DHTView(network))
    assert storage.store_file("f", 1 << 20).success
    ledger = storage.ledger
    row = next(row for row in range(ledger.row_count) if ledger.row_fields(row)[2] >= 0)
    node, name, size = ledger.row_owner(row), ledger.row_name(row), ledger.row_fields(row)[3]
    used = node.used
    assert node.remove_block(name, size)
    assert node.used == used - size and ledger.row_released(row)
    assert not node.remove_block(name, size)
    assert node.used == used - size
    assert not node.remove_block("never stored", 1)
    ledger.check_invariants()


def test_release_block_takes_back_an_unrecorded_copy():
    node = make_node(3, capacity=100)
    assert node.store_block("a", 70)
    assert not node.remove_block("a", 70)  # no ledger records it
    assert node.release_block("a", 70)
    assert node.free == 100
    assert not node.release_block("a", 70)  # more than the node uses


def test_has_block_false_when_failed():
    node = make_node(4, capacity=100)
    with BlockRecorder() as recorder:
        node.store_block("a", 10)
        assert recorder.has_block(node, "a")
        node.fail()
        assert not recorder.has_block(node, "a")


def test_report_capacity_applies_fraction_and_liveness():
    node = make_node(5, capacity=100)
    node.capacity_report_fraction = 0.5
    assert node.report_capacity() == 50
    node.store_block("a", 40)
    assert node.report_capacity() == 30
    node.fail()
    assert node.report_capacity() == 0


def test_recover_wipes_by_default():
    node = make_node(6, capacity=100)
    with BlockRecorder() as recorder:
        node.store_block("a", 30)
        node.fail()
        node.recover()
        assert node.alive and node.used == 0 and not recorder.blocks(node) and node.wipes == 1
        node.store_block("b", 30)
        node.fail()
        node.recover(wipe=False)
        assert recorder.has_block(node, "b") and node.used == 30 and node.wipes == 1


# -- slots fallout --------------------------------------------------------------------
def test_nodes_are_slotted_and_construct_in_the_documented_order():
    node = OverlayNode(7, (1.0, 2.0), 100, 10, True, 0.5, 3, 14)
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.scratch = 1
    assert (node.coordinates, node.capacity, node.used, node.alive) == ((1.0, 2.0), 100, 10, True)
    assert (node.capacity_report_fraction, node.site, node.rack) == (0.5, 3, 14)
    assert node.stored_blocks == {} and node.serial is None  # no ledger holds a row of it
    # Positional construction skips the three init=False bookkeeping fields,
    # which sit before ``used`` because its setter reads them during __init__.
    assert [f.name for f in dataclasses.fields(OverlayNode) if f.init] == [
        "node_id", "coordinates", "capacity", "used", "alive",
        "capacity_report_fraction", "site", "rack", "serial"]
    # A read-only mapping derived from the ledgers (perfbench reads its len()).
    assert isinstance(node.stored_blocks, Mapping)
    with pytest.raises(TypeError):
        node.stored_blocks["a"] = 10


def test_equality_and_repr_ignore_the_serial_and_the_bookkeeping_fields():
    left = OverlayNode(node_id=9, capacity=100, used=10, serial=4)
    right = OverlayNode(node_id=9, capacity=100)
    state = NodeArrayState([right])  # attaches a usage listener to ``right`` only
    right.used = 10
    assert state.used_total == 10
    assert left._usage_listeners != right._usage_listeners and left.serial != right.serial
    assert left == right and repr(left) == repr(right)
    right.store_block("a", 1)
    assert left != right


def test_the_tracer_patches_classes_by_name_and_never_a_node():
    """perfbench/tracing.py reads ``owner.__dict__[attr]``: the names must stay put."""
    from perfbench.tracing import _targets

    targets = _targets()  # each resolves: tests/test_architecture.py
    assert OverlayNode not in {owner for owner, _, _, _ in targets}
    patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in targets}
    assert {("CfsStore", "store_file"), ("DHTView", "resolve_digests"),
            ("BlockLedger", "register_striped_file"), ("BlockLedger", "register_file"),
            ("BlockLedger", "queue_whole_file"), ("BlockLedger", "flush_registrations"),
            ("OverlayNetwork", "build"), ("OverlayNetwork", "join")} <= patched
