"""Owner slots belong to node *objects*, and a stored block costs one Python call.

The ledger resolves a holder to its owner slot through the holder's network
``serial`` (a list index), not through its 160-bit id.  Two consequences are
pinned here: a fresh machine that joins under a departed node's id is a new
holder the ledger hears fail, and the CFS store loop -- 244 k blocks per
Figures 7-9 cycle at 10 k nodes -- makes one Python-level call per block, with
the first-sight work (slot, site / rack, listener) done once per node.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode

MB = 1 << 20


def _small_overlay():
    network = OverlayNetwork.build(8, np.random.default_rng(7), capacities=[64 * MB] * 8)
    return network, DHTView(network)


def _replace_with_fresh_machine(network, dht, departed) -> OverlayNode:
    """``departed`` leaves; a new machine joins under its id."""
    dht.remove(departed.node_id)
    network.leave(departed.node_id)
    fresh = OverlayNode(node_id=departed.node_id, capacity=departed.capacity)
    network.join(fresh)
    dht.add(fresh)
    return fresh


def test_a_machine_that_rejoins_under_its_old_id_is_a_new_holder():
    network, dht = _small_overlay()
    cfs = CfsStore(dht, block_size=1 * MB)
    ledger = cfs.ledger
    assert cfs.store_file("a", 40 * MB).success
    departed = max(network.nodes(), key=lambda node: node.used)
    fresh = _replace_with_fresh_machine(network, dht, departed)
    assert cfs.store_file("b", 40 * MB).success

    on_fresh = [row for row in ledger.file_rows(cfs.files["b"])
                if ledger.row_owner(row).node_id == fresh.node_id]
    assert on_fresh and all(ledger.row_owner(row) is fresh for row in on_fresh)
    assert ledger.recovery_rows(fresh) == on_fresh
    assert ledger.recovery_rows(departed) == []
    assert ledger in fresh._state_listeners
    ledger.check_invariants()

    live_before = ledger.live_rows
    fresh.fail()
    assert ledger.live_rows == live_before - len(on_fresh)
    assert not cfs.is_file_available("b")
    ledger.check_invariants()


def test_a_buffered_registration_does_not_mistake_the_newcomer_for_its_holder():
    """The flush reconciles by object: the queued copy left with the old machine."""
    network, dht = _small_overlay()
    past = PastStore(dht)
    assert past.store_file("a", 4 * MB).success  # queued, not yet a row
    (holder,) = next(entry[3] for entry in past.ledger._pending_whole if entry[0] == "a")
    _replace_with_fresh_machine(network, dht, holder)
    assert not past.is_file_available("a")
    assert past.ledger.live_rows == 0
    past.ledger.check_invariants()


def _warm_cfs(nodes: int = 200, files: int = 40):
    network = OverlayNetwork.build(
        nodes, np.random.default_rng(3), capacities=[45 * 1024 * MB] * nodes)
    cfs = CfsStore(DHTView(network), block_size=4 * MB)
    for index in range(files):
        assert cfs.store_file(f"warm{index}", 244 * MB).success
    return network, cfs


def test_a_stored_cfs_block_costs_at_most_three_python_calls():
    """A count, not a clock: 7.28 calls per block before the serial table, 1.23 after."""
    _, cfs = _warm_cfs()
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        result = cfs.store_file("probe", 244 * MB)
    finally:
        sys.setprofile(None)
    assert result.success and result.chunk_count == 61
    assert len(calls) <= 3 * 61, sorted(set(calls))
    assert calls.count("store_block") == 61
    assert calls.count("resolve_digests") == 1  # the tracer's per-file span


def test_first_sight_work_runs_once_per_node_not_once_per_row():
    network, cfs = _warm_cfs()
    ledger = cfs.ledger
    holders = [node for node in network.nodes() if node.stored_blocks]
    assert ledger.row_count == 40 * 61 > 10 * len(holders)
    assert len(holders) == len(ledger._slot_nodes)
    assert {id(node) for node in holders} == {id(node) for node in ledger._slot_nodes}
    assert all(node._state_listeners.count(ledger) == 1 for node in holders)
    ledger.check_invariants()
