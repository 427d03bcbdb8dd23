"""A state machine that hunts the block ledger's invariants.

One small overlay carries the erasure-coded system, PAST and CFS on one shared
multi-tenant ledger; Hypothesis drives stores, deletes, reads, multicast
replications, crashes, wiped and unwiped returns, site and rack outages (one
``fail_domain`` mask, then the members fail), departures (also with a fresh
machine taking over the id), repairs (also of nodes already down, twice over),
compactions and flushes in any order and calls
:meth:`BlockLedger.check_invariants` (every aggregate and every row index
recomputed from the raw columns) after each step, then compares every file's
availability with a walk over the nodes' ``stored_blocks`` dicts and each
store's tenant counters with its own files.  A read also holds each placement
view (``StoredChunk.placements``, derived from the ledger) to the ledger's
live-copy count.  Two orderings where the view differs from what the seed's
placement objects would have said are pinned by the shrunk tests at the end.
Half the runs shrink the row indexes' overflow limit to 3 so sorts land in
the middle of repairs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from reference import dict_walk

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core import block_ledger
from repro.core.block_ledger import BlockLedger
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.multicast.replication import MulticastReplicator
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.sim.faults import assign_domains

MB = 1 << 20
NODES = 24
MIN_LIVE = 10  # keep enough live nodes that stores and repairs can still place
SITES, RACKS_PER_SITE = 2, 2  # six nodes a rack at build time

pick = st.integers(0, 10 ** 6)  # reduced modulo whatever population exists


class LedgerMachine(RuleBasedStateMachine):
    @initialize(replicas=st.booleans(), small_limit=st.booleans(), seed=st.integers(0, 3))
    def build(self, replicas, small_limit, seed):
        self.saved_limit = block_ledger._OVERFLOW_LIMIT
        if small_limit:
            block_ledger._OVERFLOW_LIMIT = 3
        copies = 2 if replicas else 1
        self.network = OverlayNetwork.build(
            NODES, np.random.default_rng(seed), capacities=[96 * MB] * NODES)
        assign_domains(self.network.nodes(), sites=SITES, racks_per_site=RACKS_PER_SITE)
        self.dht = DHTView(self.network)
        self.ledger = BlockLedger(self.network)
        self.ours = StorageSystem(
            self.dht,
            codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
            policy=StoragePolicy(block_replication=copies),
            ledger=self.ledger, tenant="ours",
        )
        self.past = PastStore(self.dht, replication=copies, ledger=self.ledger, tenant="past")
        self.cfs = CfsStore(
            self.dht, block_size=1 * MB, replication=copies, ledger=self.ledger, tenant="cfs"
        )
        self.stores = {"ours": self.ours, "past": self.past, "cfs": self.cfs}
        self.recovery = RecoveryManager(self.ours)
        self.replicator = MulticastReplicator(self.ours, simulate_push=False)
        self.names = {scheme: {} for scheme in self.stores}  # name -> bytes
        self.down = []  # crashed, still members: may return (wiped or not) or leave
        self.counter = 0

    def teardown(self):
        if hasattr(self, "saved_limit"):
            self.ledger.check_invariants()  # flushes whatever is still buffered
            block_ledger._OVERFLOW_LIMIT = self.saved_limit

    def _live(self):
        return self.dht.state.nodes

    # -- files ---------------------------------------------------------------------
    @rule(scheme=st.sampled_from(["ours", "past", "cfs"]), size_mb=st.integers(1, 5))
    def store(self, scheme, size_mb):
        name = f"file{self.counter}"
        self.counter += 1
        if self.stores[scheme].store_file(name, size_mb * MB).success:
            self.names[scheme][name] = size_mb * MB

    @rule(scheme=st.sampled_from(["ours", "past", "cfs"]), which=pick)
    def delete(self, scheme, which):
        if self.names[scheme]:
            name = list(self.names[scheme])[which % len(self.names[scheme])]
            del self.names[scheme][name]
            assert self.stores[scheme].delete_file(name)

    def _ours_file(self, which):
        names = list(self.names["ours"])
        return names[which % len(names)]

    @precondition(lambda self: self.names["ours"])
    @rule(which=pick)
    def read(self, which):
        """A whole-file read, then every placement view against the ledger's copy count."""
        name = self._ours_file(which)
        result = self.ours.retrieve_file(name)
        assert result.complete == self.ours.is_file_available(name)
        for chunk in self.ours.files[name].data_chunks():
            for index, placement in zip(
                    self.ledger.chunk_placement_indexes(chunk.ledger_index), chunk.placements):
                assert dict_walk.live_copies(self.network, placement) == (
                    self.ledger.placement_live_copies(index))

    @precondition(lambda self: self.names["ours"])
    @rule(which=pick)
    def replicate(self, which):
        """One more multicast replica of every block of a data chunk (Section 4.4.1)."""
        name = self._ours_file(which)
        chunks = self.ours.files[name].data_chunks()
        self.replicator.replicate_chunk(name, chunks[which % len(chunks)].chunk_no, 1)

    # -- membership ------------------------------------------------------------------
    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(which=pick)
    def crash(self, which):
        """``node.fail()`` with no repair: rows die but stay referenced."""
        node = self._live()[which % len(self._live())]
        self.network.fail(node.node_id)
        self.dht.remove(node.node_id)
        self.down.append(node)

    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(which=pick)
    def fail_and_repair(self, which):
        node = self._live()[which % len(self._live())]
        self.recovery.handle_failure(node.node_id)
        self.down.append(node)

    @precondition(lambda self: self.down)
    @rule(which=pick)
    def repair_while_down(self, which):
        """Repair a node that is already down; once repaired, doing it again is a no-op."""
        node = self.down[which % len(self.down)]
        self.recovery.handle_failure(node.node_id)
        before = (self.ledger.live_rows, self.dht.total_used())
        again = self.recovery.handle_failure(node.node_id)
        assert again.bytes_regenerated == again.replicas_restored == 0
        assert (self.ledger.live_rows, self.dht.total_used()) == before

    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(rack=st.integers(0, SITES * RACKS_PER_SITE - 1), whole_site=st.booleans())
    def domain_outage(self, rack, whole_site):
        """A correlated outage the way ``FaultInjector`` runs one: one mask
        kills the domain's rows (many files at once), then its live members fail."""
        site = rack // RACKS_PER_SITE
        members = [node for node in self._live()
                   if node.site == site and (whole_site or node.rack == rack)]
        if len(self._live()) - len(members) < MIN_LIVE:
            return
        live_rows = sum(int(self.ledger._alive[row])
                        for node in members for row in self.ledger.recovery_rows(node))
        domain = {"site": site} if whole_site else {"rack": rack}
        assert self.ledger.fail_domain(**domain) == live_rows
        for node in members:
            self.network.fail(node.node_id)
            self.dht.remove(node.node_id)
            self.down.append(node)

    @precondition(lambda self: self.down)
    @rule(which=pick, wipe=st.booleans())
    def come_back(self, which, wipe):
        node = self.down.pop(which % len(self.down))
        self.network.recover(node.node_id, wipe=wipe)
        self.dht.add(node)

    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(which=pick, migrate=st.booleans())
    def depart(self, which, migrate):
        node = self._live()[which % len(self._live())]
        if migrate:
            self.recovery.handle_leave(node.node_id)
        else:
            self.dht.remove(node.node_id)
            self.network.leave(node.node_id)

    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(which=pick)
    def leave_then_rejoin_same_id(self, which):
        """A fresh machine takes over a departed node's id: a new holder, not the old one."""
        node = self._live()[which % len(self._live())]
        self.dht.remove(node.node_id)
        self.network.leave(node.node_id)
        fresh = OverlayNode(node_id=node.node_id, capacity=node.capacity)
        self.network.join(fresh)
        self.dht.add(fresh)

    @precondition(lambda self: self.down)
    @rule(which=pick)
    def depart_while_down(self, which):
        self.network.leave(self.down.pop(which % len(self.down)).node_id)

    # -- housekeeping ----------------------------------------------------------------
    @rule()
    def compact(self):
        stats = self.ledger.compact()
        assert self.ledger.row_count == stats["rows_after"]

    @rule()
    def flush(self):
        self.ledger.flush_registrations()

    # -- laws ------------------------------------------------------------------------
    @invariant()
    def ledger_laws_hold(self):
        if not hasattr(self, "ledger") or self.ledger._pending_whole:
            return  # buffered registrations: exact only once flushed (teardown checks)
        self.ledger.check_invariants()
        for name in self.names["ours"]:
            assert self.ours.is_file_available(name) == dict_walk.file_available(self.ours, name)
        # The baselines' dict walks predate departures and migration (they read
        # the holder lists captured at store time), so walk the members by name.
        members = self.network.live_nodes()
        for name in self.names["past"]:
            stored_name = self.past.files[name][0]
            assert self.past.is_file_available(name) == any(
                node.has_block(stored_name) for node in members)
        for name in self.names["cfs"]:
            assert self.cfs.is_file_available(name) == all(
                any(node.has_block(block) for node in members)
                for block, _, _, _ in self.cfs.block_entries(name))
        # Each store's tenant counters, worked out from the columns.
        for scheme, store in self.stores.items():
            counts = self.ledger.tenant_aggregates(store.store_tenant)
            sizes = self.names[scheme]
            assert counts["active_files"] == len(store.files) == len(sizes)
            assert counts["stored_data_bytes"] == sum(sizes.values())
            assert counts["unavailable_files"] == sum(
                not store.is_file_available(name) for name in sizes)


LedgerMachine.TestCase.settings = settings(
    # 200 examples at tier-1's budget (tests/conftest.py scales the default).
    max_examples=2 * settings.default.max_examples, stateful_step_count=30, deadline=None
)
test_ledger_state_machine = LedgerMachine.TestCase


# -- two orderings where the placement view answers the ledger's way -----------------
def _replicated_file():
    """One (2,3)-XOR file with a neighbour replica of every block, on a quiet overlay."""
    network = OverlayNetwork.build(NODES, np.random.default_rng(0), capacities=[96 * MB] * NODES)
    dht = DHTView(network)
    storage = StorageSystem(
        dht, codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2),
    )
    assert storage.store_file("f", 4 * MB).success
    chunk = storage.files["f"].data_chunks()[0]
    placement = storage.ledger.placement_for(chunk.ledger_index, 0)
    return network, dht, storage, chunk, placement


def test_a_replica_repair_with_no_room_keeps_its_holder_revivable():
    """The seed's placement object dropped a replica holder it found no room to
    replace, yet the holder's row stays dead but revivable; the view keeps naming
    the holder, so its copy counts again when it returns with its disk."""
    network, dht, storage, chunk, placement = _replicated_file()
    (holder,) = chunk.placements[0].replica_nodes
    others = [node for node in dht.state.nodes if node.node_id != holder]
    for node in others:
        assert node.store_block("filler", node.free)
    impact = RecoveryManager(storage).handle_failure(holder)
    assert impact.replicas_restored == 0 and impact.bytes_dropped > 0
    for node in others:
        node.remove_block("filler")
    assert chunk.placements[0].replica_nodes == (holder,)
    assert storage.ledger.placement_live_copies(placement) == 1
    network.recover(holder, wipe=False)
    dht.add(network.node(holder))
    assert storage.ledger.placement_live_copies(placement) == 2
    dict_walk.audit(storage)


def test_a_wiped_replica_leaves_the_placement_view():
    """A replica holder that returns with an empty disk lost its copy for good (the
    wipe released its row); the seed's placement object kept its id, the view drops
    it, and a later replication may pick the holder again without listing it twice."""
    network, dht, storage, chunk, placement = _replicated_file()
    before = chunk.placements[0]
    (holder,) = before.replica_nodes
    network.fail(holder)
    dht.remove(holder)
    network.recover(holder, wipe=True)
    dht.add(network.node(holder))
    after = chunk.placements[0]
    assert (after.node_id, after.replica_nodes) == (before.node_id, ())
    assert storage.ledger.placement_live_copies(placement) == 1
    dict_walk.audit(storage)
    report = MulticastReplicator(storage, simulate_push=False).replicate_chunk("f", chunk.chunk_no, 1)
    assert report.holders[before.block_name] == [holder]
    assert chunk.placements[0].replica_nodes == (holder,)
    assert storage.ledger.placement_live_copies(placement) == 2
    dict_walk.audit(storage)
