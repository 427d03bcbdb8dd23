"""A state machine that hunts the block ledger's invariants.

One small overlay carries the erasure-coded system (twice, as two tenants), PAST
and CFS on one shared multi-tenant ledger; Hypothesis drives stores (also of a
name another tenant or a deleted file used), deletes, reads, multicast
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
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from reference import dict_walk
from reference.recorder import current

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core import block_ledger
from repro.core.block_ledger import KIND_META, KIND_RESTORED, BlockLedger
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

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

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
        # A second tenant of the same scheme: its files' blocks are named like
        # ours whenever the file names match.
        self.mirror = StorageSystem(
            self.dht,
            codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
            policy=StoragePolicy(block_replication=copies),
            ledger=self.ledger, tenant="mirror",
        )
        self.stores = {"ours": self.ours, "mirror": self.mirror, "past": self.past,
                       "cfs": self.cfs}
        self.recovery = RecoveryManager(self.ours)
        self.replicator = MulticastReplicator(self.ours, simulate_push=False)
        self.names = {scheme: {} for scheme in self.stores}  # name -> bytes
        self.used_names = set()  # every name some store took, deleted or not
        self.down = []  # crashed, still members: may return (wiped or not) or leave
        self.counter = 0

    def teardown(self):
        if hasattr(self, "saved_limit"):
            self.ledger.check_invariants()  # flushes whatever is still buffered
            block_ledger._OVERFLOW_LIMIT = self.saved_limit

    def _live(self):
        return self.dht.state.nodes

    # -- files ---------------------------------------------------------------------
    def _store(self, scheme, name, size):
        if self.stores[scheme].store_file(name, size).success:
            self.names[scheme][name] = size
            self.used_names.add(name)

    @rule(scheme=st.sampled_from(["ours", "mirror", "past", "cfs"]), size_mb=st.integers(1, 5))
    def store(self, scheme, size_mb):
        name = f"file{self.counter}"
        self.counter += 1
        self._store(scheme, name, size_mb * MB)

    @rule(scheme=st.sampled_from(["ours", "mirror", "past", "cfs"]), which=pick,
          size_mb=st.integers(1, 3))
    def store_a_namesake(self, scheme, which, size_mb):
        """Store a name another tenant holds or a deleted file held: every scheme derives
        its block names from the file name, so the two files' copies of one name must
        never share a node (the recorder raises on a duplicate)."""
        taken = sorted(self.used_names - set(self.names[scheme]))
        if taken:
            self._store(scheme, taken[which % len(taken)], size_mb * MB)

    @rule(size_mb=st.integers(1, 3))
    def salted_cfs_store(self, size_mb):
        """A CFS store whose first block's root is full: the block goes in under a salted
        name, which the ledger keeps as a retry attempt and derives back."""
        name = f"file{self.counter}"
        self.counter += 1
        root = self.dht.locate_name(f"{name}/block0")
        free = root.free
        assert root.store_block("filler", free)
        try:
            stored = self.cfs.store_file(name, size_mb * MB).success
        finally:
            root.release_block("filler", free)
        if stored:
            self.names["cfs"][name] = size_mb * MB
            self.used_names.add(name)
            block, primary, _, _ = self.cfs.block_entries(name)[0]
            assert block.startswith(f"{name}/block0#salt") and primary is not root

    @precondition(lambda self: len(self._live()) > MIN_LIVE and self.names["ours"])
    @rule(which=pick)
    def repair_a_cat_holder(self, which):
        """Fail and repair a node holding a CAT copy: each re-created copy is a restored
        row named like its file's CAT (the digest law holds it to the name it was
        hashed from), and the file's deletion leaves it behind."""
        self._repair_cat_holder(self._ours_file(which))

    @precondition(lambda self: len(self._live()) > MIN_LIVE and self.names["ours"])
    @rule(which=pick)
    def repair_a_cat_holder_delete_and_store_again(self, which):
        """The restored CAT copy a deletion leaves behind sits where the name's CAT goes:
        storing the name again must keep the new CAT (and blocks) off its node."""
        name = self._ours_file(which)
        self._repair_cat_holder(name)
        size = self.names["ours"].pop(name)
        assert self.ours.delete_file(name)
        self._store("ours", name, size)

    def _repair_cat_holder(self, name):
        ledger = self.ledger
        f = self.ours.files[name].ledger_index
        cat = [row for row in ledger.file_rows(f) if ledger.row_fields(row)[4] == KIND_META]
        live = self._live()
        holder = next((ledger.row_owner(row) for row in cat if not ledger.row_released(row)
                       and any(node is ledger.row_owner(row) for node in live)), None)
        if holder is None:
            return
        self.recovery.handle_failure(holder.node_id)
        self.down.append(holder)
        for row in ledger.file_rows(f):
            if ledger.row_fields(row)[4] == KIND_RESTORED:
                assert ledger.row_name(row) == ledger.row_name(cat[0])

    @precondition(lambda self: len(self._live()) > MIN_LIVE)
    @rule(which=pick)
    def repair_then_return_unwiped_then_compact(self, which):
        """Repair re-points a node's copies while it keeps their bytes (orphans); it comes
        back with its disk, and a compaction drops the released rows but not the orphans."""
        node = self._live()[which % len(self._live())]
        self.recovery.handle_failure(node.node_id)
        self.network.recover(node.node_id, wipe=False)
        self.dht.add(node)
        self.ledger.compact()
        assert dict(node.stored_blocks) == current().blocks(node)
        assert node.used == sum(current().blocks(node).values())

    @rule(scheme=st.sampled_from(["ours", "mirror", "past", "cfs"]), which=pick)
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
        members, held = self.network.live_nodes(), current()
        for name in self.names["past"]:
            stored_name = self.past.files[name]
            assert self.past.is_file_available(name) == any(
                held.has_block(node, stored_name) for node in members)
        for name in self.names["cfs"]:
            assert self.cfs.is_file_available(name) == all(
                any(held.has_block(node, block) for node in members)
                for block, _, _, _ in self.cfs.block_entries(name))
        # The ledger-derived view of each member's disk is what the node was handed.
        for node in self.network.nodes():
            assert dict(node.stored_blocks) == held.blocks(node), node.node_id
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
    fillers = [(node, node.free) for node in dht.state.nodes if node.node_id != holder]
    for node, free in fillers:
        assert node.store_block("filler", free)
    impact = RecoveryManager(storage).handle_failure(holder)
    assert impact.replicas_restored == 0 and impact.bytes_dropped > 0
    for node, free in fillers:
        node.release_block("filler", free)
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
