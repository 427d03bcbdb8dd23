"""A state machine that hunts the block ledger's invariants.

One small overlay carries the erasure-coded system, PAST and CFS on one shared
multi-tenant ledger; Hypothesis drives stores, deletes, crashes, wiped and
unwiped returns, site and rack outages (one ``fail_domain`` mask, then the
members fail), departures (also with a fresh machine taking over the id),
repairs (also of nodes already down, twice over), compactions and flushes in
any order and calls
:meth:`BlockLedger.check_invariants` (every aggregate and every row index
recomputed from the raw columns) after each step, then compares every file's
availability with a walk over the nodes' ``stored_blocks`` dicts and each
store's tenant counters with its own files.
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
