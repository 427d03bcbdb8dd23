"""A state machine that hunts the node-state index's invariants.

Two :class:`NodeArrayState` indexes share one pool of nodes (the way three
schemes' ``DHTView`` s can share an overlay); Hypothesis drives stores, removals,
wiped and unwiped returns, direct ``node.used = x`` assignments and membership
changes (add / remove / rebuild, with lookups in between so that both patched
and dirty boundaries occur) in any order and calls
:meth:`NodeArrayState.check_invariants` on both after every rule: totals ==
recomputed sums, id order, exactly one listener entry per indexed node, patched
boundaries == a full rebuild.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from reference.recorder import current

from repro.overlay.ids import ID_SPACE
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState

# Which blocks a node holds is read from the recorder (the nodes keep no names).
pytestmark = pytest.mark.usefixtures("block_recorder")

pick = st.integers(0, 10 ** 6)  # reduced modulo whatever population exists
#: Ids cluster at the ring's ends and middle so end insertions / removals and
#: wrap-boundary layout flips are common, not one-in-2**160.
ring_ids = st.one_of(
    st.integers(0, 40), st.integers(ID_SPACE - 40, ID_SPACE - 1),
    st.integers(2 ** 159 - 20, 2 ** 159 + 20), st.integers(0, ID_SPACE - 1),
)


class NodeStateMachine(RuleBasedStateMachine):
    @initialize(ids=st.lists(ring_ids, min_size=1, max_size=8, unique=True))
    def build(self, ids):
        self.pool = [OverlayNode(node_id=value, capacity=1000) for value in ids]
        self.states = [NodeArrayState(self.pool), NodeArrayState(self.pool[::2])]
        self.counter = 0

    def _node(self, which):
        return self.pool[which % len(self.pool)]

    # -- usage -----------------------------------------------------------------------
    @rule(which=pick, size=st.integers(0, 400))
    def store(self, which, size):
        self.counter += 1
        self._node(which).store_block(f"block{self.counter}", size)

    @rule(which=pick, block=pick)
    def remove_block(self, which, block):
        node = self._node(which)
        held = current().blocks(node)
        if held:
            name = sorted(held)[block % len(held)]
            node.release_block(name, held[name])

    @rule(which=pick, wipe=st.booleans())
    def fail_and_recover(self, which, wipe):
        node = self._node(which)
        node.fail()
        node.recover(wipe=wipe)

    @rule(which=pick, used=st.integers(0, 1000))
    def assign_used(self, which, used):
        self._node(which).used = used

    # -- membership ------------------------------------------------------------------
    @rule(state=st.integers(0, 1), value=ring_ids)
    def add_new(self, state, value):
        if all(node.node_id != value for node in self.pool):
            node = OverlayNode(node_id=value, capacity=1000, used=7)
            self.pool.append(node)
            assert self.states[state].add(node)

    @rule(state=st.integers(0, 1), which=pick)
    def add_pooled(self, state, which):
        node = self._node(which)
        indexed = node.node_id in self.states[state].ids_int
        assert self.states[state].add(node) != indexed

    @rule(state=st.integers(0, 1), which=pick)
    def remove(self, state, which):
        node = self._node(which)
        indexed = node.node_id in self.states[state].ids_int
        assert self.states[state].remove(node.node_id) == indexed

    @rule(state=st.integers(0, 1), stride=st.integers(1, 3))
    def rebuild(self, state, stride):
        self.states[state].rebuild(self.pool[::stride])

    @rule(state=st.integers(0, 1), key=st.integers(0, ID_SPACE - 1))
    def lookup(self, state, key):
        """Cleans dirty boundaries, so the next membership change is a patch."""
        if len(self.states[state]):
            self.states[state].lookup_index(key)

    # -- laws ------------------------------------------------------------------------
    @invariant()
    def node_state_laws_hold(self):
        for state in getattr(self, "states", ()):
            state.check_invariants()
            indexed = {id(node) for node in state.nodes}
            assert all((state in node._usage_listeners) == (id(node) in indexed)
                       for node in self.pool)


NodeStateMachine.TestCase.settings = settings(
    # 150 examples at tier-1's budget (tests/conftest.py scales the default).
    max_examples=3 * settings.default.max_examples // 2, stateful_step_count=40, deadline=None
)
test_node_state_machine = NodeStateMachine.TestCase
