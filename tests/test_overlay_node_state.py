"""Unit tests for the array-backed placement engine (NodeArrayState).

The boundary-array lookup kernel must agree with the brute-force ring-metric
oracle on every key -- including adversarial rings (gaps wider than half the
identifier space, exact even/odd midpoints, single-node populations) where
naive "compare the clockwise offsets" reasoning breaks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference.seed_neighbors import seed_neighbor_indices

from repro.overlay.dht import DHTView
from repro.overlay.ids import ID_SPACE, key_for, random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState


def _state_for(ids: list[int], capacities: int = 100) -> NodeArrayState:
    nodes = [OverlayNode(node_id=v, capacity=capacities) for v in ids]
    return NodeArrayState(nodes)


def _oracle(ids: list[int], key: int) -> int:
    """Brute force: the id minimizing (ring distance, id)."""
    def ring(a: int, b: int) -> int:
        delta = (a - b) % ID_SPACE
        return min(delta, ID_SPACE - delta)

    return min(ids, key=lambda v: (ring(v, key), v))


def _interesting_keys(ids: list[int]) -> list[int]:
    keys = {0, 1, ID_SPACE - 1, ID_SPACE // 2}
    for value in ids:
        for delta in (-2, -1, 0, 1, 2):
            keys.add((value + delta) % ID_SPACE)
    ordered = sorted(ids)
    for a, b in zip(ordered, ordered[1:] + [ordered[0] + ID_SPACE]):
        mid = (a + (b - a) // 2) % ID_SPACE
        for delta in (-1, 0, 1):
            keys.add((mid + delta) % ID_SPACE)
    return sorted(keys)


ADVERSARIAL_RINGS = [
    [7],
    [0, ID_SPACE - 1],
    [0, 2 ** 159 + 5],          # gap wider than half the ring
    [5, ID_SPACE - 3],
    [10, 14],                   # even gap: exact midpoint tie
    [10, 15],                   # odd gap
    [0, 1, 2, 3, 4],
    [2 ** 159 - 1, 2 ** 159, 2 ** 159 + 1],
    [1, 2 ** 80, 2 ** 120, ID_SPACE - 2 ** 90],
]


@pytest.mark.parametrize("ids", ADVERSARIAL_RINGS, ids=lambda ids: f"n{len(ids)}")
def test_lookup_kernels_match_oracle_on_adversarial_rings(ids):
    state = _state_for(ids)
    keys = _interesting_keys(ids)
    digests = b"".join(k.to_bytes(20, "big") for k in keys)
    batch = state.lookup_digests(digests)
    for position, key in enumerate(keys):
        expected = _oracle(ids, key)
        assert state.ids_int[state.lookup_index(key)] == expected, hex(key)
        assert state.ids_int[batch[position]] == expected, hex(key)


def test_lookup_kernels_match_seed_lookup_on_random_ring():
    network = OverlayNetwork.build(64, np.random.default_rng(17), capacities=[100] * 64)
    view = DHTView(network)
    rng = np.random.default_rng(18)
    keys = [random_node_id(rng) for _ in range(500)]
    expected = [view.lookup(key).node_id for key in keys]
    state = view.state
    scalar = [state.ids_int[state.lookup_index(key)] for key in keys]
    digests = b"".join(key.to_bytes(20, "big") for key in keys)
    batched = [state.ids_int[index] for index in state.lookup_digests(digests)]
    assert scalar == expected
    assert batched == expected


def test_lookup_many_matches_scalar_and_counts():
    network = OverlayNetwork.build(40, np.random.default_rng(3), capacities=[100] * 40)
    view = DHTView(network)
    rng = np.random.default_rng(4)
    keys = [random_node_id(rng) for _ in range(97)]
    expected = [view.lookup(key) for key in keys]
    before = view.lookup_count
    batched = view.lookup_many(keys)
    assert view.lookup_count == before + len(keys)
    assert [node.node_id for node in batched] == [node.node_id for node in expected]
    assert view.lookup_many([]) == []


def test_membership_updates_keep_index_and_bounds_consistent():
    ids = [10, 200, 3000, 2 ** 100, ID_SPACE - 77]
    state = _state_for(ids)
    newcomer = OverlayNode(node_id=2 ** 130, capacity=50)
    assert state.add(newcomer)
    assert not state.add(newcomer)
    current = sorted(ids + [2 ** 130])
    assert state.ids_int == current
    for key in _interesting_keys(current):
        assert state.ids_int[state.lookup_index(key)] == _oracle(current, key)

    assert state.remove(3000)
    assert not state.remove(3000)
    current = sorted(v for v in current if v != 3000)
    assert state.ids_int == current
    assert [node.node_id for node in state.nodes] == current
    assert state.position(2 ** 100) == current.index(2 ** 100)
    for key in _interesting_keys(current):
        assert state.ids_int[state.lookup_index(key)] == _oracle(current, key)


def test_aggregates_track_used_mutations_incrementally():
    state = _state_for([1, 2, 3, 4], capacities=1000)
    assert state.capacity_total == 4000
    assert state.used_total == 0
    first, second = state.nodes[0], state.nodes[1]
    assert first.store_block("a", 100)
    second.used = 400  # direct assignment, as tests and experiments do
    assert state.used_total == 500
    first.release_block("a", 100)
    assert state.used_total == 400
    # Membership changes fold the node's current usage in and out.
    state.remove(second.node_id)
    assert state.used_total == 0 and state.capacity_total == 3000
    state.add(second)
    assert state.used_total == 400 and state.capacity_total == 4000
    second.recover(wipe=True)
    assert state.used_total == 0
    state.check_invariants()
    assert state.used_total == 0 and state.capacity_total == 4000


def test_detached_nodes_stop_updating_totals():
    state = _state_for([5, 6], capacities=100)
    node = state.nodes[0]
    state.remove(5)
    node.used = 50
    assert state.used_total == 0


def test_dht_view_aggregates_are_o1_and_match_scan():
    network = OverlayNetwork.build(30, np.random.default_rng(9), capacities=[100] * 30)
    view = DHTView(network)
    node = view.lookup(key_for("x"))
    node.store_block("x", 60)
    assert view.total_used() == sum(n.used for n in network.live_nodes())
    assert view.total_capacity() == 3000
    assert view.utilization() == pytest.approx(60 / 3000)


def _bounds_snapshot(state: NodeArrayState):
    """The boundary structure plus the (arithmetic) owner of every slot.

    Each boundary is the largest key of its slot and ``ID_SPACE - 1`` falls
    in the slot past the last boundary, so the probes read one owner per slot
    through both lookup kernels.
    """
    if state._bounds_dirty:
        state._rebuild_bounds()
    probes = state._bounds_int + [ID_SPACE - 1]
    digests = b"".join(key.to_bytes(20, "big") for key in probes)
    return (
        list(state._bounds_int),
        state._bounds_bytes.tobytes(),
        state._wrap_first,
        [state.lookup_index(key) for key in probes],
        state.lookup_digests(digests).tolist(),
    )


#: Rings whose removals exercise every patch case: wraparound ownership (the
#: switching point past zero), zero-width gaps between adjacent ids, exact
#: even/odd midpoints, and first/middle/last removals down to two survivors.
PATCH_RINGS = [
    [0, 2 ** 159 + 5, ID_SPACE - 1],
    [5, ID_SPACE - 3, ID_SPACE - 2],
    [10, 11, 12, 13],                       # duplicate-adjacent ids (gap 1)
    [10, 14, 20],                           # even gaps: exact midpoint ties
    [10, 15, 21],                           # odd gaps
    [0, 1, 2 ** 80, 2 ** 120, ID_SPACE - 2 ** 90],
    [2 ** 159 - 1, 2 ** 159, 2 ** 159 + 1],
    [7, 2 ** 40],
    [1, ID_SPACE - 1],
]


@pytest.mark.parametrize("ids", PATCH_RINGS, ids=lambda ids: f"n{len(ids)}")
def test_single_removal_patch_equals_full_rebuild(ids):
    """Patched boundaries are exactly what a from-scratch rebuild produces."""
    for victim in ids:
        state = _state_for(ids)
        state.lookup_index(0)  # force a clean boundary build before removing
        assert state.remove(victim)
        assert not state._bounds_dirty, "a single removal must patch, not rebuild"
        fresh = _state_for([v for v in ids if v != victim])
        assert _bounds_snapshot(state) == _bounds_snapshot(fresh), hex(victim)
        survivors = sorted(v for v in ids if v != victim)
        for key in _interesting_keys(survivors):
            assert state.ids_int[state.lookup_index(key)] == _oracle(survivors, key), hex(key)


def test_sequential_removal_patches_stay_exact_on_random_ring():
    """Failing a third of a random ring one by one, patch == rebuild each time."""
    rng = np.random.default_rng(41)
    ids = sorted({random_node_id(rng) for _ in range(64)})
    state = _state_for(ids)
    state.lookup_index(0)
    current = list(ids)
    order = list(rng.permutation(len(ids)))[:20]
    for pick in order:
        victim = ids[int(pick)]
        if victim not in current:
            continue
        assert state.remove(victim)
        current.remove(victim)
        assert not state._bounds_dirty
        fresh = _state_for(current)
        assert _bounds_snapshot(state) == _bounds_snapshot(fresh), hex(victim)
    keys = [random_node_id(rng) for _ in range(200)]
    digests = b"".join(k.to_bytes(20, "big") for k in keys)
    batched = state.lookup_digests(digests)
    for position, key in enumerate(keys):
        assert state.ids_int[batched[position]] == _oracle(current, key)


def test_removal_down_to_one_node_falls_back_to_trivial_bounds():
    state = _state_for([10, 2 ** 100])
    state.lookup_index(0)
    assert state.remove(10)
    assert state.ids_int[state.lookup_index(5)] == 2 ** 100
    assert state.ids_int[state.lookup_index(ID_SPACE - 1)] == 2 ** 100


#: Newcomers exercising every insertion-patch case per ring: interior splits,
#: new smallest / new largest ids (wrap-boundary recompute, layout flips) and
#: ids adjacent to existing ones (zero-width arcs).
def _newcomers_for(ids: list[int]) -> list[int]:
    candidates = {1, 2 ** 40 + 3, 2 ** 159 + 9, ID_SPACE - 5}
    for value in ids:
        candidates.add((value + 1) % ID_SPACE)
        candidates.add((value - 1) % ID_SPACE)
    ordered = sorted(ids)
    for a, b in zip(ordered, ordered[1:]):
        candidates.add(a + (b - a) // 2)
    return sorted(candidates - set(ids))


@pytest.mark.parametrize("ids", PATCH_RINGS, ids=lambda ids: f"n{len(ids)}")
def test_single_insertion_patch_equals_full_rebuild(ids):
    """Patched boundaries after a join equal a from-scratch rebuild."""
    for newcomer_id in _newcomers_for(ids):
        state = _state_for(ids)
        state.lookup_index(0)  # force a clean boundary build before joining
        assert state.add(OverlayNode(node_id=newcomer_id, capacity=1))
        assert not state._bounds_dirty, "a single join must patch, not rebuild"
        grown = sorted(ids + [newcomer_id])
        assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(grown)), hex(newcomer_id)
        for key in _interesting_keys(grown):
            assert state.ids_int[state.lookup_index(key)] == _oracle(grown, key), hex(key)


def test_interleaved_join_and_removal_patches_stay_exact_on_random_ring():
    """Alternating joins and failures on a random ring, patch == rebuild each time."""
    rng = np.random.default_rng(43)
    ids = sorted({random_node_id(rng) for _ in range(48)})
    state = _state_for(ids)
    state.lookup_index(0)
    current = list(ids)
    for step in range(30):
        if step % 2 == 0:
            newcomer = random_node_id(rng)
            if newcomer in current:
                continue
            assert state.add(OverlayNode(node_id=newcomer, capacity=1))
            current.append(newcomer)
            current.sort()
        else:
            victim = current[int(rng.integers(len(current)))]
            assert state.remove(victim)
            current.remove(victim)
        assert not state._bounds_dirty
        assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(current)), step
    keys = [random_node_id(rng) for _ in range(200)]
    digests = b"".join(k.to_bytes(20, "big") for k in keys)
    batched = state.lookup_digests(digests)
    for position, key in enumerate(keys):
        assert state.ids_int[batched[position]] == _oracle(current, key)


def test_insertion_patch_grows_from_tiny_rings():
    """Joining one- and two-node rings falls back to (trivial) rebuilds."""
    state = _state_for([10])
    state.lookup_index(0)
    assert state.add(OverlayNode(node_id=2 ** 100, capacity=1))
    for key in _interesting_keys([10, 2 ** 100]):
        assert state.ids_int[state.lookup_index(key)] == _oracle([10, 2 ** 100], key)
    assert state.add(OverlayNode(node_id=2 ** 50, capacity=1))
    grown = [10, 2 ** 50, 2 ** 100]
    assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(grown))


#: Ids that put every patch case within a few steps of each other: both ends
#: of the ring (wrap-first <-> wrap-last flips), the antipode (gaps wider than
#: half the ring once the ring is small), even and odd gaps (exact midpoints).
_PATCH_POOL = [0, 1, 2, 10, 14, 15, 2 ** 80, 2 ** 120, 2 ** 159 - 1, 2 ** 159,
               2 ** 159 + 5, ID_SPACE - 2 ** 90, ID_SPACE - 3, ID_SPACE - 2, ID_SPACE - 1]


@settings(max_examples=6 * settings.default.max_examples // 5, deadline=None)
@given(
    extra=st.lists(st.integers(0, ID_SPACE - 1), max_size=4),
    start=st.integers(0, 2 ** 16),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 16)), min_size=1, max_size=40),
)
def test_patch_sequences_equal_the_brute_force_oracle(extra, start, steps):
    """Any add/remove sequence (down to one node and back up) keeps both lookup
    kernels on the closest-node oracle and the patched bounds on a rebuild."""
    pool = sorted(set(_PATCH_POOL + extra))
    current = [pool[start % len(pool)]]
    state = _state_for(current)
    state.lookup_index(0)  # clean bounds: every change below is a patch
    for is_add, pick in steps:
        if is_add:
            value = pool[pick % len(pool)]
            if value in current:
                continue
            assert state.add(OverlayNode(node_id=value, capacity=1))
            current = sorted(current + [value])
        elif len(current) > 1:
            value = current[pick % len(current)]
            assert state.remove(value)
            current.remove(value)
        assert not state._bounds_dirty
        assert state.ids_int == current
        keys = _interesting_keys(current)
        digests = b"".join(key.to_bytes(20, "big") for key in keys)
        expected = [_oracle(current, key) for key in keys]
        assert [state.ids_int[state.lookup_index(key)] for key in keys] == expected
        assert [state.ids_int[i] for i in state.lookup_digests(digests)] == expected
        assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(current))


def test_boundary_buffer_growth_and_layout_flips_equal_a_rebuild():
    """The ``S20`` column is spliced in place inside a doubling buffer.

    Joins past its capacity (each growth carries the old slots over) and every
    wrap-layout flip -- wrap boundary last to first and back, on a join and on
    a removal -- leave it equal to a from-scratch rebuild, and
    ``_bounds_bytes`` stays a prefix view of the buffer.
    """
    rng = np.random.default_rng(47)
    current = [10, 2 ** 100, 2 ** 120]
    state = _state_for(current)
    state.lookup_index(0)
    # The first four steps flip the layout each time: a new largest id next to
    # the top of the ring puts the wrap boundary first, a new smallest id next
    # to zero puts it last again, and removing them undoes each flip.
    steps = [(True, ID_SPACE - 1), (True, 1), (False, 1), (False, ID_SPACE - 1)]
    steps += [(True, random_node_id(rng)) for _ in range(40)]
    steps += [(False, None)] * 30 + [(True, random_node_id(rng)) for _ in range(30)]
    flips, capacities = set(), {len(state._bounds_buf)}
    for is_add, value in steps:
        before = state._wrap_first
        if is_add:
            assert state.add(OverlayNode(node_id=value, capacity=1))
            current = sorted(current + [value])
        else:
            value = value if value is not None else current[int(rng.integers(len(current)))]
            assert state.remove(value)
            current.remove(value)
        if before != state._wrap_first:
            flips.add(("add" if is_add else "remove", before, state._wrap_first))
        capacities.add(len(state._bounds_buf))
        assert not state._bounds_dirty
        assert np.shares_memory(state._bounds_bytes, state._bounds_buf)
        assert len(state._bounds_bytes) == len(state._bounds_int)
        assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(current)), (is_add, value)
    assert flips == {("add", False, True), ("add", True, False),
                     ("remove", False, True), ("remove", True, False)}
    assert len(capacities) >= 4, capacities  # the buffer grew several times


def test_bulk_membership_changes_coalesce_to_full_rebuild():
    """While the bounds are dirty (bulk build), changes coalesce instead of patching."""
    ids = [10, 200, 3000, 2 ** 100, ID_SPACE - 77]
    state = _state_for(ids)  # freshly rebuilt: bounds start dirty
    assert state._bounds_dirty
    newcomer = OverlayNode(node_id=2 ** 130, capacity=1)
    assert state.add(newcomer)
    assert state._bounds_dirty, "a join on dirty bounds must coalesce, not patch"
    assert state.remove(3000)
    assert state._bounds_dirty, "a removal on dirty bounds must not patch"
    current = sorted(v for v in ids + [2 ** 130] if v != 3000)
    # The next lookup performs one full rebuild covering both changes.
    for key in _interesting_keys(current):
        assert state.ids_int[state.lookup_index(key)] == _oracle(current, key)
    assert not state._bounds_dirty
    assert _bounds_snapshot(state) == _bounds_snapshot(_state_for(current))


def test_remove_before_any_lookup_stays_coalesced():
    state = _state_for([1, 2, 3, 4])
    assert state._bounds_dirty  # never looked up: nothing to patch
    assert state.remove(2)
    assert state._bounds_dirty
    assert state.ids_int[state.lookup_index(2)] in (1, 3)


_IDS = st.integers(0, ID_SPACE - 1)


@st.composite
def _neighbour_queries(draw):
    """A ring (uniform, clustered or evenly spaced ids, maybe the two ends of
    the id space), a member or non-member query and a count."""
    size = draw(st.integers(1, 200))
    layout = draw(st.sampled_from(("uniform", "clustered", "even")))
    if layout == "uniform":
        ids = set(draw(st.lists(_IDS, min_size=1, max_size=size)))
    elif layout == "clustered":
        origin, spread = draw(_IDS), draw(st.integers(1, 4 * size))
        offsets = draw(st.lists(st.integers(-spread, spread), min_size=1, max_size=size))
        ids = {(origin + offset) % ID_SPACE for offset in offsets}
    else:  # exact ties: a member's two nearest are one step away on each side
        origin, step = draw(_IDS), ID_SPACE // size
        ids = {(origin + i * step) % ID_SPACE for i in range(size)}
    ids |= set(draw(st.sampled_from(((), (0,), (ID_SPACE - 1,), (0, ID_SPACE - 1)))))
    ids = sorted(ids)
    if draw(st.booleans()):
        query = draw(st.sampled_from(ids))
    else:
        query = draw(st.one_of(
            _IDS, st.sampled_from((0, ID_SPACE - 1)),
            st.sampled_from(ids).map(lambda value: (value + ID_SPACE // 2) % ID_SPACE)))
    return ids, query, draw(st.integers(0, 50))


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(_neighbour_queries())
@example(([0, 2 ** 158, 2 ** 159, 3 * 2 ** 158], 0, 3))  # one tie, antipode last
@example(([5, 9], 5, 4))  # the member query itself is never returned
def test_neighbor_walk_matches_the_seed_window_and_sort(case):
    ids, query, count = case
    assert _state_for(ids).neighbor_indices(query, count) == seed_neighbor_indices(ids, query, count)


def test_successors_and_neighbors_delegate_to_state():
    network = OverlayNetwork.build(25, np.random.default_rng(11), capacities=[100] * 25)
    view = DHTView(network)
    target = network.live_ids()[3]
    neighbors = view.neighbors(target, 6)
    assert len(neighbors) == 6
    assert all(node.node_id != target for node in neighbors)
    succ = view.successors(key_for("s"), 4)
    assert len({n.node_id for n in succ}) == 4
