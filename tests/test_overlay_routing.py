"""Unit tests for the reference router's Pastry prefix routing table."""

from __future__ import annotations

from repro.overlay.ids import DIGITS

from reference.seed_pastry import RoutingTable


def hex_id(prefix: str) -> int:
    return int(prefix + "0" * (DIGITS - len(prefix)), 16)


def test_slot_assignment_by_shared_prefix():
    table = RoutingTable(hex_id("ab12"))
    assert table.slot_for(hex_id("ac00")) == (1, 0xC)
    assert table.slot_for(hex_id("ab34")) == (2, 3)
    assert table.slot_for(hex_id("1234")) == (0, 1)
    assert table.slot_for(hex_id("ab12")) is None


def test_consider_prefers_closer_proximity():
    table = RoutingTable(hex_id("00"))
    far = hex_id("10")
    near = hex_id("1f")
    assert table.consider(far, proximity=100.0)
    # Same slot (row 0, column 1): the nearer node replaces the farther one.
    assert table.consider(near, proximity=10.0)
    assert table.get(0, 1).node_id == near
    # A farther candidate does not replace it.
    assert not table.consider(far, proximity=50.0)


def test_consider_owner_is_noop():
    owner = hex_id("ab")
    table = RoutingTable(owner)
    assert not table.consider(owner, proximity=0.0)
    assert len(table) == 0


def test_remove_only_removes_matching_entry():
    table = RoutingTable(hex_id("00"))
    a, b = hex_id("20"), hex_id("2f")
    table.consider(a, 5.0)
    assert not table.remove(b)  # same slot, different node
    assert table.remove(a)
    assert len(table) == 0


def test_next_hop_matches_one_more_digit():
    table = RoutingTable(hex_id("a0"))
    candidate = hex_id("ab")
    table.consider(candidate, 1.0)
    key = hex_id("abcd")
    assert table.next_hop(key) == candidate
    assert table.next_hop(hex_id("b0")) is None  # row 0 column 0xb empty


def test_candidates_with_longer_or_equal_prefix():
    owner = hex_id("ab")
    table = RoutingTable(owner)
    good = hex_id("abc0")
    unrelated = hex_id("12")
    table.consider(good, 1.0)
    table.consider(unrelated, 1.0)
    key = hex_id("abff")
    candidates = table.candidates_with_longer_or_equal_prefix(key)
    assert good in candidates and unrelated not in candidates


def test_closest_by_proximity_orders_and_excludes():
    table = RoutingTable(hex_id("00"))
    near, middle, far = hex_id("10"), hex_id("20"), hex_id("30")
    table.consider(near, 1.0)
    table.consider(middle, 5.0)
    table.consider(far, 9.0)
    top_two = [entry.node_id for entry in table.closest_by_proximity(2)]
    assert top_two == [near, middle]
    excluded = [entry.node_id for entry in table.closest_by_proximity(3, exclude=lambda n: n == near)]
    assert excluded == [middle, far]


def test_known_nodes_lists_all_entries():
    table = RoutingTable(hex_id("00"))
    ids = [hex_id("10"), hex_id("21"), hex_id("32")]
    for node_id in ids:
        table.consider(node_id, 1.0)
    assert set(table.known_nodes()) == set(ids)
