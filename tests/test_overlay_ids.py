"""Unit tests for the identifier space: an id is an ``int`` in ``[0, ID_SPACE)``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.dht import DHTView
from repro.overlay.ids import (
    BITS_PER_DIGIT,
    DIGITS,
    ID_BITS,
    ID_SPACE,
    clockwise_distance,
    digit,
    distance,
    key_for,
    random_node_id,
    random_population,
    shared_prefix_length,
)
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.validation import ParameterError


def _view(*ids: int) -> DHTView:
    """A DHT view over nodes with exactly these ids."""
    network = OverlayNetwork()
    for value in ids:
        network.join(OverlayNode(node_id=value))
    return DHTView(network)


def test_key_for_is_sha1_of_name():
    import hashlib

    expected = int.from_bytes(hashlib.sha1(b"myfile_1_2").digest(), "big")
    assert key_for("myfile_1_2") == expected
    assert type(key_for("myfile_1_2")) is int


def test_key_for_accepts_bytes_and_str_equally():
    assert key_for("abc") == key_for(b"abc")


@pytest.mark.parametrize("bad", [-1, ID_SPACE])
def test_join_refuses_an_id_outside_the_ring(bad):
    network = OverlayNetwork()
    network.join(OverlayNode(node_id=7))
    with pytest.raises(ParameterError, match="node_id"):
        network.join(OverlayNode(node_id=bad))
    assert len(network) == 1 and bad not in network
    assert network.serial_count == 1


def test_join_accepts_both_ends_of_the_ring():
    network = OverlayNetwork()
    network.join(OverlayNode(node_id=0))
    network.join(OverlayNode(node_id=ID_SPACE - 1))
    assert len(network) == 2


def test_a_member_is_found_by_its_int_id():
    network = OverlayNetwork()
    node = OverlayNode(node_id=5)
    network.join(node)
    assert 5 in network
    assert network.node(5) is node
    assert 6 not in network
    built = OverlayNetwork.build(20, np.random.default_rng(3))
    for member in built.nodes():
        assert type(member.node_id) is int
        assert member.node_id in built
        assert built.node(member.node_id) is member


def test_hex_is_fixed_width():
    assert DIGITS * BITS_PER_DIGIT == ID_BITS
    assert len(f"{0:0{DIGITS}x}") == DIGITS == 40
    assert len(f"{ID_SPACE - 1:0{DIGITS}x}") == DIGITS


def test_digits_and_shared_prefix():
    a = int("ab" + "0" * 38, 16)
    b = int("ac" + "0" * 38, 16)
    assert digit(a, 0) == 0xA and digit(a, 1) == 0xB
    assert digit(ID_SPACE - 1, DIGITS - 1) == 0xF
    assert shared_prefix_length(a, b) == 1
    assert shared_prefix_length(a, a) == 40


def test_digit_position_out_of_range():
    with pytest.raises(ValueError):
        digit(0, 40)


def test_distance_is_symmetric_and_bounded():
    a, b = 10, ID_SPACE - 10
    assert distance(a, b) == 20
    assert distance(b, a) == 20
    assert distance(a, a) == 0


def test_clockwise_distance_wraps():
    assert clockwise_distance(ID_SPACE - 1, 1) == 2
    assert clockwise_distance(1, ID_SPACE - 1) == ID_SPACE - 2


def test_numerically_closest_picks_min_ring_distance():
    assert _view(10, 990, 1500).lookup(1000).node_id == 990
    assert _view(10, ID_SPACE - 5).lookup(ID_SPACE - 1).node_id == ID_SPACE - 5


def test_numerically_closest_tie_breaks_to_the_lower_id():
    view = _view(90, 110)
    assert view.lookup(100).node_id == 90
    assert view.network.responsible_node(100) == 90


def test_numerically_closest_requires_candidates():
    with pytest.raises(LookupError):
        _view().lookup(1)


def test_random_node_id_uniform_and_deterministic():
    rng = np.random.default_rng(5)
    ids = {random_node_id(rng) for _ in range(100)}
    assert len(ids) == 100  # collisions essentially impossible
    assert all(0 <= value < ID_SPACE for value in ids)
    rng_again = np.random.default_rng(5)
    assert random_node_id(rng_again) in ids


def test_int_order_is_the_order_of_the_big_endian_digests():
    """The array engines sort ``S20`` digests; the ring sorts ints: one order."""
    ids, _ = random_population(np.random.default_rng(9), 200)
    ids += [0, 1, ID_SPACE - 1]
    assert sorted(ids) == sorted(ids, key=lambda value: value.to_bytes(20, "big"))
