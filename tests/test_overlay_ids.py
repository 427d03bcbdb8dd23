"""Unit tests for the identifier space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.dht import DHTView
from repro.overlay.ids import (
    ID_SPACE,
    NodeId,
    clockwise_distance,
    distance,
    key_for,
    node_id_from_int,
    random_node_id,
)
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode


def _view(*ids: int) -> DHTView:
    """A DHT view over nodes with exactly these ids."""
    network = OverlayNetwork()
    for value in ids:
        network.join(OverlayNode(node_id=NodeId(value)))
    return DHTView(network)


def test_key_for_is_sha1_of_name():
    import hashlib

    expected = int.from_bytes(hashlib.sha1(b"myfile_1_2").digest(), "big")
    assert int(key_for("myfile_1_2")) == expected


def test_key_for_accepts_bytes_and_str_equally():
    assert key_for("abc") == key_for(b"abc")


def test_node_id_range_validation():
    with pytest.raises(ValueError):
        NodeId(-1)
    with pytest.raises(ValueError):
        NodeId(ID_SPACE)
    assert int(NodeId(ID_SPACE - 1)) == ID_SPACE - 1


def test_node_id_from_int_wraps_modulo():
    assert int(node_id_from_int(ID_SPACE + 5)) == 5
    assert int(node_id_from_int(-1)) == ID_SPACE - 1


def test_hex_is_fixed_width():
    assert len(NodeId(0).hex()) == 40
    assert len(NodeId(ID_SPACE - 1).hex()) == 40


def test_digits_and_shared_prefix():
    a = NodeId(int("ab" + "0" * 38, 16))
    b = NodeId(int("ac" + "0" * 38, 16))
    assert a.digit(0) == 0xA and a.digit(1) == 0xB
    assert a.shared_prefix_length(b) == 1
    assert a.shared_prefix_length(a) == 40


def test_digit_position_out_of_range():
    with pytest.raises(ValueError):
        NodeId(0).digit(40)


def test_distance_is_symmetric_and_bounded():
    a, b = NodeId(10), NodeId(ID_SPACE - 10)
    assert distance(a, b) == 20
    assert distance(b, a) == 20
    assert distance(a, a) == 0


def test_clockwise_distance_wraps():
    assert clockwise_distance(NodeId(ID_SPACE - 1), NodeId(1)) == 2
    assert clockwise_distance(NodeId(1), NodeId(ID_SPACE - 1)) == ID_SPACE - 2


def test_numerically_closest_picks_min_ring_distance():
    assert int(_view(10, 990, 1500).lookup(NodeId(1000)).node_id) == 990
    assert int(_view(10, ID_SPACE - 5).lookup(NodeId(ID_SPACE - 1)).node_id) == ID_SPACE - 5


def test_numerically_closest_tie_breaks_to_the_lower_id():
    view = _view(90, 110)
    assert int(view.lookup(NodeId(100)).node_id) == 90
    assert view.network.responsible_node(NodeId(100)) == NodeId(90)


def test_numerically_closest_requires_candidates():
    with pytest.raises(LookupError):
        _view().lookup(NodeId(1))


def test_random_node_id_uniform_and_deterministic():
    rng = np.random.default_rng(5)
    ids = {int(random_node_id(rng)) for _ in range(100)}
    assert len(ids) == 100  # collisions essentially impossible
    rng_again = np.random.default_rng(5)
    assert int(random_node_id(rng_again)) in ids


def test_node_id_ordering_matches_int_ordering():
    assert NodeId(1) < NodeId(2) < NodeId(3)
