"""A population drawn in one array pass is the seed's draw, value for value.

``random_population`` must hand out the ids and coordinates the seed's
per-node loop (``tests/reference/seed_population.py``) hands out and leave the
generator in the state that loop leaves -- on every supported bit generator,
at any count, from a generator that has already drawn (an odd number of
bytes leaves half a 64-bit draw carried).  A change in numpy's streams fails
here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay import network as network_module
from repro.overlay.ids import SPLIT_WORD_GENERATORS, random_population
from repro.overlay.network import OverlayError, OverlayNetwork
from tests.reference.seed_population import seed_population

BIT_GENERATORS = [getattr(np.random, name) for name in SPLIT_WORD_GENERATORS]

#: What a generator may have drawn before: ``("bytes", n)`` or ``("random", 0)``.
prior_draws = st.lists(st.one_of(st.tuples(st.just("bytes"), st.integers(1, 9)),
                                 st.tuples(st.just("random"), st.just(0))), max_size=4)
counts = st.one_of(st.sampled_from([1, 2, 3, 1001]), st.integers(1, 2_000))


def _twins(bit_generator, seed: int, prior) -> tuple:
    """Two generators in one state, both after the draws ``prior`` names."""
    twins = (np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed)))
    for rng in twins:
        for kind, size in prior:
            if kind == "bytes":
                rng.bytes(size)
            else:
                rng.random()
    return twins


def _state(rng: np.random.Generator) -> str:
    """The bit generator's whole state, arrays included, comparable with ``==``."""
    return repr(rng.bit_generator.state)


def _assert_same_state(vector: np.random.Generator, scalar: np.random.Generator) -> None:
    assert _state(vector) == _state(scalar)
    assert vector.bytes(3) == scalar.bytes(3) and vector.random() == scalar.random()


@given(bit_generator=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**32 - 1),
       count=counts, prior=prior_draws)
@settings(deadline=None)
def test_random_population_is_the_seed_loop(bit_generator, seed, count, prior):
    vector, scalar = _twins(bit_generator, seed, prior)
    ids, coordinates = random_population(vector, count)
    seed_ids, seed_coordinates = seed_population(scalar, count)
    assert [node_id for node_id in ids] == seed_ids
    assert coordinates.shape == (count, 2)
    assert [tuple(pair) for pair in coordinates.tolist()] == seed_coordinates
    _assert_same_state(vector, scalar)


def test_build_places_the_seed_loops_population():
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    capacities = list(range(100, 401))
    network = OverlayNetwork.build(301, rng, capacities=capacities)
    seed_ids, seed_coordinates = seed_population(reference, 301)
    nodes = network.nodes()
    assert [node.node_id for node in nodes] == seed_ids
    assert [node.coordinates for node in nodes] == seed_coordinates
    assert [node.capacity for node in nodes] == capacities
    assert [node.serial for node in nodes] == list(range(301)) and network.serial_count == 301
    _assert_same_state(rng, reference)


def test_an_unsupported_bit_generator_is_refused_before_it_draws():
    rng = np.random.Generator(np.random.MT19937(0))
    before = _state(rng)
    with pytest.raises(TypeError, match="not MT19937"):
        OverlayNetwork.build(4, rng)
    assert _state(rng) == before


def test_a_legacy_random_state_is_refused_the_same_way():
    rng = np.random.RandomState(0)
    before = repr(rng.get_state())
    with pytest.raises(TypeError, match="not RandomState"):
        OverlayNetwork.build(4, rng)
    assert repr(rng.get_state()) == before


def test_a_duplicate_id_is_refused(monkeypatch):
    def repeating(rng, count):
        return [7] * count, np.zeros((count, 2))

    monkeypatch.setattr(network_module, "random_population", repeating)
    with pytest.raises(OverlayError, match="2 duplicate node id"):
        OverlayNetwork.build(3, np.random.default_rng(0))
