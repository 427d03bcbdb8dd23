"""Unit tests for the deterministic random-stream helpers."""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RandomStreams, derive_seed


def test_derive_seed_is_deterministic():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")


def test_derive_seed_depends_on_labels_and_base():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")


def test_streams_same_label_same_sequence():
    one = RandomStreams(7).fresh("capacities")
    two = RandomStreams(7).fresh("capacities")
    assert np.array_equal(one.integers(0, 1000, 16), two.integers(0, 1000, 16))


def test_streams_different_labels_are_independent():
    streams = RandomStreams(7)
    a = streams.fresh("alpha").integers(0, 1_000_000, 32)
    b = streams.fresh("beta").integers(0, 1_000_000, 32)
    assert not np.array_equal(a, b)


def test_fresh_restarts_sequence():
    streams = RandomStreams(3)
    first = streams.fresh("trace").integers(0, 100, 8)
    second = streams.fresh("trace").integers(0, 100, 8)
    assert np.array_equal(first, second)
    assert streams.fresh("trace") is not streams.fresh("trace")
