"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from reference.recorder import BlockRecorder

from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork

MB = 1 << 20

#: One example-budget multiplier, read from ``REPRO_EXAMPLE_BUDGET`` (default 1:
#: tier-1's budgets; CI's long job runs 10).  It rides on the loaded Hypothesis
#: profile, whose ``max_examples`` (100 by default) it multiplies; the stateful
#: machines ask for a multiple of ``settings.default.max_examples``.
EXAMPLE_BUDGET = int(os.environ.get("REPRO_EXAMPLE_BUDGET", "1"))
if EXAMPLE_BUDGET < 1:
    raise ValueError(f"REPRO_EXAMPLE_BUDGET must be a positive integer: {EXAMPLE_BUDGET}")
settings.register_profile("budget", max_examples=settings.default.max_examples * EXAMPLE_BUDGET)
settings.load_profile("budget")


@pytest.fixture
def block_recorder():
    """Record every node's ``{name: size}`` from the storage calls (``reference/recorder.py``).

    The independent record ``reference/dict_walk.py`` audits the ledger against;
    a module that walks it opts in with ``pytest.mark.usefixtures("block_recorder")``.
    """
    with BlockRecorder() as recorder:
        yield recorder


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_network(rng: np.random.Generator) -> OverlayNetwork:
    """A 32-node overlay where every node contributes 64 MB."""
    return OverlayNetwork.build(32, rng, capacities=[64 * MB] * 32)


@pytest.fixture
def dht(small_network: OverlayNetwork) -> DHTView:
    """A DHT view over the small overlay."""
    return DHTView(small_network)


@pytest.fixture
def capacity_storage(dht: DHTView) -> StorageSystem:
    """A capacity-mode storage system with no error coding."""
    return StorageSystem(dht, codec=ChunkCodec(NullCode(), blocks_per_chunk=1), policy=StoragePolicy())


@pytest.fixture
def payload_storage(dht: DHTView) -> StorageSystem:
    """A payload-mode storage system protected by a (2,3) XOR code."""
    return StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
        payload_mode=True,
    )
