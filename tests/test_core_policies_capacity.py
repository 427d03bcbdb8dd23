"""Unit tests for storage policies and the getCapacity probing protocol."""

from __future__ import annotations

import pytest

from repro.core.capacity import CapacityProbe
from repro.core.policies import PAPER_SIMULATION_POLICY, StoragePolicy
from repro.overlay.ids import key_for


# -- StoragePolicy ------------------------------------------------------------------
def test_default_policy_matches_paper_simulation():
    assert PAPER_SIMULATION_POLICY.max_consecutive_zero_chunks == 5
    assert PAPER_SIMULATION_POLICY.capacity_report_fraction == 1.0
    assert PAPER_SIMULATION_POLICY.block_replication == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_consecutive_zero_chunks": -1},
        {"capacity_report_fraction": 0.0},
        {"capacity_report_fraction": 1.5},
        {"cat_replication": 0},
        {"block_replication": 0},
        {"min_chunk_size": -1},
        {"max_chunk_size": 0},
        {"min_chunk_size": 100, "max_chunk_size": 50},
    ],
)
def test_policy_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        StoragePolicy(**kwargs)


def test_policy_is_frozen():
    policy = StoragePolicy()
    with pytest.raises(Exception):
        policy.block_replication = 3  # type: ignore[misc]


# -- CapacityProbe -----------------------------------------------------------------------
def test_probe_chunk_returns_one_offer_per_encoded_block(dht):
    probe = CapacityProbe(dht)
    result = probe.probe_chunk("somefile", 1, encoded_blocks=3)
    assert len(result.block_names) == len(result.nodes) == len(result.offers) == 3
    assert result.block_names == ("somefile_1_1", "somefile_1_2", "somefile_1_3")
    assert result.lookups == 3
    assert probe.total_probes == 3


def test_probe_usable_block_size_is_minimum_offer(dht):
    probe = CapacityProbe(dht)
    result = probe.probe_chunk("somefile", 1, encoded_blocks=4)
    assert result.usable_block_size == min(result.offers)


def test_probe_respects_report_fraction(dht):
    full = CapacityProbe(dht, capacity_report_fraction=1.0).probe_chunk("f", 1, 2)
    half = CapacityProbe(dht, capacity_report_fraction=0.5).probe_chunk("f", 1, 2)
    assert all(h == f // 2 for h, f in zip(half.offers, full.offers))


def test_probe_sees_node_local_under_reporting(dht):
    node = dht.lookup(key_for("f_1_1"))
    node.capacity_report_fraction = 0.25
    probe = CapacityProbe(dht)
    result = probe.probe_names(["f_1_1"])
    assert result.offers[0] == int(node.free * 0.25)


def test_probe_offer_zero_for_failed_node(dht):
    node = dht.lookup(key_for("f_1_1"))
    node.fail()
    result = CapacityProbe(dht).probe_names(["f_1_1"])
    assert result.offers[0] == 0


def test_probe_validation(dht):
    with pytest.raises(ValueError):
        CapacityProbe(dht, capacity_report_fraction=0.0)
    with pytest.raises(ValueError):
        CapacityProbe(dht).probe_chunk("f", 1, 0)


def test_probe_empty_result_properties(dht):
    result = CapacityProbe(dht).probe_names([])
    assert result.usable_block_size == 0
