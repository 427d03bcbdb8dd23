"""Unit tests for workload/trace generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ClusterSession
from repro.workloads.capacity import (
    CONDOR_CAPACITY_CONFIG,
    PAPER_CAPACITY_CONFIG,
    CapacityConfig,
    generate_capacities,
)
from repro.workloads.filetrace import (
    GB,
    MB,
    FileRecord,
    FileTrace,
    FileTraceConfig,
    generate_file_trace,
)
from repro.workloads.tenants import BigCopyBurstProfile


# -- file traces -------------------------------------------------------------------
def sizes(trace) -> np.ndarray:
    return np.array([record.size for record in trace])


def test_generated_trace_matches_requested_statistics():
    config = FileTraceConfig(file_count=5_000)
    trace = generate_file_trace(config, seed=0)
    assert len(trace) == 5_000
    assert sizes(trace).min() >= config.min_size
    assert sizes(trace).mean() == pytest.approx(config.mean_size, rel=0.05)
    assert sizes(trace).std() == pytest.approx(config.std_size, rel=0.20)


def test_trace_minimum_size_filter_matches_paper():
    trace = generate_file_trace(FileTraceConfig(file_count=2_000), seed=1)
    assert sizes(trace).min() >= 50 * MB


def test_lognormal_model_heavier_tail():
    normal = generate_file_trace(FileTraceConfig(file_count=5_000, model="truncated-normal"), seed=2)
    heavy = generate_file_trace(
        FileTraceConfig(file_count=5_000, model="lognormal", std_size=500 * MB), seed=2
    )
    assert sizes(heavy).max() > sizes(normal).max()


def test_trace_generation_is_deterministic():
    a = generate_file_trace(FileTraceConfig(file_count=100), seed=7)
    b = generate_file_trace(FileTraceConfig(file_count=100), seed=7)
    assert [f.size for f in a] == [f.size for f in b]
    c = generate_file_trace(FileTraceConfig(file_count=100), seed=8)
    assert [f.size for f in a] != [f.size for f in c]


def test_trace_helpers():
    trace = FileTrace([FileRecord(f"file-{index}", size) for index, size in enumerate([10, 20, 30])])
    assert trace.total_bytes == 60
    assert trace.subset(2).total_bytes == 30
    assert next(iter(generate_file_trace(FileTraceConfig(file_count=1)))).name.endswith("00000000")
    empty = generate_file_trace(FileTraceConfig(file_count=0))
    assert len(empty) == 0 and empty.total_bytes == 0


def test_trace_config_validation():
    with pytest.raises(ValueError):
        FileTraceConfig(file_count=-1)
    with pytest.raises(ValueError):
        FileTraceConfig(mean_size=0)
    with pytest.raises(ValueError):
        FileTraceConfig(model="zipf")
    with pytest.raises(ValueError):
        FileRecord(name="x", size=-1)


@pytest.mark.parametrize("field, value", [
    ("mean_size", float("nan")), ("std_size", float("nan")), ("min_size", float("nan")),
    ("mean_size", float("inf")), ("std_size", float("inf")),
])
def test_trace_config_refuses_non_finite_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        FileTraceConfig(**{field: value})


# -- capacities -----------------------------------------------------------------------
def test_paper_capacity_distribution():
    capacities = generate_capacities(CapacityConfig(node_count=5_000), seed=0)
    assert len(capacities) == 5_000
    assert capacities.mean() == pytest.approx(45 * GB, rel=0.02)
    assert capacities.std() == pytest.approx(10 * GB, rel=0.10)
    assert capacities.min() >= PAPER_CAPACITY_CONFIG.minimum


def test_condor_capacity_distribution():
    config = CapacityConfig(node_count=1_000, distribution="uniform", low=2 * GB, high=15 * GB)
    capacities = generate_capacities(config, seed=1)
    assert capacities.min() >= 2 * GB
    assert capacities.max() <= 15 * GB
    assert CONDOR_CAPACITY_CONFIG.node_count == 32


def test_capacity_generation_deterministic_and_validated():
    a = generate_capacities(CapacityConfig(node_count=10), seed=3)
    b = generate_capacities(CapacityConfig(node_count=10), seed=3)
    assert np.array_equal(a, b)
    assert len(generate_capacities(CapacityConfig(node_count=0))) == 0
    with pytest.raises(ValueError):
        CapacityConfig(node_count=-1)
    with pytest.raises(ValueError):
        CapacityConfig(distribution="pareto")


# -- tenant profiles ------------------------------------------------------------------
def test_profile_runs_are_labelled_with_the_store_tenant():
    session = ClusterSession(20, seed=1)
    profile = BigCopyBurstProfile(bursts=1, sizes_gb=(0.01,))
    rng = np.random.default_rng(0)
    untagged = profile.schedule(session.sim, session.client().storage, rng)
    scoped = profile.schedule(session.sim, session.client(tenant="archive").storage, rng)
    session.run()
    assert untagged.tenant == "-"
    assert scoped.tenant == "archive"
    assert untagged.stores_attempted == scoped.stores_attempted == 1
