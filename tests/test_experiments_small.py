"""Fast, scaled-down runs of every experiment harness.

These are integration tests of the measurement loops themselves: each harness
is run at a deliberately tiny scale (seconds, not minutes) and its output is
checked for the qualitative shape the paper reports.  The benchmarks run the
same harnesses at the default (larger) scale.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.experiments.base import read_census
from repro.experiments.coding_perf import CodingPerfConfig, CodingPerfExperiment
from repro.experiments.condor_case_study import CondorCaseStudyConfig, CondorCaseStudyExperiment
from repro.experiments.failure_sweep import (
    PAPER_REPAIR,
    PAPER_TABLE3,
    FailureSweepConfig,
    FailureSweepExperiment,
)
from repro.experiments.multicast_replicas import MulticastConfig, MulticastExperiment
from repro.experiments.storage_insertion import (
    EXPECTED_UTILIZATION,
    InsertionConfig,
    InsertionExperiment,
)
from repro.workloads.filetrace import GB, MB


# -- insertion (Figures 7-9, Table 1) --------------------------------------------------
@pytest.fixture(scope="module")
def insertion_outcome():
    config = InsertionConfig(node_count=40, file_count=1200, sample_points=6, seed=1)
    return InsertionExperiment(config).run()


def test_insertion_our_system_fails_least(insertion_outcome):
    finals = insertion_outcome.final_failed_stores()
    assert finals["Our System"] <= finals["CFS"]
    assert finals["Our System"] <= finals["PAST"]


def test_insertion_our_system_fails_least_data(insertion_outcome):
    finals = insertion_outcome.final_failed_data()
    assert finals["Our System"] <= finals["CFS"]
    assert finals["Our System"] <= finals["PAST"]


def test_insertion_our_system_utilizes_most(insertion_outcome):
    finals = insertion_outcome.final_utilization()
    assert finals["Our System"] >= finals["CFS"]
    assert finals["Our System"] >= finals["PAST"]


def test_insertion_chunk_counts_far_below_cfs(insertion_outcome):
    cfs = insertion_outcome.curves["CFS"].chunk_stats
    ours = insertion_outcome.curves["Our System"].chunk_stats
    # Paper Table 1: CFS ~61 chunks of 4 MB, ours ~16x fewer and much larger.
    assert cfs["mean_chunks_per_file"] > 50
    assert cfs["mean_chunk_size"] == pytest.approx(4 * MB, rel=0.1)
    assert ours["mean_chunks_per_file"] < cfs["mean_chunks_per_file"] / 10
    assert ours["mean_chunk_size"] > 10 * cfs["mean_chunk_size"]


def test_insertion_curves_are_monotone_in_x(insertion_outcome):
    for curve in insertion_outcome.curves.values():
        xs = curve.failed_stores_pct.x
        assert xs == sorted(xs)
        assert len(curve.failed_stores_pct) == len(curve.failed_data_pct) == len(curve.utilization_pct)


def test_insertion_resolved_file_count_from_utilization():
    config = InsertionConfig(node_count=10, file_count=None)
    expected = round(10 * config.capacity_mean * EXPECTED_UTILIZATION / config.mean_file_size)
    assert config.resolved_file_count() == expected
    explicit = InsertionConfig(file_count=123)
    assert explicit.resolved_file_count() == 123


# -- availability (Figure 10) -----------------------------------------------------------
def test_availability_error_coding_reduces_losses():
    config = FailureSweepConfig(node_count=80, file_count=300, fail_fractions=(0.15,), sample_points=5,
                                seed=2)
    series = FailureSweepExperiment(config).run().curves
    assert set(series) == {"No error code", "XOR code", "Online code"}
    none_final = series["No error code"].final()
    xor_final = series["XOR code"].final()
    online_final = series["Online code"].final()
    assert none_final > 0
    assert xor_final <= none_final
    assert online_final <= xor_final
    # Unavailability only grows as more nodes fail.
    for curve in series.values():
        assert all(b >= a - 1e-9 for a, b in zip(curve.y, curve.y[1:]))


# -- coding performance (Table 2) ----------------------------------------------------------
def test_coding_performance_shape():
    table = CodingPerfExperiment(
        CodingPerfConfig(chunk_size=256 * 1024, blocks_per_chunk=128, repetitions=1)).run()
    rows = {row["code"]: row for row in table.rows}
    assert rows["Null"]["size_overhead_pct"] == pytest.approx(0.0, abs=0.5)
    assert rows["XOR"]["size_overhead_pct"] == pytest.approx(50.0, rel=0.05)
    # The online code's overhead approaches the paper's ~3 % only at the
    # paper's chunk scale (4096 blocks); at this tiny test scale the rateless
    # margin dominates, but it must stay well below XOR's 50 %.
    assert 1.0 < rows["Online"]["size_overhead_pct"] < 40.0
    # No ordering of the sub-millisecond, single-repetition host timings: a
    # scheduler hiccup reorders them (speed guards: test_erasure_perf_smoke.py).
    assert all(row["encode_ms"] > 0.0 for row in rows.values())


# -- churn (Table 3) ---------------------------------------------------------------------------
def test_churn_regeneration_scales_with_failures():
    config = replace(PAPER_TABLE3, node_count=60, file_count=300, seed=4)
    table = FailureSweepExperiment(config).run().table
    assert len(table.rows) == 2
    ten, twenty = table.rows
    assert twenty["nodes_failed"] > ten["nodes_failed"]
    assert twenty["data_regenerated_gb"] >= ten["data_regenerated_gb"]
    assert ten["data_lost_gb"] <= twenty["data_lost_gb"] + 1e-9
    # Data lost is small relative to data regenerated (fault tolerance works).
    assert twenty["data_lost_gb"] < twenty["data_regenerated_gb"]


@pytest.mark.parametrize("fields", [
    {"fail_fractions": ()},
    {"fail_fractions": (0.05, 1.5)},
    {"fail_fractions": (-0.1,)},
    {"fail_fractions": (math.nan,)},
    {"leave_fraction": 2.0},
    {"sample_points": 0},
    {"sample_points": -3},
], ids=["no fractions", "fraction above 1", "negative fraction", "NaN fraction",
        "leave fraction above 1", "no sample points", "negative sample points"])
def test_a_bad_failure_sweep_is_refused_at_construction(fields):
    """Refused by the config, before a deployment that takes minutes at paper scale."""
    with pytest.raises(ValueError):
        replace(PAPER_REPAIR, **fields)


# -- multicast (Figures 11, 12) ------------------------------------------------------------------
def test_multicast_ransub_sweep_diminishing_returns():
    config = MulticastConfig(total_packets=300, ransub_fractions=(0.03, 0.08, 0.16), seed=5)
    experiment = MulticastExperiment(config)
    sweep = experiment.run_ransub_sweep()
    epochs = experiment.completion_epochs(sweep)
    assert epochs[0.03] >= epochs[0.08] >= epochs[0.16]
    # Every sweep ends with (essentially) all packets delivered on average; the
    # run stops once every *leaf* holds the chunk, so an interior vertex may
    # still be a packet or two short.
    for series in sweep.values():
        assert series.final() >= 0.99 * 300.0


def test_multicast_saturation_is_even():
    config = MulticastConfig(total_packets=300, seed=6)
    experiment = MulticastExperiment(config)
    minimum, average, maximum = experiment.run_saturation()
    assert maximum.final() == pytest.approx(300.0)
    assert minimum.final() >= 0.95 * 300.0
    spread = experiment.saturation_spread(minimum, average, maximum)
    # The min-max gap stays a small fraction of the chunk (even saturation).
    assert spread < 0.4 * 300


# -- Condor case study (Table 4) ------------------------------------------------------------------
def test_condor_case_study_shape():
    config = CondorCaseStudyConfig(file_sizes=(1 * GB, 4 * GB, 16 * GB), seed=6)
    table = CondorCaseStudyExperiment(config).run()
    rows = {row["file_size_gb"]: row for row in table.rows}
    # Whole-file works at 1 and 4 GB, fails at 16 GB (largest contribution is 15 GB).
    assert math.isfinite(rows[1.0]["whole_file_s"])
    assert math.isfinite(rows[4.0]["whole_file_s"])
    assert math.isnan(rows[16.0]["whole_file_s"])
    # Chunked schemes always succeed and varying chunks beat fixed chunks.
    for size in (1.0, 4.0, 16.0):
        assert math.isfinite(rows[size]["fixed_chunks_s"])
        assert math.isfinite(rows[size]["varying_chunks_s"])
        assert rows[size]["varying_chunks_s"] <= rows[size]["fixed_chunks_s"]
    # Overheads relative to the whole-file baseline are positive where defined.
    assert rows[4.0]["fixed_overhead_pct"] > rows[4.0]["varying_overhead_pct"] >= 0.0


# -- read census (faults, tenants) ---------------------------------------------------
def test_read_census_counts_degraded_and_failed_reads(dht):
    storage = StorageSystem(dht, codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    for index in range(6):
        assert storage.store_file(f"file-{index}", 5 * MB).success
    for node in list(dht.network.live_nodes())[::3]:
        node.fail()
    sample = [storage.retrieve_file(name) for name in sorted(storage.files)[:4]]
    census = read_census(storage, 4)
    assert census == {
        "reads_sampled": 4.0,
        "degraded_reads": float(sum(result.degraded for result in sample)),
        "failed_reads": float(sum(not result.complete for result in sample)),
    }
    assert census["degraded_reads"] + census["failed_reads"] > 0
    assert read_census(storage, 100)["reads_sampled"] == 6.0
