"""Unit tests for the desktop-grid substrate (transfer model, pool, scheduler)."""

from __future__ import annotations

import math

import pytest

from repro.grid.bigcopy import run_bigcopy
from repro.grid.condor import CondorJob, CondorPool, SchedulingError
from repro.grid.iolib import WholeFileStore
from repro.grid.machines import build_condor_pool_nodes
from repro.grid.transfer import TransferCostModel
from repro.workloads.filetrace import GB


# -- TransferCostModel -------------------------------------------------------------
def test_transfer_time_scales_linearly():
    model = TransferCostModel(bandwidth_bytes_per_s=10e6, per_transfer_latency=0.0)
    assert model.transfer_time(10_000_000) == pytest.approx(1.0)
    assert model.transfer_time(0) == 0.0


def test_transfer_latency_added_once_per_transfer():
    model = TransferCostModel(bandwidth_bytes_per_s=1e6, per_transfer_latency=0.5)
    assert model.transfer_time(1_000_000) == pytest.approx(1.5)


def test_lookup_time():
    model = TransferCostModel(lookup_seconds=0.2)
    assert model.lookup_time(5) == pytest.approx(1.0)
    assert model.lookup_time(0) == 0.0
    with pytest.raises(ValueError):
        model.lookup_time(-1)


def test_transfer_model_validation():
    with pytest.raises(ValueError):
        TransferCostModel(bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        TransferCostModel(lookup_seconds=-1)
    with pytest.raises(ValueError):
        TransferCostModel().transfer_time(-5)


@pytest.mark.parametrize("field", ["bandwidth_bytes_per_s", "lookup_seconds",
                                   "interposition_seconds", "per_transfer_latency"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_transfer_model_rejects_non_finite_values(field, value):
    """NaN passes both ``<= 0`` and ``< 0``: Table 4 would print NaN seconds."""
    with pytest.raises(ValueError):
        TransferCostModel(**{field: value})


def test_one_gb_whole_file_copy_lands_near_paper_baseline():
    # Table 4: a 1 GB whole-file copy takes 151 s on the paper's testbed.
    network, _ = build_condor_pool_nodes(8, seed=0)
    target = max(network.live_nodes(), key=lambda node: node.capacity)
    result = run_bigcopy(WholeFileStore(target), 1 * GB)
    assert result.success and 120.0 <= result.elapsed_seconds <= 260.0


# -- pool construction --------------------------------------------------------------------
def test_build_condor_pool_matches_paper_parameters():
    network, machines = build_condor_pool_nodes(32, seed=0)
    assert len(machines) == 32
    assert len(network) == 32
    for machine in machines:
        assert 2 * GB <= machine.overlay_node.capacity <= 15 * GB
        assert machine.overlay_node.alive
    assert len({machine.name for machine in machines}) == 32


def test_build_condor_pool_is_deterministic():
    _, machines_a = build_condor_pool_nodes(8, seed=3)
    _, machines_b = build_condor_pool_nodes(8, seed=3)
    assert [m.overlay_node.capacity for m in machines_a] == [m.overlay_node.capacity for m in machines_b]


def test_build_condor_pool_validation():
    with pytest.raises(ValueError):
        build_condor_pool_nodes(0)


# -- scheduler -------------------------------------------------------------------------------
def make_pool(count: int = 3) -> CondorPool:
    _, machines = build_condor_pool_nodes(count, seed=1)
    return CondorPool(machines=machines)


def test_jobs_run_fifo_on_idle_machines():
    pool = make_pool(2)
    durations = [5.0, 3.0, 4.0]
    for index, duration in enumerate(durations):
        pool.submit(CondorJob(name=f"job-{index}", body=lambda machine, d=duration: d))
    results = pool.run_all()
    assert len(results) == 3
    assert (results[0].started_at, results[0].finished_at) == (0.0, 5.0)
    assert (results[1].started_at, results[1].finished_at) == (0.0, 3.0)
    # Third job waits for the first machine to free up (at t=3).
    assert results[2].started_at == pytest.approx(3.0)
    assert pool.makespan() == pytest.approx(7.0)


def test_machines_accumulate_job_counts():
    pool = make_pool(1)
    for index in range(4):
        pool.submit(CondorJob(name=f"j{index}", body=lambda machine: 1.0))
    pool.run_all()
    assert pool.machines[0].jobs_run == 4
    assert pool.makespan() == pytest.approx(4.0)


def test_job_negative_duration_rejected():
    pool = make_pool(1)
    pool.submit(CondorJob(name="bad", body=lambda machine: -1.0))
    with pytest.raises(ValueError):
        pool.run_all()


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_job_non_finite_duration_rejected_before_anything_changes(duration):
    """NaN would leave the machine busy forever (a NaN makespan); inf would
    start the next job at inf."""
    pool = make_pool(1)
    pool.submit(CondorJob(name="ok", body=lambda machine: 2.0))
    pool.submit(CondorJob(name="bad", body=lambda machine: duration))
    with pytest.raises(ValueError, match="'bad'"):
        pool.run_all()
    assert pool.machines[0].busy_until == 2.0
    assert [result.job_name for result in pool.results] == ["ok"]
    assert pool.makespan() == 2.0


def test_no_live_machine_raises():
    pool = make_pool(1)
    pool.machines[0].overlay_node.fail()
    pool.submit(CondorJob(name="stuck", body=lambda machine: 1.0))
    with pytest.raises(SchedulingError):
        pool.run_all()


def test_idle_machines_listing():
    pool = make_pool(2)
    assert len(pool.idle_machines()) == 2
    pool.machines[0].busy_until = 100.0
    assert len(pool.idle_machines()) == 1
