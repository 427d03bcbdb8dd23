"""Per-tenant QoS isolation panels: the noisy-neighbor storm suite.

Two measurements feed ``BENCH_tenants.json``:

* the isolation contrast panel at a CI-feasible scale -- all three scenarios
  (no storm, storm with QoS on, storm with QoS off) on identical deployments
  and workload timelines.  The acceptance checks live here: with isolation on,
  the victim tenant's ingest throughput stays within 1.5x of its no-storm
  baseline and its retrieve p95 stays bounded while the archive's site-outage
  repair completes through the bounded admission window (backpressure, never
  drops); with isolation off, the same storm clearly degrades the victim's
  retrieve tail;
* the paper-scale flagship: the no-storm baseline and the isolated storm at
  10 000 nodes behind the 4:1 core, well under five minutes on one core.

The recorded ``speedups`` entries are the open-vs-isolated p95 degradation
ratio, the isolated ingest slowdown, and the panel wall times -- the
cross-PR trajectory of the QoS isolation subsystem.
"""

from __future__ import annotations

import time

from dataclasses import replace

from repro.experiments.tenants import (
    PAPER_TENANTS,
    TenantsConfig,
    TenantsExperiment,
)
from repro.workloads.filetrace import GB, MB

#: CI-feasible scale with a deliberately violent storm: the archive corpus is
#: dense enough (and the admission window wide enough) that the unweighted,
#: uncapped repair class visibly crowds the victim's retrieve probes off the
#: shared trunks, while the weighted+capped class does not.
SMALL_TENANTS = TenantsConfig(
    node_count=1000,
    capacity_mean=2 * GB,
    capacity_std=500 * MB,
    file_count=1200,
    mean_file_size=24 * MB,
    std_file_size=8 * MB,
    min_file_size=4 * MB,
    studies=12,
    frames_per_study=12,
    mean_frame_size=8 * MB,
    study_interval_s=10.0,
    bursts=3,
    burst_sizes_gb=(0.5, 1.0, 2.0),
    burst_interval_s=30.0,
    distribution_rounds=20,
    distribution_period_s=5.0,
    distribution_payload=8 * MB,
    probe_reads=80,
    probe_period_s=1.0,
    read_sample=120,
    storm_time_s=20.0,
    repair_spacing_s=0.0,
    repair_window=512,
    storm_tenant_weight=0.25,
    storm_tenant_cap_mb_s=64.0,
    seed=11,
)

#: The 10k flagship runs the baseline and the isolated storm (the open storm's
#: contrast is established by the CI-scale panel above; re-running it at paper
#: scale would double the wall time without changing the claim).
FLAGSHIP_TENANTS = replace(PAPER_TENANTS, scenarios=("baseline", "storm_isolated"))


def _record_rows(results: dict, prefix: str, config: TenantsConfig,
                 outcome, seconds: float) -> None:
    for row in outcome.rows:
        # ``**row`` first: its bare "scenario" must not clobber the prefixed
        # one (both row groups share scenario names in the trajectory).
        results["results"].append({
            **row, "scenario": f"{prefix}-{row['scenario']}",
            "node_count": config.node_count, "seconds": seconds,
        })
    for row in outcome.tenant_rows:
        results["results"].append({
            **row, "scenario": f"{prefix}-slo-{row['scenario']}",
            "node_count": config.node_count, "seconds": seconds,
        })


def _slo_row(outcome, scenario: str, tenant: str) -> dict:
    """The SLO row of one tenant in one scenario."""
    return next(row for row in outcome.tenant_rows
                if row["scenario"] == scenario and row["tenant"] == tenant)


def test_bench_tenants_isolation_panels(tenants_bench_results):
    """The QoS isolation oracles at CI scale, recorded into the trajectory."""
    start = time.perf_counter()
    outcome = TenantsExperiment(SMALL_TENANTS).run()
    seconds = time.perf_counter() - start
    _record_rows(tenants_bench_results, "tenants", SMALL_TENANTS, outcome, seconds)

    baseline = outcome.row("baseline")
    isolated = outcome.row("storm_isolated")
    open_storm = outcome.row("storm_open")

    # The baseline saw no outage: nothing repaired, nothing queued.
    assert baseline["repair_gb"] == 0.0
    assert baseline["probe_reads_done"] > 0.0
    # Both storms repaired the same standing corpus (same outage, same
    # deployment) and drained completely -- backpressure, never drops.
    assert isolated["repair_gb"] > 0.0
    assert isolated["repair_gb"] == open_storm["repair_gb"]
    assert isolated["storm_backlog_end_gb"] == 0.0
    assert open_storm["storm_backlog_end_gb"] == 0.0
    assert isolated["transfers_failed"] == 0.0
    # The flagship claim: with isolation on, the victim's ingest throughput
    # stays within 1.5x of its no-storm baseline...
    assert 0.0 < isolated["ingest_slowdown_x"] <= 1.5
    # ...and its retrieve tail stays bounded, while the open storm's
    # unweighted, uncapped repair class clearly degrades it (measured ~5x;
    # the 1.5x floor keeps the oracle robust to scheduler-neutral drift).
    assert 0.0 < isolated["probe_p95_s"]
    assert open_storm["probe_p95_s"] > 1.5 * isolated["probe_p95_s"]
    # Isolation costs repair time: the weighted+capped storm drains slower.
    assert isolated["repair_makespan_s"] > open_storm["repair_makespan_s"]
    # The core is finite and busy in every storm cell.
    assert isolated["trunk_util_pct"] > 0.0

    # Per-tenant SLO rows: the storm tenant moved the repair bytes, and the
    # victim's accounting is scoped to its own tag (no cross-tenant bleed).
    archive = _slo_row(outcome, "storm_isolated", "archive")
    victim = _slo_row(outcome, "storm_isolated", "medimg")
    open_victim = _slo_row(outcome, "storm_open", "medimg")
    assert archive["moved_gb"] >= isolated["repair_gb"]
    assert victim["stored_gb"] > 0.0
    # The outage's durability damage is identical in both storm cells: QoS
    # changes repair pacing, never what survives.
    assert victim["failed_reads"] == open_victim["failed_reads"]
    assert victim["availability_pct"] == open_victim["availability_pct"]

    staged = tenants_bench_results.setdefault("_staged", {})
    staged["tenants_small_seconds"] = seconds
    staged["tenants_open_p95_degradation"] = (
        open_storm["probe_p95_s"] / isolated["probe_p95_s"])
    staged["tenants_isolated_slowdown"] = isolated["ingest_slowdown_x"]
    print(f"\ntenant panels @ {SMALL_TENANTS.node_count} nodes: {seconds:.2f}s; "
          f"isolated ingest slowdown {isolated['ingest_slowdown_x']:.3f}x, "
          f"probe p95 {isolated['probe_p95_s']:.2f}s vs "
          f"{open_storm['probe_p95_s']:.2f}s open "
          f"({staged['tenants_open_p95_degradation']:.1f}x degradation)")


def test_bench_tenants_paper_scale_flagship(tenants_bench_results):
    """The isolated storm at 10 000 nodes behind the 4:1 core.

    The headline QoS claim at paper scale: a whole-site outage into the
    archive tenant repairs >1 TB through the bounded admission window at a
    quarter fair-share weight under a hard cap, while the medical-image
    tenant's ingest throughput stays within 1.5x of its no-storm baseline
    -- backpressure absorbs the storm, nothing is dropped.
    """
    start = time.perf_counter()
    outcome = TenantsExperiment(FLAGSHIP_TENANTS).run()
    seconds = time.perf_counter() - start
    _record_rows(tenants_bench_results, "tenants-paper-scale", FLAGSHIP_TENANTS,
                 outcome, seconds)
    assert seconds < 300.0, "the 10k-node tenant cells must stay under ~5 minutes"

    isolated = outcome.row("storm_isolated")
    assert isolated["repair_gb"] > 0.0
    assert 0.0 < isolated["ingest_slowdown_x"] <= 1.5
    assert isolated["storm_backlog_end_gb"] == 0.0
    assert isolated["transfers_failed"] == 0.0
    assert isolated["probe_reads_done"] > 0.0

    staged = tenants_bench_results.setdefault("_staged", {})
    staged["tenants_flagship_seconds"] = seconds
    staged["tenants_flagship_slowdown"] = isolated["ingest_slowdown_x"]
    print(f"\ntenants @ 10 000 nodes behind a 4:1 core: {seconds:.1f}s wall; "
          f"storm repairs {isolated['repair_gb']:,.1f} GB in "
          f"{isolated['repair_makespan_s']:,.0f} sim-s while victim ingest "
          f"holds {isolated['ingest_mb_s']:.2f} MB/s "
          f"({isolated['ingest_slowdown_x']:.3f}x baseline)")


def test_bench_tenants_speedup_summary(tenants_bench_results):
    """Promote the staged ratios into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run can never overwrite BENCH_tenants.json with a partial record.
    """
    staged = tenants_bench_results.pop("_staged", {})
    assert {"tenants_small_seconds", "tenants_open_p95_degradation",
            "tenants_isolated_slowdown", "tenants_flagship_seconds"} <= set(staged)
    tenants_bench_results["speedups"] = staged
