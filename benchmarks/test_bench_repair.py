"""Bandwidth-aware repair: time-to-repair curves, traffic, and the ablation.

Three measurements feed ``BENCH_repair.json``:

* the failure-fraction sweep at a CI-feasible scale -- the acceptance checks
  live here: repair *traffic* and repair *makespan* must be monotone in the
  failure fraction, and per-failure time-to-repair must scale inversely with
  the per-node bandwidth;
* the migration-vs-regeneration ablation at the same scale -- graceful
  ``leave()`` must *move* bytes (one network crossing per block) instead of
  charging the regeneration pipeline (``required`` reads per block), so the
  regenerate/migrate traffic ratio records the coding factor;
* the paper-scale flagship: the full three-panel experiment at 10 000 nodes,
  which must complete in well under two minutes on one core.

The recorded ``speedups`` entries are the migration traffic ratio and the
flagship wall time -- the cross-PR trajectory of the repair subsystem.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.experiments.failure_sweep import PAPER_REPAIR, FailureSweepConfig, FailureSweepExperiment
from repro.workloads.filetrace import MB

#: CI-feasible scale: every panel in a few seconds, same structure as paper scale.
SMALL_REPAIR = replace(
    PAPER_REPAIR,
    node_count=300,
    file_count=800,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    mean_file_size=24 * MB,
    std_file_size=8 * MB,
    min_file_size=4 * MB,
    fail_fractions=(0.05, 0.10, 0.20),
    bandwidth_mb_s=2.0,
    bandwidth_sweep_mb_s=(1.0, 2.0, 4.0),
    failure_spacing_s=5.0,
    leave_fraction=0.10,
    seed=7,
)


def _record_rows(results: dict, scenario: str, config: FailureSweepConfig, outcome,
                 seconds: float):
    for row in outcome.fraction_rows:
        entry = {"scenario": scenario, "node_count": config.node_count,
                 "mode": "fail", "seconds": seconds, **row}
        results["results"].append(entry)
    for row in outcome.ablation_rows:
        entry = {"scenario": f"{scenario}-ablation", "node_count": config.node_count,
                 "fail_pct": 100.0 * config.leave_fraction, "seconds": seconds, **row}
        results["results"].append(entry)


def test_bench_repair_curves_are_monotone(repair_bench_results):
    """Traffic and makespan grow with the failure fraction; TTR ~ 1/bandwidth."""
    start = time.perf_counter()
    outcome = FailureSweepExperiment(SMALL_REPAIR).run()
    seconds = time.perf_counter() - start
    _record_rows(repair_bench_results, "repair", SMALL_REPAIR, outcome, seconds)

    traffic = [row["traffic_gb"] for row in outcome.fraction_rows]
    makespan = [row["makespan_s"] for row in outcome.fraction_rows]
    assert traffic == sorted(traffic) and traffic[0] < traffic[-1]
    assert makespan == sorted(makespan) and makespan[0] < makespan[-1]
    # Doubling every link halves the per-failure repair time (fluid model).
    ttrs = [row["mean_ttr_s"] for row in outcome.bandwidth_rows]
    assert ttrs == sorted(ttrs, reverse=True) and ttrs[0] > ttrs[-1]
    assert ttrs[0] / ttrs[1] == pytest.approx(2.0, rel=0.25)
    repair_bench_results.setdefault("_staged", {})["repair_small_seconds"] = seconds
    print(f"\nrepair panels @ {SMALL_REPAIR.node_count} nodes: {seconds:.2f}s, "
          f"traffic {traffic} GB, makespan {makespan} s")


def test_bench_repair_migration_moves_instead_of_regenerating(repair_bench_results):
    """The ablation rows must show graceful leave() moving bytes once."""
    rows = [row for row in repair_bench_results["results"]
            if row["scenario"] == "repair-ablation"]
    assert len(rows) == 2, "the curve benchmark records the ablation rows first"
    regen = next(row for row in rows if row["mode"] == "regenerate")
    migrate = next(row for row in rows if row["mode"] == "migrate")
    assert regen["migrated_gb"] == 0.0 and regen["regenerated_gb"] > 0.0
    assert migrate["regenerated_gb"] == 0.0 and migrate["migrated_gb"] > 0.0
    # Migration traffic equals the moved bytes; regeneration reads
    # `required` surviving blocks per lost block (2x for the (2,3) code).
    assert abs(migrate["traffic_gb"] - migrate["moved_gb"]) < 1e-9
    ratio = (regen["traffic_gb"] / regen["regenerated_gb"])
    assert 1.9 < ratio < 2.1
    traffic_ratio = regen["traffic_gb"] / migrate["traffic_gb"]
    assert traffic_ratio > 1.5
    repair_bench_results.setdefault("_staged", {})["repair_regen_vs_migrate_traffic"] = (
        traffic_ratio
    )
    print(f"\nablation: regenerate {regen['traffic_gb']:.2f} GB vs "
          f"migrate {migrate['traffic_gb']:.2f} GB ({traffic_ratio:.2f}x)")


def test_bench_repair_paper_scale_flagship(repair_bench_results):
    """All three panels at 10 000 nodes in well under two minutes."""
    start = time.perf_counter()
    outcome = FailureSweepExperiment(PAPER_REPAIR).run()
    seconds = time.perf_counter() - start
    _record_rows(repair_bench_results, "repair-paper-scale", PAPER_REPAIR, outcome, seconds)
    assert seconds < 120.0, "the paper-scale repair experiment must stay under ~2 minutes"
    traffic = [row["traffic_gb"] for row in outcome.fraction_rows]
    makespan = [row["makespan_s"] for row in outcome.fraction_rows]
    assert traffic == sorted(traffic)
    assert makespan == sorted(makespan)
    migrate = next(r for r in outcome.ablation_rows if r["mode"] == "migrate")
    regen = next(r for r in outcome.ablation_rows if r["mode"] == "regenerate")
    assert migrate["traffic_gb"] < regen["traffic_gb"]
    repair_bench_results.setdefault("_staged", {})["repair_flagship_seconds"] = seconds
    print(f"\nrepair @ 10 000 nodes: {seconds:.1f}s end-to-end, "
          f"10% burst moves {traffic[-1]:,.0f} GB over {makespan[-1]:,.0f} sim-seconds; "
          f"migration saves {regen['traffic_gb'] - migrate['traffic_gb']:,.0f} GB of traffic")


def test_bench_repair_speedup_summary(repair_bench_results):
    """Promote the staged ratios into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run can never overwrite BENCH_repair.json with a partial record.
    """
    staged = repair_bench_results.pop("_staged", {})
    assert {"repair_small_seconds", "repair_regen_vs_migrate_traffic"} <= set(staged)
    repair_bench_results["speedups"] = staged
