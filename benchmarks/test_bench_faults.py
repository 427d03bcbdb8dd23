"""Fault-injection panels: correlated outages, repair, degraded reads.

Two measurements feed ``BENCH_faults.json``:

* the scenario panels at a CI-feasible scale -- the acceptance checks live
  here: a whole-rack outage must be loss-free (round-robin striping puts a
  placement's copies in distinct racks) and re-replicate every eroded
  placement back to target; a site outage must kill ledger rows with one
  correlated domain mask; the unrepaired flash crowd must surface degraded
  reads that the repaired run has healed; and repairing through degraded
  links must stretch the repair makespan;
* the paper-scale flagship: every scenario at 10 000 nodes, well under five
  minutes on one core.

The recorded ``speedups`` entries are the degraded-link makespan ratio and
the panel wall times -- the cross-PR trajectory of the robustness subsystem.
"""

from __future__ import annotations

import time

from dataclasses import replace

from repro.experiments.faults import (
    FINITE_CORE_FAULTS,
    FINITE_CORE_SCENARIOS,
    PAPER_FAULTS,
    FaultsConfig,
    FaultsExperiment,
)
from repro.workloads.filetrace import MB

#: CI-feasible scale: every scenario in a few seconds, same structure as
#: paper scale.  The hotter 25 % flash crowd makes the degraded-read census
#: non-trivial at this population size.
SMALL_FAULTS = FaultsConfig(
    node_count=300,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    file_count=800,
    mean_file_size=24 * MB,
    std_file_size=8 * MB,
    min_file_size=4 * MB,
    flash_fraction=0.25,
    repair_spacing_s=0.0,
    restart_count=8,
    restart_interval_s=10.0,
    restart_downtime_s=20.0,
    read_sample=400,
    seed=7,
)

#: The CI-scale panels behind a 4:1 oversubscribed two-stage core: same
#: population and scenarios as :data:`SMALL_FAULTS` plus the recovery-storm
#: isolation cell, with repair paced through a 32-transfer window at half
#: foreground weight.
SMALL_FINITE_CORE = replace(
    SMALL_FAULTS,
    oversubscription=4.0,
    repair_window=32,
    repair_weight=0.5,
    foreground_reads=80,
    foreground_period_s=1.0,
    scenarios=FINITE_CORE_SCENARIOS,
)


def _record_rows(results: dict, scenario_prefix: str, config: FaultsConfig,
                 outcome, seconds: float) -> None:
    for row in outcome.rows:
        # ``**row`` first: its bare "scenario" must not clobber the prefixed
        # one (three row groups share scenario names in the trajectory).
        entry = {**row, "scenario": f"{scenario_prefix}-{row['scenario']}",
                 "node_count": config.node_count, "seconds": seconds}
        entry.pop("distribute_s", None)
        entry.pop("inject_s", None)
        results["results"].append(entry)


def test_bench_faults_scenario_panels(faults_bench_results):
    """The durability oracles at CI scale, recorded into the trajectory."""
    start = time.perf_counter()
    outcome = FaultsExperiment(SMALL_FAULTS).run()
    seconds = time.perf_counter() - start
    _record_rows(faults_bench_results, "faults", SMALL_FAULTS, outcome, seconds)

    site = outcome.row("site_outage")
    rack = outcome.row("rack_outage")
    crowd = outcome.row("flash_crowd")
    wounded = outcome.row("flash_crowd_unrepaired")
    restart = outcome.row("rolling_restart")
    degraded = outcome.row("degraded_rack_outage")

    # Correlated outages kill ledger rows through the one-mask domain kill.
    assert site["rows_killed"] > 0 and rack["rows_killed"] > 0
    # Round-robin striping keeps a placement's copies in distinct racks: a
    # single-rack outage is loss-free and repair closes the erosion debt.
    assert rack["lost_gb"] == 0.0 and rack["chunks_lost"] == 0.0
    assert rack["replicas_restored"] > 0
    assert rack["availability_pct"] == 100.0
    # A whole site spans several racks, so it can (and here does) lose data.
    assert site["nodes_down"] > rack["nodes_down"]
    assert site["traffic_gb"] > rack["traffic_gb"]
    # Repair never resurrects lost chunks: availability matches the
    # unrepaired twin (same flash-crowd membership), but the survivors'
    # redundancy is healed -- no degraded reads remain after repair.
    assert crowd["availability_pct"] == wounded["availability_pct"]
    assert wounded["degraded_reads"] > 0
    assert crowd["degraded_reads"] == 0.0
    assert wounded["traffic_gb"] == 0.0 and crowd["traffic_gb"] > 0.0
    # Reboots (wipe=False) revive the rows: nothing to repair, nothing lost.
    assert restart["availability_pct"] == 100.0
    assert restart["traffic_gb"] == 0.0
    # Repairing through 25 %-speed links stretches the repair tail.
    assert degraded["makespan_s"] > rack["makespan_s"]

    staged = faults_bench_results.setdefault("_staged", {})
    staged["faults_small_seconds"] = seconds
    staged["faults_degraded_makespan"] = degraded["makespan_s"] / rack["makespan_s"]
    print(f"\nfault panels @ {SMALL_FAULTS.node_count} nodes: {seconds:.2f}s; "
          f"site outage lost {site['lost_gb']:.2f} GB, rack outage lost 0; "
          f"degraded links stretch repair {staged['faults_degraded_makespan']:.2f}x")


def test_bench_faults_paper_scale_flagship(faults_bench_results):
    """Every scenario at 10 000 nodes in well under five minutes."""
    start = time.perf_counter()
    outcome = FaultsExperiment(PAPER_FAULTS).run()
    seconds = time.perf_counter() - start
    _record_rows(faults_bench_results, "faults-paper-scale", PAPER_FAULTS,
                 outcome, seconds)
    assert seconds < 300.0, "the paper-scale fault panels must stay under ~5 minutes"

    rack = outcome.row("rack_outage")
    site = outcome.row("site_outage")
    wounded = outcome.row("flash_crowd_unrepaired")
    assert rack["lost_gb"] == 0.0 and rack["replicas_restored"] > 0
    assert site["rows_killed"] > 0 and site["nodes_down"] >= 2000
    assert wounded["degraded_reads"] > 0
    faults_bench_results.setdefault("_staged", {})["faults_flagship_seconds"] = seconds
    print(f"\nfaults @ 10 000 nodes: {seconds:.1f}s end-to-end; site outage downs "
          f"{site['nodes_down']:,.0f} nodes, loses {site['lost_gb']:,.1f} GB, repairs "
          f"{site['traffic_gb']:,.1f} GB of traffic in {site['makespan_s']:,.0f} sim-s")


def test_bench_faults_finite_core_panels(faults_bench_results):
    """Every scenario re-run behind the 4:1 two-stage core, plus the storm.

    The acceptance checks: finite trunks actually constrain the repair storm
    (non-zero peak trunk utilization, a non-empty admission queue), repair
    reaches exactly the depth the access-only model reaches (the congested
    core delays repair, it never strands extra rows), and the foreground
    retrieve p95 stays bounded while the site-outage storm drains.
    """
    start = time.perf_counter()
    outcome = FaultsExperiment(SMALL_FINITE_CORE).run()
    seconds = time.perf_counter() - start
    _record_rows(faults_bench_results, "faults-finite-core", SMALL_FINITE_CORE,
                 outcome, seconds)

    site = outcome.row("site_outage")
    rack = outcome.row("rack_outage")
    storm = outcome.row("storm_site_outage")

    assert all(row["oversub"] == 4.0 for row in outcome.rows)
    # The core is finite and busy: the hottest trunk carries real load.
    assert site["trunk_util_pct"] > 0.0
    # Single-rack outage stays loss-free and fully repaired behind the core.
    assert rack["lost_gb"] == 0.0 and rack["under_target_rows"] == 0.0
    # The bounded repair window queued the storm instead of dropping it...
    assert storm["storm_queue_peak"] > 0.0
    assert storm["transfers_failed"] == site["transfers_failed"]
    # ...and repair still reaches the same depth as the plain site outage.
    assert storm["under_target_rows"] == site["under_target_rows"]
    # Foreground probes completed during the storm with a bounded tail.
    assert storm["foreground_reads_done"] > 0.0
    assert 0.0 < storm["foreground_p95_s"] < storm["makespan_s"]

    staged = faults_bench_results.setdefault("_staged", {})
    staged["faults_finite_core_seconds"] = seconds
    staged["faults_storm_queue_peak"] = storm["storm_queue_peak"]
    staged["faults_storm_foreground_p95_s"] = storm["foreground_p95_s"]
    print(f"\nfinite-core panels @ {SMALL_FINITE_CORE.node_count} nodes: "
          f"{seconds:.2f}s; storm queue peak {storm['storm_queue_peak']:.0f}, "
          f"foreground p95 {storm['foreground_p95_s']:.2f}s over a "
          f"{storm['makespan_s']:.0f} sim-s repair storm")


def test_bench_faults_oversubscription_sweep(faults_bench_results):
    """Time-to-repair of one site outage vs the core oversubscription ratio."""
    start = time.perf_counter()
    # One fresh ``site_outage`` cell per ratio, trunks carrying aggregate
    # access / ratio; the 1:1 row is the non-blocking core.
    sweep = []
    for ratio in (1.0, 2.0, 4.0, 8.0):
        row = FaultsExperiment(
            replace(SMALL_FAULTS, oversubscription=ratio, scenarios=("site_outage",))
        ).run().row("site_outage")
        sweep.append({key: row[key] for key in ("oversub", "mean_ttr_s", "max_ttr_s",
                                                "makespan_s", "trunk_util_pct", "traffic_gb")})
    seconds = time.perf_counter() - start
    for row in sweep:
        faults_bench_results["results"].append({
            "scenario": f"ttr-vs-oversubscription-{row['oversub']:g}to1",
            "node_count": SMALL_FAULTS.node_count,
            "seconds": seconds,
            **row,
        })
    # A hotter core can only slow the storm down: the repair makespan is
    # non-decreasing in the ratio, and the 8:1 core is measurably slower
    # than the non-blocking 1:1 core.
    makespans = [row["makespan_s"] for row in sweep]
    assert makespans == sorted(makespans)
    assert makespans[-1] > makespans[0]
    staged = faults_bench_results.setdefault("_staged", {})
    staged["faults_ttr_oversub_stretch"] = makespans[-1] / makespans[0]
    print(f"\nTTR vs oversubscription @ {SMALL_FAULTS.node_count} nodes: "
          + ", ".join(f"{row['oversub']:g}:1 -> {row['makespan_s']:.0f} sim-s"
                      for row in sweep)
          + f"; 8:1 stretches repair {staged['faults_ttr_oversub_stretch']:.2f}x")


def test_bench_faults_finite_core_flagship(faults_bench_results):
    """Recovery-storm isolation at 10 000 nodes behind a 4:1 core.

    The headline robustness claim: a whole-site outage (a quarter of the
    population) repairs to full depth through a 64-transfer admission window
    at half foreground weight, while foreground retrieves issued during the
    storm keep a bounded p95.  "Full depth" is measured against an
    access-only twin of the same outage: the congested core delays the storm
    but strands not one extra row below target.
    """
    config = replace(FINITE_CORE_FAULTS, scenarios=("storm_site_outage",))
    start = time.perf_counter()
    outcome = FaultsExperiment(config).run()
    seconds = time.perf_counter() - start
    _record_rows(faults_bench_results, "faults-paper-scale", config,
                 outcome, seconds)
    assert seconds < 300.0, "the 10k-node storm cell must stay under ~5 minutes"

    twin = FaultsExperiment(
        replace(PAPER_FAULTS, scenarios=("site_outage",))
    ).run().row("site_outage")

    storm = outcome.row("storm_site_outage")
    assert storm["nodes_down"] >= 2000
    # Repair completes: the histogram is back to target exactly as deep as
    # instantaneous-core repair gets it (the small residue is placements the
    # survivors cannot legally host, identical in both runs).
    assert storm["under_target_rows"] == twin["under_target_rows"]
    assert storm["under_target_rows"] < 0.01 * storm["rows_killed"]
    # The storm was real -- admission control queued it, nothing dropped.
    assert storm["storm_queue_peak"] > 0.0
    assert storm["transfers_failed"] == 0.0
    # Foreground p95 stays bounded while the storm drains: the paced repair
    # class cannot starve foreground reads for the length of the makespan.
    assert storm["foreground_reads_done"] > 0.0
    assert 0.0 < storm["foreground_p95_s"] < 0.1 * storm["makespan_s"]
    staged = faults_bench_results.setdefault("_staged", {})
    staged["faults_finite_core_flagship_seconds"] = seconds
    print(f"\nstorm @ 10 000 nodes behind a 4:1 core: {seconds:.1f}s wall; "
          f"repairs {storm['traffic_gb']:,.1f} GB in {storm['makespan_s']:,.0f} "
          f"sim-s (queue peak {storm['storm_queue_peak']:,.0f}), foreground "
          f"p95 {storm['foreground_p95_s']:.2f}s")


def test_bench_faults_speedup_summary(faults_bench_results):
    """Promote the staged ratios into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run can never overwrite BENCH_faults.json with a partial record.
    """
    staged = faults_bench_results.pop("_staged", {})
    assert {"faults_small_seconds", "faults_degraded_makespan",
            "faults_finite_core_seconds", "faults_ttr_oversub_stretch"} <= set(staged)
    faults_bench_results["speedups"] = staged
