"""Churn-soak throughput and the compaction memory bound.

Three measurements feed ``BENCH_soak.json`` (printed by
``python -m repro.cli bench``):

* the soak at the 300-node scale earlier records compared against the seed
  dict walk (the committed rows keep that historical ``scalar-seed`` figure;
  the seed path left ``src/`` with PR 14, its series frozen under
  ``tests/golden/``);
* the same scale with compaction disabled, to record how many rows the GC
  pass reclaims (the append-only growth the PR 3 follow-up called out);
* the paper-scale flagship: 10 000 nodes under one simulated week of session
  churn plus ~100 membership changes per hour.

``events_per_s`` charges the soak phase only (the event loop, excluding the
trace distribution); the memory-bound assertion is the acceptance criterion:
with periodic compaction the ledger's row count stays within a small factor
of the live rows instead of growing with every repair.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

import pytest

from repro.experiments.soak import PAPER_SOAK, SoakConfig, SoakExperiment


@pytest.fixture(autouse=True)
def _collect_soak_garbage():
    """Release each soak's cyclic heap (nodes <-> listeners <-> ledger) eagerly.

    The 10 000-node flagship leaves ~10^5 cyclically-referenced objects to the
    generational collector; without an explicit collection the inflated heap
    measurably skews the single-shot timing benchmarks that run after this
    module in a full ``-m bench`` session.
    """
    yield
    gc.collect()

#: The scale the retired seed path was compared at (kept for row continuity).
COMPARE_SOAK = SoakConfig(
    node_count=300,
    file_count=1_000,
    horizon_hours=72.0,
    join_rate_per_hour=2.0,
    leave_rate_per_hour=2.0,
    sample_every_hours=6.0,
    compact_every_hours=24.0,
    seed=8,
)


def _run(config: SoakConfig, scenario: str, pipeline: str, results: dict) -> tuple:
    experiment = SoakExperiment(config)
    start = time.perf_counter()
    result = experiment.run()
    seconds = time.perf_counter() - start
    soak_s = result.timings["soak_s"]
    events = int(result.timings["events"])
    summary = result.summary()
    row = {
        "scenario": scenario,
        "node_count": config.node_count,
        "file_count": config.file_count,
        "sim_days": config.horizon_hours / 24.0,
        "pipeline": pipeline,
        "seconds": seconds,
        "soak_seconds": soak_s,
        "events": events,
        "events_per_s": events / soak_s if soak_s > 0 else 0.0,
        "failures": summary["failures"],
        "joins": summary["joins"],
        "leaves": summary["leaves"],
        "final_unavailable_pct": summary["final_unavailable_pct"],
        "peak_rows": int(summary["peak_ledger_rows"]),
        "peak_live_rows": int(summary["peak_live_rows"]),
        "rows_reclaimed": int(summary["rows_reclaimed"]),
        "peak_column_mb": summary["peak_column_mb"],
    }
    results["results"].append(row)
    return row, result


def test_bench_soak_compare_scale(soak_bench_results):
    """The ledger soak at the 300-node comparison scale."""
    _run(COMPARE_SOAK, "soak", "ledger", soak_bench_results)


def test_bench_soak_compaction_reclaim(soak_bench_results):
    """Compaction on vs off at the shared scale: the reclaimed-row record."""
    unbounded_row, unbounded = _run(
        replace(COMPARE_SOAK, compaction=False), "soak", "ledger-no-compaction",
        soak_bench_results,
    )
    compacted = [r for r in soak_bench_results["results"]
                 if r["pipeline"] == "ledger" and r["scenario"] == "soak"]
    assert compacted, "the ledger soak row must be recorded first"
    row = compacted[0]
    assert row["rows_reclaimed"] > 0
    assert row["peak_rows"] <= unbounded_row["peak_rows"]
    # Staged, not final: ``speedups`` is assembled only by the summary test so
    # a filtered run can never pass the conftest write guard with a partial
    # record (same invariant as the insertion benchmark).
    soak_bench_results.setdefault("_staged", {})["soak_row_growth_vs_compacted"] = (
        unbounded_row["peak_rows"] / max(row["peak_rows"], 1)
    )


def test_bench_soak_paper_scale_flagship(soak_bench_results):
    """One simulated week at 10 000 nodes: minutes of wall time, bounded memory."""
    row, result = _run(PAPER_SOAK, "soak-paper-scale", "ledger", soak_bench_results)
    summary = result.summary()
    print(f"\nsoak @ 10 000 nodes / {PAPER_SOAK.horizon_hours / 24:.0f} sim-days: "
          f"{row['seconds']:.1f}s end-to-end, {row['events_per_s']:,.0f} events/s, "
          f"{summary['failures']:,.0f} failures, {summary['joins']:,.0f} joins, "
          f"{summary['leaves']:,.0f} leaves")
    print(f"ledger: peak {row['peak_rows']:,} rows vs {row['peak_live_rows']:,} live, "
          f"{row['rows_reclaimed']:,} reclaimed over {summary['compactions']:.0f} compactions, "
          f"peak columns {row['peak_column_mb']:.1f} MB")
    assert row["seconds"] < 600.0, "the paper-scale soak must complete in minutes"
    # Acceptance: bounded ledger memory.  Without compaction the row count
    # grows by ~#repairs (5x live rows over this week); with it the peak
    # stays within a small factor of the live copies.
    assert row["peak_rows"] <= 3 * row["peak_live_rows"]
    assert summary["rows_reclaimed"] > row["peak_live_rows"]
    # The archive must stay essentially available under repair.
    assert summary["max_unavailable_pct"] < 2.0
    assert summary["data_regenerated_gb"] > 1_000.0
    soak_bench_results.setdefault("_staged", {})["soak_flagship_events_per_s"] = row["events_per_s"]


def test_bench_soak_speedup_summary(soak_bench_results):
    """Promote the staged ratios into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run (flagship only, compare only) can never overwrite
    BENCH_soak.json with a partial record.
    """
    staged = soak_bench_results.pop("_staged", {})
    assert {"soak_row_growth_vs_compacted", "soak_flagship_events_per_s"} <= set(staged)
    assert any(row["scenario"] == "soak-paper-scale" for row in soak_bench_results["results"])
    soak_bench_results["speedups"] = staged
