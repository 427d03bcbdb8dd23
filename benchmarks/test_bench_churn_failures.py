"""Churn-engine throughput of the columnar block ledger.

Two kinds of measurement feed ``BENCH_churn.json``:

* the Figure 10 availability experiment and the Table 3 regeneration
  experiment at the 300-node scale earlier records compared against the seed
  dict walk (the committed rows keep those historical ``scalar-seed``
  figures; the seed path left ``src/`` with PR 14 and its outputs are frozen
  under ``tests/golden/``);
* the paper-scale flagships: Figure 10 at 10 000 nodes / 1 000 sequential
  failures and Table 3 at 10 000 nodes (10 % and 20 % failed).

``failures_per_s`` charges the failure-processing phase only (the sweep /
recovery loop, excluding trace distribution), which is the metric the ledger
accelerates; ``seconds`` is the end-to-end experiment time.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments.failure_sweep import (
    PAPER_FIG10,
    PAPER_TABLE3,
    FailureSweepConfig,
    FailureSweepExperiment,
)

#: The scale the retired seed path was compared at (kept for row continuity).
COMPARE_FIG10 = replace(PAPER_FIG10, node_count=300, file_count=1000, sample_points=20, seed=2)
COMPARE_TABLE3 = replace(PAPER_TABLE3, node_count=300, file_count=1000, seed=4)


def _fig10_row(config: FailureSweepConfig, scenario: str, pipeline: str, results: dict) -> dict:
    start = time.perf_counter()
    result = FailureSweepExperiment(config).run()
    seconds = time.perf_counter() - start
    series = result.curves
    sweep_s = sum(row["churn_s"] for row in result.fraction_rows)
    failures = int(sum(row["failures"] for row in result.fraction_rows))
    row = {
        "scenario": scenario,
        "node_count": config.node_count,
        "file_count": config.file_count,
        "pipeline": pipeline,
        "seconds": seconds,
        "failures": failures,
        "sweep_seconds": sweep_s,
        "failures_per_s": failures / sweep_s if sweep_s > 0 else 0.0,
        "finals": {label: curve.final() for label, curve in series.items()},
    }
    results["results"].append(row)
    return row


def _table3_row(config: FailureSweepConfig, scenario: str, pipeline: str, results: dict) -> dict:
    start = time.perf_counter()
    result = FailureSweepExperiment(config).run()
    seconds = time.perf_counter() - start
    table = result.table
    recover_s = sum(row["churn_s"] for row in result.fraction_rows)
    failures = int(sum(row["failures"] for row in result.fraction_rows))
    row = {
        "scenario": scenario,
        "node_count": config.node_count,
        "file_count": config.file_count,
        "pipeline": pipeline,
        "seconds": seconds,
        "failures": failures,
        "recover_seconds": recover_s,
        "failures_per_s": failures / recover_s if recover_s > 0 else 0.0,
        "data_lost_gb": [row["data_lost_gb"] for row in table.rows],
        "data_regenerated_gb": [row["data_regenerated_gb"] for row in table.rows],
    }
    results["results"].append(row)
    return row


def test_bench_fig10_compare_scale(churn_bench_results):
    """Figure 10 at the 300-node comparison scale."""
    _fig10_row(COMPARE_FIG10, "fig10", "ledger", churn_bench_results)


def test_bench_table3_compare_scale(churn_bench_results):
    """Table 3 at the 300-node comparison scale."""
    _table3_row(COMPARE_TABLE3, "table3", "ledger", churn_bench_results)


def test_bench_fig10_paper_scale_flagship(churn_bench_results):
    """Figure 10 at the paper's 10 000 nodes / 1 000 failures, ledger path."""
    row = _fig10_row(PAPER_FIG10, "fig10-paper-scale", "ledger", churn_bench_results)
    print(f"\nFigure 10 @ 10 000 nodes / 1 000 failures: {row['seconds']:.1f}s end-to-end, "
          f"{row['failures_per_s']:,.0f} failures/s in the sweep")
    finals = row["finals"]
    assert finals["No error code"] > finals["XOR code"] > finals["Online code"]
    assert finals["Online code"] < 3.0  # the paper reports 1.48 %
    assert row["seconds"] < 600.0, "paper-scale Figure 10 must complete in minutes"
    churn_bench_results["speedups"]["fig10_paper_failures_per_s"] = row["failures_per_s"]


def test_bench_table3_paper_scale_flagship(churn_bench_results):
    """Table 3 at the paper's 10 000 nodes, 10 % and 20 % failures, ledger path."""
    config = PAPER_TABLE3
    start = time.perf_counter()
    result = FailureSweepExperiment(config).run()
    seconds = time.perf_counter() - start
    table = result.table
    recover_s = sum(row["churn_s"] for row in result.fraction_rows)
    failures = int(sum(row["failures"] for row in result.fraction_rows))
    churn_bench_results["results"].append({
        "scenario": "table3-paper-scale",
        "node_count": config.node_count,
        "file_count": config.file_count,
        "pipeline": "ledger",
        "seconds": seconds,
        "failures": failures,
        "recover_seconds": recover_s,
        "failures_per_s": failures / recover_s if recover_s > 0 else 0.0,
    })
    print("\n" + table.format())
    print(f"Table 3 @ 10 000 nodes: {seconds:.1f}s end-to-end, "
          f"{failures / max(recover_s, 1e-9):,.0f} failures/s in recovery")
    ten, twenty = table.rows
    # The paper's structural claims: (almost) no loss at 10 %, loss well below
    # the regenerated volume at 20 %, small per-failure regeneration share.
    assert ten["data_lost_gb"] <= 0.05 * ten["data_regenerated_gb"] + 1e-9
    assert twenty["data_regenerated_gb"] > ten["data_regenerated_gb"]
    assert twenty["data_lost_gb"] < 0.25 * twenty["data_regenerated_gb"]
    assert seconds < 600.0, "paper-scale Table 3 must complete in minutes"
    churn_bench_results["speedups"]["table3_paper_failures_per_s"] = (
        failures / recover_s if recover_s > 0 else 0.0
    )
