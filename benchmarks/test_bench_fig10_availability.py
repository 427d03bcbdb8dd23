"""Figure 10 — unavailable files vs number of failed nodes, per error coding.

Paper (Section 6.2): failing 1000 of 10 000 nodes without repair leaves the
no-coding configuration worst; the (2,3) XOR code reduces failures by 23 % and
the online code by 32 %, with the online code losing only 1.48 % of files
overall (and almost none up to 866 failed nodes).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.failure_sweep import PAPER_FIG10, FailureSweepExperiment
from repro.experiments.results import format_series_table

BENCH_CONFIG = replace(PAPER_FIG10, node_count=300, file_count=2000, fail_fractions=(0.10,), seed=2)


def test_bench_fig10_availability(benchmark):
    """Benchmark the availability experiment and report Figure 10."""

    def run_once():
        return FailureSweepExperiment(BENCH_CONFIG).run().curves

    series = benchmark.pedantic(run_once, rounds=1, iterations=1)
    print("\nFigure 10 — unavailable files (%) vs failed nodes:")
    print(format_series_table(list(series.values()), x_label="failed_nodes"))
    finals = {label: curve.final() for label, curve in series.items()}
    print("final:", {label: round(value, 2) for label, value in finals.items()})
    assert finals["No error code"] > finals["XOR code"] >= finals["Online code"]
    assert finals["Online code"] < 3.0  # "negligible" in the paper (1.48 %)
    # The online code keeps losses at (almost) zero for most of the failures.
    online = series["Online code"]
    midpoint_value = online.y[len(online.y) // 2]
    assert midpoint_value <= 1.0
