"""Table 3 — data lost and regenerated after 10 % and 20 % of the nodes fail.

Paper: with the full 10 000-node / 278.7 TB workload, no data is lost at 10 %
failures and 142 GB at 20 %; ~29 GB is regenerated per failure, i.e. about
0.01 % of the total data per failure.  The per-failure share scales with the
node count (1/N of the data lives on each node on average), so at the scaled
population the percentage is proportionally larger; the reproduction checks
the structural claims: negligible loss at 10 %, loss well below the amount
regenerated at 20 %, and a small per-failure regeneration share.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.failure_sweep import PAPER_TABLE3, FailureSweepExperiment

BENCH_CONFIG = replace(PAPER_TABLE3, node_count=300, file_count=2000, seed=4)


def test_bench_table3_churn(benchmark):
    """Benchmark the churn/regeneration experiment and report Table 3."""

    def run_once():
        return FailureSweepExperiment(BENCH_CONFIG).run().table

    table = benchmark.pedantic(run_once, rounds=1, iterations=1)
    print("\n" + table.format())
    ten, twenty = table.rows
    assert ten["nodes_failed_pct"] == 10.0 and twenty["nodes_failed_pct"] == 20.0
    # Loss at 10 % failures is negligible relative to what is regenerated.
    assert ten["data_lost_gb"] <= 0.05 * ten["data_regenerated_gb"] + 1e-9
    # More failures regenerate more data, and loss stays far below regeneration.
    assert twenty["data_regenerated_gb"] > ten["data_regenerated_gb"]
    assert twenty["data_lost_gb"] < 0.25 * twenty["data_regenerated_gb"]
    # Per-failure regeneration is a small fraction of the total stored data
    # (the paper's 0.01 % at 10 000 nodes; proportionally larger when scaled).
    assert twenty["regenerated_per_failure_pct_of_total"] < 100.0 / BENCH_CONFIG.node_count * 5
