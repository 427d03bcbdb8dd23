"""Table 4 — bigCopy wall time on a 32-machine Condor pool, per storage scheme.

Paper: whole-file storage works up to 8 GB and is unavailable ("N/A") from
16 GB onwards because no single machine contributes that much; both chunked
schemes store every size; the fixed-chunk scheme pays a per-chunk p2p lookup
overhead that grows with the file, while the varying-chunk scheme's overhead
is small (under 2.5 % at 8 GB) and it stays faster than fixed chunks for all
large sizes (e.g. 16 426 s vs 20 882 s at 128 GB).
"""

from __future__ import annotations

import math

from repro.experiments.condor_case_study import CondorCaseStudyConfig, CondorCaseStudyExperiment
from repro.workloads.filetrace import GB

BENCH_CONFIG = CondorCaseStudyConfig(seed=6)


def test_bench_table4_condor_case_study(benchmark):
    """Benchmark the Condor case study and report Table 4."""

    def run_once():
        return CondorCaseStudyExperiment(BENCH_CONFIG).run()

    table = benchmark.pedantic(run_once, rounds=1, iterations=1)
    print("\n" + table.format(float_format="{:.1f}"))
    rows = {row["file_size_gb"]: row for row in table.rows}

    # Whole-file scheme: works for small files, impossible from 16 GB up.
    for size in (1.0, 2.0, 4.0, 8.0):
        assert math.isfinite(rows[size]["whole_file_s"])
    for size in (16.0, 32.0, 64.0, 128.0):
        assert math.isnan(rows[size]["whole_file_s"])

    # Chunked schemes always store the copy; varying chunks are never slower.
    for size, row in rows.items():
        assert math.isfinite(row["fixed_chunks_s"])
        assert math.isfinite(row["varying_chunks_s"])
        if size >= 2.0:
            assert row["varying_chunks_s"] <= row["fixed_chunks_s"]

    # Varying-chunk overhead over the whole-file baseline is small and shrinks
    # with file size (paper: 16.8 % at 1 GB down to 2.4 % at 8 GB).
    assert rows[8.0]["varying_overhead_pct"] <= rows[1.0]["varying_overhead_pct"] + 1e-9
    assert rows[8.0]["varying_overhead_pct"] < 5.0

    # At the largest size the fixed-chunk scheme is markedly slower (paper: ~27 %).
    assert rows[128.0]["fixed_chunks_s"] > 1.10 * rows[128.0]["varying_chunks_s"]
