"""Participant churn and block regeneration: Table 3.

The paper distributes the trace, then fails 10 % and 20 % of the nodes without
recovery of the nodes themselves; after each failure the failed node's
neighbours regenerate the blocks now mapped to them, and a delay proportional
to the amount of data being recovered is inserted so consecutive failures can
overlap in-flight recoveries.  Reported: total data lost, total data
regenerated, and the mean/standard deviation of data regenerated per failure.

Running at the paper's scale
----------------------------
Distribution runs on the array-backed placement engine and every failure is
processed through the columnar block ledger: the failed node's blocks come from one mask over the owner column,
each decodability check is an O(1) counter read, and removing the node from
the DHT view patches the lookup boundaries incrementally instead of paying an
O(N) rebuild.  That makes the paper's 10 000-node configuration
(:data:`PAPER_TABLE3`) run in minutes on one core::

    python -m repro.cli table3                # paper scale (10 % and 20 %)
    python -m repro.cli table3 --scale 0.1    # 1 000 nodes, quick look

The seed pipeline's rows (per-node dict walks and placement scans) are frozen
in ``tests/golden/table3_rows.json``; ``tests/test_churn_equivalence.py``
asserts this experiment reproduces them exactly, and
``benchmarks/test_bench_churn_failures.py`` records its throughput in
``BENCH_churn.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.base import DeploymentConfig, deploy
from repro.experiments.results import TableResult
from repro.sim.churn import FailureSchedule
from repro.sim.rng import RandomStreams
from repro.workloads.filetrace import GB, MB


@dataclass(frozen=True)
class ChurnConfig(DeploymentConfig):
    """The Table 3 experiment; the defaults are the paper's configuration.

    As with Figure 10, the file count keeps the run to minutes on one core
    while preserving the table's structural claims (``--files N`` raises it).
    """

    node_count: int = 10_000
    file_count: int = 20_000
    seed: int = 4
    #: Failure fractions to report rows for (paper: 10 % and 20 %).
    fail_fractions: tuple = (0.10, 0.20)
    #: Simulated seconds between consecutive node failures.
    failure_spacing: float = 10.0
    #: Bytes per simulated second a recovering neighbour can regenerate.
    recovery_rate: float = 50 * MB


#: The paper's Table 3 configuration: 10 000 nodes, fail 10 % then 20 %.
PAPER_TABLE3 = ChurnConfig()


@dataclass
class ChurnRow:
    """One row of Table 3 (one failure fraction)."""

    fail_fraction: float
    nodes_failed: int
    data_lost_bytes: float
    data_regenerated_bytes: float
    regenerated_per_failure_mean: float
    regenerated_per_failure_std: float
    total_data_bytes: float

    @property
    def regenerated_per_failure_pct_of_total(self) -> float:
        """Per-failure regenerated data as a percentage of all stored data."""
        if self.total_data_bytes == 0:
            return 0.0
        return 100.0 * self.regenerated_per_failure_mean / self.total_data_bytes


class ChurnExperiment:
    """Runs the fail-and-regenerate experiment with recovery delays."""

    def __init__(self, config: Optional[ChurnConfig] = None) -> None:
        self.config = config or ChurnConfig()
        #: Per-fraction wall-clock phase timings of the last :meth:`run`
        #: ({fraction: {"distribute_s": ..., "recover_s": ...}}), recorded for
        #: the churn benchmarks.
        self.timings: Dict[float, Dict[str, float]] = {}

    def _run_fraction(self, fraction: float) -> ChurnRow:
        config = self.config
        streams = RandomStreams(config.seed)
        phase_start = time.perf_counter()
        session, client = deploy(config, streams)
        distribute_s = time.perf_counter() - phase_start
        recovery = session.recovery(client)
        total_data = float(client.storage.stored_bytes())

        schedule = FailureSchedule(
            session.network.live_ids(),
            fraction,
            rng=streams.fresh("failures", fraction),
            spacing=config.failure_spacing,
        )

        # Recovery delays proportional to the regenerated data size, driven by
        # the discrete-event kernel so that later failures can land while a
        # previous recovery is still in flight (the regeneration work is
        # applied when the delay elapses, not at failure time).
        sim = session.sim
        pending: List = []

        def fail_at(event) -> None:
            impact = recovery.handle_failure(event.node_id)
            delay = impact.bytes_regenerated / config.recovery_rate if config.recovery_rate else 0.0
            sim.schedule(delay, lambda: pending.append(impact))

        recover_start = time.perf_counter()
        for event in schedule:
            sim.schedule(event.time, lambda event=event: fail_at(event))
        sim.run()
        self.timings[fraction] = {
            "distribute_s": distribute_s,
            "recover_s": time.perf_counter() - recover_start,
            "failures": float(len(schedule)),
        }

        totals = recovery.totals()
        return ChurnRow(
            fail_fraction=fraction,
            nodes_failed=len(schedule),
            data_lost_bytes=totals["total_data_lost_bytes"],
            data_regenerated_bytes=totals["total_regenerated_bytes"],
            regenerated_per_failure_mean=totals["mean_regenerated_per_failure"],
            regenerated_per_failure_std=totals["std_regenerated_per_failure"],
            total_data_bytes=total_data,
        )

    def run(self) -> TableResult:
        """Produce the Table 3 rows for every configured failure fraction."""
        table = TableResult(
            title="Table 3 — data lost and regenerated under participant churn",
            columns=[
                "nodes_failed_pct",
                "nodes_failed",
                "data_lost_gb",
                "data_regenerated_gb",
                "regenerated_per_failure_gb_mean",
                "regenerated_per_failure_gb_std",
                "regenerated_per_failure_pct_of_total",
            ],
        )
        for fraction in self.config.fail_fractions:
            row = self._run_fraction(fraction)
            table.add_row(
                nodes_failed_pct=100.0 * row.fail_fraction,
                nodes_failed=row.nodes_failed,
                data_lost_gb=row.data_lost_bytes / GB,
                data_regenerated_gb=row.data_regenerated_bytes / GB,
                regenerated_per_failure_gb_mean=row.regenerated_per_failure_mean / GB,
                regenerated_per_failure_gb_std=row.regenerated_per_failure_std / GB,
                regenerated_per_failure_pct_of_total=row.regenerated_per_failure_pct_of_total,
            )
        return table
