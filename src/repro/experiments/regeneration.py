"""Bandwidth-aware repair: time-to-repair, repair traffic, and migration.

Section 6.2 of the paper inserts "a recovery delay proportional to the amount
of data that has to be regenerated" but never resolves *where* that delay
comes from.  This experiment derives it from first principles: every node
gets an uplink/downlink capacity, every repair charges its reads and writes
to the fair-share transfer scheduler of :mod:`repro.core.transfer`, and the
reported delays are emergent completion times -- regenerating one lost block
of size ``B`` in a ``(required, m)`` code reads ``required`` surviving blocks
(``required x B`` bytes converging on the regenerating node's downlink),
while gracefully *migrating* a block moves it once (``B`` bytes over the
departing node's uplink).

Three panels, all at the paper's 10 000-node scale on one core:

1. **Failure-fraction sweep** -- fail 2/5/10 % of the population one by one
   (the Table 3 methodology) at a fixed per-node bandwidth and report
   aggregate repair traffic, the mean/p95 per-failure time-to-repair and the
   repair makespan.  Both traffic and makespan are monotone in the failure
   fraction (asserted by ``benchmarks/test_bench_repair.py``).
2. **Bandwidth sweep** -- the same failure burst at several per-node link
   capacities; per-failure repair time scales inversely with bandwidth until
   spacing decouples the repairs.
3. **Migration-vs-regeneration ablation** -- the same node set departs
   *gracefully*: once through the regeneration pipeline (the node "fails",
   neighbours rebuild from surviving redundancy) and once through
   :meth:`~repro.core.recovery.RecoveryManager.handle_leave` (blocks are
   copied out before departure).  Migration moves the bytes once instead of
   reading ``required`` surviving blocks per lost block, and -- under
   capacity pressure or thin redundancy -- can save blocks of chunks that
   already fell below the decode threshold, which regeneration never can.

Run it::

    python -m repro.cli repair                 # paper scale, ~2 min on a core
    python -m repro.cli repair --scale 0.1     # quick look
    python -m repro.cli repair --bandwidth 4   # slower links
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.base import DeploymentConfig, deploy
from repro.experiments.results import TableResult, render_report
from repro.sim.churn import FailureSchedule
from repro.sim.rng import RandomStreams
from repro.sim.stats import summarize
from repro.workloads.filetrace import GB


@dataclass(frozen=True)
class RepairConfig(DeploymentConfig):
    """Defaults for the bandwidth-aware repair experiment (time unit: seconds)."""

    node_count: int = 10_000
    file_count: int = 10_000
    seed: int = 7
    #: Failure fractions for the time-to-repair curve (sweep panel).
    fail_fractions: tuple = (0.02, 0.05, 0.10)
    #: Per-node symmetric link capacity (MB per simulated second) used by the
    #: fraction sweep and the ablation panel.
    bandwidth_mb_s: float = 8.0
    #: Link capacities for the bandwidth-sweep panel (run at the middle
    #: failure fraction).
    bandwidth_sweep_mb_s: tuple = (4.0, 8.0, 16.0)
    #: Simulated seconds between consecutive failures/departures.
    failure_spacing_s: float = 5.0
    #: Fraction of the population departing gracefully in the ablation panel.
    leave_fraction: float = 0.05


#: The paper-scale configuration: 10 000 nodes, ~2.4 TB distributed.
PAPER_REPAIR = RepairConfig()


@dataclass
class RepairResult:
    """The three panels plus per-cell wall-clock timings."""

    config: RepairConfig
    fraction_rows: List[Dict[str, float]] = field(default_factory=list)
    bandwidth_rows: List[Dict[str, float]] = field(default_factory=list)
    ablation_rows: List[Dict[str, float]] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        """Repair vs failure fraction and vs bandwidth, then the departure ablation."""
        config = self.config
        middle = config.fail_fractions[len(config.fail_fractions) // 2]
        return render_report(
            TableResult.from_rows(
                "Time-to-repair and repair traffic vs failure fraction "
                f"({config.bandwidth_mb_s:g} MB/s per-node links)",
                ["fail_pct", "failures", "regenerated_gb", "lost_gb",
                 "traffic_gb", "mean_ttr_s", "p95_ttr_s", "makespan_s"],
                self.fraction_rows),
            TableResult.from_rows(
                f"Time-to-repair vs per-node bandwidth ({100 * middle:g} % failed)",
                ["bandwidth_mb_s", "traffic_gb", "mean_ttr_s", "p95_ttr_s", "makespan_s"],
                self.bandwidth_rows),
            TableResult.from_rows(
                f"Graceful departure of {100 * config.leave_fraction:g} % of nodes: "
                "migration vs regeneration",
                ["mode", "moved_gb", "traffic_gb", "lost_gb", "mean_ttr_s", "makespan_s"],
                self.ablation_rows))


class RepairExperiment:
    """Runs the bandwidth-aware repair panels on the discrete-event kernel."""

    def __init__(self, config: RepairConfig) -> None:
        self.config = config

    def _run_cell(self, fraction: float, bandwidth_mb_s: float, mode: str) -> Dict[str, float]:
        """One fresh distribution + one churn burst under one bandwidth.

        ``mode``: ``"fail"`` (abrupt failures + regeneration),
        ``"leave-regenerate"`` (graceful departures charged through the
        failure pipeline) or ``"leave-migrate"`` (copy-out migration).
        """
        config = self.config
        streams = RandomStreams(config.seed)
        cell_start = time.perf_counter()
        session, client = deploy(config, streams, bandwidth_mb_s=bandwidth_mb_s)
        distribute_s = time.perf_counter() - cell_start

        sim = session.sim
        transfers = session.transfers
        recovery = session.recovery(client)
        network = session.network
        schedule = FailureSchedule(
            network.live_ids(),
            fraction,
            rng=streams.fresh("failures", fraction),
            spacing=config.failure_spacing_s,
        )

        def fail(event) -> None:
            recovery.handle_failure(event.node_id)

        def leave_regenerate(event) -> None:
            recovery.handle_failure(event.node_id)
            network.leave(event.node_id)

        def leave_migrate(event) -> None:
            recovery.handle_leave(event.node_id)

        action = {"fail": fail, "leave-regenerate": leave_regenerate,
                  "leave-migrate": leave_migrate}[mode]
        for event in schedule:
            sim.schedule(event.time, lambda event=event: action(event))
        churn_start = time.perf_counter()
        sim.run()  # drains every repair transfer
        churn_s = time.perf_counter() - churn_start

        totals = recovery.totals()
        ttrs = summarize(recovery.repair_times())
        summary = transfers.summary()
        return {
            "fail_pct": 100.0 * fraction,
            "failures": float(len(schedule)),
            "bandwidth_mb_s": bandwidth_mb_s,
            "regenerated_gb": totals["total_regenerated_bytes"] / GB,
            "migrated_gb": totals["total_migrated_bytes"] / GB,
            "moved_gb": (totals["total_regenerated_bytes"]
                         + totals["total_migrated_bytes"]) / GB,
            "lost_gb": totals["total_data_lost_bytes"] / GB,
            "traffic_gb": summary["bytes_submitted"] / GB,
            "mean_ttr_s": ttrs["avg"],
            "p95_ttr_s": ttrs["p95"],
            "makespan_s": summary["last_completion_time"],
            "transfers": summary["submitted"],
            "distribute_s": distribute_s,
            "churn_s": churn_s,
        }

    def run(self) -> RepairResult:
        """Produce all three panels (fresh distribution per cell)."""
        config = self.config
        result = RepairResult(config=config)
        start = time.perf_counter()
        for fraction in config.fail_fractions:
            result.fraction_rows.append(
                self._run_cell(fraction, config.bandwidth_mb_s, "fail")
            )
        middle = config.fail_fractions[len(config.fail_fractions) // 2]
        for bandwidth in config.bandwidth_sweep_mb_s:
            if bandwidth == config.bandwidth_mb_s:
                # The sweep's middle cell already ran at this bandwidth.
                match = next(
                    (row for row in result.fraction_rows
                     if row["fail_pct"] == 100.0 * middle), None,
                )
                if match is not None:
                    result.bandwidth_rows.append(match)
                    continue
            result.bandwidth_rows.append(self._run_cell(middle, bandwidth, "fail"))
        for mode in ("leave-regenerate", "leave-migrate"):
            row = self._run_cell(config.leave_fraction, config.bandwidth_mb_s, mode)
            row["mode"] = "regenerate" if mode == "leave-regenerate" else "migrate"
            result.ablation_rows.append(row)
        result.timings = {
            "total_s": time.perf_counter() - start,
            "cells": float(
                len(result.fraction_rows) + len(result.ablation_rows)
                + sum(1 for row in result.bandwidth_rows
                      if row["bandwidth_mb_s"] != config.bandwidth_mb_s)
            ),
        }
        return result
