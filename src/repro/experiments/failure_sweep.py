"""One failure sweep: Figure 10, Table 3 and the bandwidth-aware repair panels.

Section 6.2 of the paper runs one experiment three ways: distribute the trace,
fail randomly chosen nodes one by one, and measure what survives.  Every cell
of every panel here is that loop (:func:`_cell`): a fresh
:func:`~repro.experiments.base.deploy`, one
:class:`~repro.sim.churn.FailureSchedule`, every failure on the session clock,
``session.run()``, one measurement record.  The repair bandwidth
(``bandwidth_mb_s``, per node, MB per simulated second) selects what a
failure does:

* ``0`` -- no repair (Figure 10, :data:`PAPER_FIG10`).  The node fails and
  nothing is regenerated; every ``len(schedule) // sample_points`` failures
  the curve samples the ledger's O(1) unavailable-file counter (a file is
  available only if *every* chunk can still be decoded).  One curve per
  coding -- none, the (2,3) XOR code, and an online code that "could
  tolerate two simultaneous failures per chunk" -- at the largest fraction,
  whose failure axis passes through every smaller one.
* ``math.inf`` -- instantaneous repair (Table 3, :data:`PAPER_TABLE3`).
  :meth:`~repro.core.recovery.RecoveryManager.handle_failure` regenerates the
  failed node's blocks on its neighbours at failure time, before the next node
  fails; the rows report data lost, data regenerated and the mean/standard
  deviation of the data regenerated per failure.  GAP: the paper's model also
  inserts a recovery delay proportional to the data being regenerated, so
  consecutive failures can overlap in-flight recoveries; instantaneous repair
  does not model that overlap (a finite bandwidth times repair on the fabric
  instead).
* finite -- repair on the fair-share transfer fabric of
  :mod:`repro.core.transfer` (the ``repair`` extension, :data:`PAPER_REPAIR`),
  which derives the paper's recovery delay instead of inserting it: every node
  gets an uplink/downlink capacity and the reported delays are emergent
  completion times.  Regenerating one lost block of size ``B`` in a
  ``(required, m)`` code reads ``required`` surviving blocks (``required x B``
  bytes converging on the regenerating node's downlink); migrating a block
  moves it once (``B`` bytes over the departing node's uplink).  Three panels:
  the failure-fraction sweep (repair traffic, mean/p95 time-to-repair,
  makespan), the same burst at each of ``bandwidth_sweep_mb_s`` at the middle
  fraction, and the departure ablation -- ``leave_fraction`` of the nodes
  leave gracefully, once regenerated from surviving redundancy and once
  migrated out by :meth:`~repro.core.recovery.RecoveryManager.handle_leave`.

At the paper's scale every store goes through the batched lookup kernels,
each failure is one mask over the ledger's owner column and each decodability
check an O(1) counter read, which makes the 10 000-node configurations run in
minutes on one core::

    python -m repro.cli fig10                 # Figure 10 at paper scale
    python -m repro.cli table3 --scale 0.1    # Table 3 at 1 000 nodes
    python -m repro.cli repair --bandwidth 4  # the repair panels, slower links

The seed pipeline's curves and rows are frozen in
``tests/golden/fig10_curves.json`` and ``tests/golden/table3_rows.json``
(``tests/test_churn_equivalence.py``), the repair panels' rows in
``tests/golden/experiment_rows.json``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Dict, List, Optional

from repro.erasure.base import CodeSpec
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.base import DeploymentConfig, deploy
from repro.experiments.results import Series, TableResult, format_series_table, render_report
from repro.overlay.validation import AT_LEAST_1, CLOSED_FRACTION
from repro.sim.churn import FailureSchedule
from repro.sim.rng import RandomStreams
from repro.sim.stats import summarize
from repro.workloads.filetrace import GB


class _SpecOnlyCode(NullCode):
    """A code used only for capacity simulation: counts come from a fixed spec.

    The sweep never touches payloads; what matters is how many encoded blocks
    each chunk is spread over and how many losses it tolerates.  The paper's
    online-code configuration "could tolerate two simultaneous failures per
    chunk", which this wrapper expresses directly.
    """

    def __init__(self, spec: CodeSpec) -> None:
        self._spec = spec
        self.name = spec.name

    def spec(self, n_blocks: int) -> CodeSpec:  # noqa: D102 - interface impl
        return self._spec


@dataclass(frozen=True)
class FailureSweepConfig(DeploymentConfig):
    """One failure sweep (time unit: seconds); the presets below are the paper's runs."""

    #: Fractions of the population failed one by one, a fresh deployment each.
    fail_fractions: tuple = (0.10,)
    #: Points sampled along Figure 10's failure axis.
    sample_points: int = 20
    #: Per-node link capacity repair runs at, MB per simulated second:
    #: 0 = no repair, ``math.inf`` = instantaneous repair.
    bandwidth_mb_s: float = 0.0
    #: Link capacities of the bandwidth panel (run at the middle fraction).
    bandwidth_sweep_mb_s: tuple = ()
    #: Simulated seconds between consecutive failures/departures.
    failure_spacing_s: float = 5.0
    #: Fraction of the population departing gracefully in the ablation
    #: panel (0 = no ablation).
    leave_fraction: float = 0.0

    RANGES: ClassVar[Dict[str, tuple]] = {
        **DeploymentConfig.RANGES, "fail_fractions": CLOSED_FRACTION,
        "leave_fraction": CLOSED_FRACTION, "sample_points": AT_LEAST_1,
        "bandwidth_mb_s": (0, math.inf, "[]")}

    def __post_init__(self) -> None:
        if not self.fail_fractions:
            raise ValueError("fail_fractions must name at least one fraction")
        super().__post_init__()


#: Figure 10: 10 000 nodes, 10 % failed one by one, no repair.  The file count
#: keeps the distribution to a couple of minutes on one core while preserving
#: the figure's comparison (``--files N`` raises it towards the paper's trace).
PAPER_FIG10 = FailureSweepConfig(node_count=10_000, file_count=20_000, seed=2)
#: Table 3: 10 000 nodes, 10 % then 20 % failed, every failure repaired at once.
PAPER_TABLE3 = FailureSweepConfig(node_count=10_000, file_count=20_000, seed=4,
                                  fail_fractions=(0.10, 0.20), bandwidth_mb_s=math.inf)
#: The repair extension: 10 000 nodes (~2.4 TB distributed) on 8 MB/s links.
PAPER_REPAIR = FailureSweepConfig(node_count=10_000, file_count=10_000, seed=7,
                                  fail_fractions=(0.02, 0.05, 0.10), bandwidth_mb_s=8.0,
                                  bandwidth_sweep_mb_s=(4.0, 8.0, 16.0), leave_fraction=0.05)

#: Table 3's per-failure columns, measured only by a repair without a fabric.
_PER_FAILURE = ("regenerated_per_failure_gb_mean", "regenerated_per_failure_gb_std",
                "regenerated_per_failure_pct_of_total")
_TABLE3_COLUMNS = ["nodes_failed_pct", "nodes_failed", "data_lost_gb", "data_regenerated_gb",
                   *_PER_FAILURE]


def _codings(blocks: int) -> Dict[str, ChunkCodec]:
    """Figure 10's codings, by curve label."""
    online = CodeSpec(name="online", input_blocks=blocks, output_blocks=blocks + 3,
                      loss_tolerance=2, size_overhead=0.03)
    return {
        "No error code": ChunkCodec(NullCode(), blocks_per_chunk=1),
        "XOR code": ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=blocks),
        "Online code": ChunkCodec(_SpecOnlyCode(online), blocks_per_chunk=blocks),
    }


def _cell(config: FailureSweepConfig, fraction: float, bandwidth: float, label: object,
          codec: Optional[ChunkCodec] = None, departure: Optional[str] = None) -> Dict[str, object]:
    """One deployment, one failure burst at ``bandwidth``, one measurement record.

    ``label`` keys the failure stream: the coding for Figure 10's cells, the
    fraction otherwise (the labels the frozen curves and rows were drawn with).
    ``departure`` makes each failure a graceful departure, charged through
    the failure pipeline (``"regenerate"``) or migrated out (``"migrate"``).
    """
    streams = RandomStreams(config.seed)
    start = time.perf_counter()
    fabric = {} if bandwidth in (0.0, math.inf) else {"bandwidth_mb_s": bandwidth}
    session, client = deploy(config, streams, codec=codec, **fabric)
    distribute_s = time.perf_counter() - start
    network, recovery = session.network, session.recovery(client)
    stored = float(client.storage.stored_bytes())
    schedule = FailureSchedule(network.live_ids(), fraction, rng=streams.fresh("failures", label),
                               spacing=config.failure_spacing_s)

    if bandwidth == 0.0:
        curve, files = Series(label=label), client.file_count
        curve.append(0, 0.0)
        every = max(1, len(schedule) // config.sample_points)

        def act(event) -> None:
            if network.node(event.node_id).alive:
                network.fail(event.node_id)  # the ledger hears it; nothing is repaired
            failed = event.order + 1
            if failed % every == 0 or failed == len(schedule):
                unavailable = session.ledger.unavailable_count
                curve.append(failed, 100.0 * unavailable / files if files else 0.0)
    elif departure == "migrate":
        def act(event) -> None:
            recovery.handle_leave(event.node_id)
    else:
        def act(event) -> None:
            recovery.handle_failure(event.node_id)
            if departure == "regenerate":
                network.leave(event.node_id)

    for event in schedule:
        session.sim.schedule(event.time, partial(act, event))
    start = time.perf_counter()
    session.run()  # drains every repair transfer
    churn_s = time.perf_counter() - start

    record: Dict[str, object] = {"fail_pct": 100.0 * fraction, "failures": float(len(schedule)),
                                 "bandwidth_mb_s": bandwidth}
    if bandwidth == 0.0:
        record["curve"] = curve
    else:
        totals = recovery.totals()
        regenerated, migrated = totals["total_regenerated_bytes"], totals["total_migrated_bytes"]
        record.update(regenerated_gb=regenerated / GB, migrated_gb=migrated / GB,
                      moved_gb=(regenerated + migrated) / GB,
                      lost_gb=totals["total_data_lost_bytes"] / GB)
        if session.transfers is None:
            # A repair without a fabric takes no time: its per-failure cost is bytes.
            mean = totals["mean_regenerated_per_failure"]
            record.update(regenerated_per_failure_gb_mean=mean / GB,
                          regenerated_per_failure_gb_std=totals["std_regenerated_per_failure"] / GB,
                          regenerated_per_failure_pct_of_total=100.0 * mean / stored if stored else 0.0)
        else:
            ttrs, summary = summarize(recovery.repair_times()), session.transfers.summary()
            record.update(traffic_gb=summary["bytes_submitted"] / GB, mean_ttr_s=ttrs["avg"],
                          p95_ttr_s=ttrs["p95"], makespan_s=summary["last_completion_time"],
                          transfers=summary["submitted"])
    if departure is not None:
        record["mode"] = departure
    record.update(distribute_s=distribute_s, churn_s=churn_s)
    return record


@dataclass
class FailureSweepResult:
    """Each panel's cell records, in run order; ``report()`` prints the preset's tables."""

    config: FailureSweepConfig
    fraction_rows: List[Dict[str, object]] = field(default_factory=list)
    bandwidth_rows: List[Dict[str, object]] = field(default_factory=list)
    ablation_rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def curves(self) -> Dict[str, Series]:
        """Figure 10: one series per coding, x = failed nodes, y = % of files unavailable."""
        return {row["curve"].label: row["curve"] for row in self.fraction_rows}

    @property
    def table(self) -> TableResult:
        """Table 3: one row per failure fraction, repaired instantly."""
        table = TableResult("Table 3 — data lost and regenerated under participant churn",
                            _TABLE3_COLUMNS)
        for row in self.fraction_rows:
            table.add_row(nodes_failed_pct=row["fail_pct"], nodes_failed=int(row["failures"]),
                          data_lost_gb=row["lost_gb"], data_regenerated_gb=row["regenerated_gb"],
                          **{column: row[column] for column in _PER_FAILURE})
        return table

    def report(self) -> str:
        """Figure 10's curves, Table 3, or the three repair panels, by repair bandwidth."""
        config = self.config
        if config.bandwidth_mb_s == 0.0:
            return (f"Figure 10 — unavailable files (%) vs failed nodes "
                    f"({config.node_count} nodes, {config.file_count} files, "
                    f"{max(config.fail_fractions):.0%} failed, columnar ledger)\n"
                    + format_series_table(list(self.curves.values()), x_label="failed_nodes"))
        if config.bandwidth_mb_s == math.inf:
            return self.table.format()
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


class FailureSweepExperiment:
    """Runs the fraction panel, then the bandwidth and ablation panels the config asks for."""

    def __init__(self, config: FailureSweepConfig) -> None:
        self.config = config

    def run(self) -> FailureSweepResult:
        """One fresh deployment per cell."""
        config = self.config
        bandwidth = config.bandwidth_mb_s
        result = FailureSweepResult(config)
        if bandwidth == 0.0:
            fraction = max(config.fail_fractions)
            result.fraction_rows = [_cell(config, fraction, bandwidth, label, codec)
                                    for label, codec in _codings(config.blocks_per_chunk).items()]
        else:
            result.fraction_rows = [_cell(config, fraction, bandwidth, fraction)
                                    for fraction in config.fail_fractions]
        middle = config.fail_fractions[len(config.fail_fractions) // 2]
        for sweep in config.bandwidth_sweep_mb_s:
            # The fraction panel's middle cell already ran at the configured bandwidth.
            ran = [row for row in result.fraction_rows
                   if sweep == bandwidth and row["fail_pct"] == 100.0 * middle]
            result.bandwidth_rows.append(ran[0] if ran else _cell(config, middle, sweep, middle))
        if config.leave_fraction:
            result.ablation_rows = [
                _cell(config, config.leave_fraction, bandwidth, config.leave_fraction,
                      departure=mode)
                for mode in ("regenerate", "migrate")]
        return result
