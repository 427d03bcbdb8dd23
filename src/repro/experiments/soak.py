"""Join/leave churn soak: long-horizon dynamics with bounded ledger memory.

The paper's dynamics experiments (Figure 10, Table 3) cover short failure
bursts -- at most 20 % of the population fails once, with no joins and no
returns.  This experiment opens the workload class those results gesture at:
a population under *sustained* churn for simulated weeks, where

* every node alternates exponential up/down sessions, drawn one at a time
  from the ``"sessions"`` stream as each timer is set; a failure triggers the
  Section 4.4 regeneration pipeline, and the node later returns (by default
  with a wiped disk) and re-enters the DHT through the incremental boundary
  *insertion* patch;
* fresh nodes join as a Poisson process (drawing a new id and capacity) --
  a join is O(1) overlay work plus one boundary patch, never an O(N) rebuild;
* nodes depart gracefully as a second Poisson process: with the default
  ``leave_mode="regenerate"`` their blocks are regenerated elsewhere from
  surviving redundancy and their ledger rows are released;
  ``leave_mode="migrate"`` instead *copies the blocks out* before departure
  (:meth:`repro.core.recovery.RecoveryManager.handle_leave`) -- each block
  crosses the network once, over the departing node's uplink, and
  ``tests/test_soak.py`` proves the copies land exactly where regeneration
  would have re-created them;
* an optional per-node bandwidth (``bandwidth_gb_per_hour``) charges every
  repair and migration to the fair-share transfer scheduler of
  :mod:`repro.core.transfer`, turning repairs into timed data movements
  without changing any sampled series (a pure timing overlay);
* the columnar block ledger is compacted periodically
  (:meth:`repro.core.block_ledger.BlockLedger.compact`), garbage-collecting
  the rows that repair re-points, wipes and departures release -- without the
  compaction pass the ledger's columns grow without bound over a week-long
  soak (every repair appends rows), which is exactly the leak the PR 3
  follow-up called out.

Availability, utilization, live population and ledger memory are sampled on a
fixed wall-clock grid.  ``tests/test_soak.py`` asserts the sampled series
equal the seed dict-walk pipeline's (frozen in
``tests/golden/soak_series.json``) and that compaction on vs off is invisible.

Run the paper-scale preset (10 000 nodes, one simulated week)::

    python -m repro.cli soak                  # paper scale, minutes on a core
    python -m repro.cli soak --scale 0.1      # quick look
    python -m repro.cli soak --days 30        # longer horizon
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.storage import StorageSystem
from repro.experiments.base import DeploymentConfig, deploy
from repro.experiments.results import TableResult
from repro.overlay.ids import random_node_id
from repro.overlay.node import OverlayNode
from repro.sim.rng import RandomStreams
from repro.workloads.filetrace import GB, MB

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class SoakConfig(DeploymentConfig):
    """Scaled-down defaults for the join/leave churn soak (time unit: hours).

    ``block_replication`` 2+ keeps every placement alive through single
    departures, which is what makes migration == regeneration an oracle.
    """

    node_count: int = 300
    seed: int = 8
    #: Simulated soak length.
    horizon_hours: float = 7 * HOURS_PER_DAY
    #: Session model: exponential up/down times (availability ~ up/(up+down)).
    mean_uptime_hours: float = 24.0
    mean_downtime_hours: float = 2.0
    #: Poisson rates for fresh-node joins and graceful departures.
    join_rate_per_hour: float = 2.0
    leave_rate_per_hour: float = 2.0
    #: Availability/usage/memory sampling grid.
    sample_every_hours: float = 6.0
    #: Ledger compaction period.
    compact_every_hours: float = 24.0
    #: Whether a returning node comes back with a wiped disk (the conservative
    #: default: long outages lose the disk) or with its blocks intact.
    wipe_on_return: bool = True
    #: Gate for the periodic compaction pass (the soak oracle runs with and
    #: without it to assert compaction never changes observable state).
    compaction: bool = True
    #: How graceful departures move their data: ``"regenerate"`` charges the
    #: Section 4.4 failure pipeline (the node "fails", neighbours regenerate
    #: from surviving redundancy), ``"migrate"`` copies the blocks out over
    #: the departing node's uplink before it leaves
    #: (:meth:`repro.core.recovery.RecoveryManager.handle_leave`).
    leave_mode: str = "regenerate"
    #: Per-node symmetric link capacity in GB per simulated hour charged to
    #: the fair-share transfer scheduler (None = unconstrained links, i.e.
    #: the preserved instantaneous-repair behaviour).
    bandwidth_gb_per_hour: Optional[float] = None


#: The paper-scale soak: 10 000 nodes under one simulated week of session
#: churn plus ~50 joins and ~50 departures per hour.  The file count matches
#: the fig10/table3 presets so the three dynamics workloads share a baseline.
PAPER_SOAK = SoakConfig(
    node_count=10_000,
    file_count=20_000,
    join_rate_per_hour=50.0,
    leave_rate_per_hour=50.0,
)


@dataclass
class SoakResult:
    """Sampled series plus event accounting for one soak run."""

    config: SoakConfig
    time_hours: List[float] = field(default_factory=list)
    live_nodes: List[int] = field(default_factory=list)
    unavailable_pct: List[float] = field(default_factory=list)
    utilization_pct: List[float] = field(default_factory=list)
    #: Ledger sizing per sample.
    ledger_rows: List[int] = field(default_factory=list)
    ledger_live_rows: List[int] = field(default_factory=list)
    ledger_allocated_rows: List[int] = field(default_factory=list)
    ledger_column_bytes: List[int] = field(default_factory=list)
    #: One entry per compaction pass: time plus the compact() stats.
    compactions: List[Dict[str, float]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    recovery_totals: Dict[str, float] = field(default_factory=dict)
    #: Transfer-scheduler aggregates (only when a bandwidth is configured).
    transfer_totals: Dict[str, float] = field(default_factory=dict)
    files_stored: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        """Headline numbers: events, availability, and the memory bound."""
        rows_reclaimed = sum(entry["rows_released"] for entry in self.compactions)
        return {
            "horizon_hours": self.config.horizon_hours,
            "files_stored": float(self.files_stored),
            "failures": float(self.counters.get("failures", 0)),
            "returns": float(self.counters.get("returns", 0)),
            "joins": float(self.counters.get("joins", 0)),
            "leaves": float(self.counters.get("leaves", 0)),
            "final_live_nodes": float(self.live_nodes[-1]) if self.live_nodes else 0.0,
            "final_unavailable_pct": self.unavailable_pct[-1] if self.unavailable_pct else 0.0,
            "max_unavailable_pct": max(self.unavailable_pct) if self.unavailable_pct else 0.0,
            "data_regenerated_gb": self.recovery_totals.get("total_regenerated_bytes", 0.0) / GB,
            "data_migrated_gb": self.recovery_totals.get("total_migrated_bytes", 0.0) / GB,
            "data_lost_gb": self.recovery_totals.get("total_data_lost_bytes", 0.0) / GB,
            "compactions": float(len(self.compactions)),
            "rows_reclaimed": float(rows_reclaimed),
            "peak_ledger_rows": float(max(self.ledger_rows)) if self.ledger_rows else 0.0,
            "peak_live_rows": float(max(self.ledger_live_rows)) if self.ledger_live_rows else 0.0,
            "peak_column_mb": (max(self.ledger_column_bytes) / MB) if self.ledger_column_bytes else 0.0,
        }

    def series_table(self) -> TableResult:
        """The sampled soak series as one aligned table (CLI output)."""
        table = TableResult(
            title="Join/leave churn soak",
            columns=["t_hours", "live_nodes", "unavailable_pct", "utilization_pct",
                     "ledger_rows", "live_rows", "column_mb"],
        )
        for index, t in enumerate(self.time_hours):
            table.add_row(
                t_hours=t,
                live_nodes=self.live_nodes[index],
                unavailable_pct=self.unavailable_pct[index],
                utilization_pct=self.utilization_pct[index],
                ledger_rows=self.ledger_rows[index],
                live_rows=self.ledger_live_rows[index],
                column_mb=self.ledger_column_bytes[index] / MB,
            )
        return table


class SoakExperiment:
    """Runs the join/leave churn soak on the discrete-event kernel."""

    def __init__(self, config: Optional[SoakConfig] = None) -> None:
        self.config = config or SoakConfig()
        #: Final storage system after :meth:`run`, for post-soak oracles
        #: (e.g. the replication-histogram no-decay assertion).
        self.storage: Optional[StorageSystem] = None

    def run(self) -> SoakResult:  # noqa: C901 - one event loop, many small closures
        config = self.config
        streams = RandomStreams(config.seed)
        phase_start = time.perf_counter()
        # The soak clock runs in hours, so the session's "MB per clock unit"
        # is MB per hour: GB/h x 1024 (a power of two, exact in floats).
        bandwidth = config.bandwidth_gb_per_hour
        session, client = deploy(
            config, streams,
            bandwidth_mb_s=None if bandwidth is None else bandwidth * (GB // MB),
        )
        storage = self.storage = client.storage
        distribute_s = time.perf_counter() - phase_start

        dht = session.dht
        network = session.network
        ledger = session.ledger
        sim = session.sim
        transfers = session.transfers
        recovery = session.recovery(client)
        result = SoakResult(config=config, files_stored=len(storage.files))
        counters = {"failures": 0, "returns": 0, "joins": 0, "leaves": 0}

        session_rng = streams.fresh("sessions")
        join_rng = streams.fresh("joins")
        leave_rng = streams.fresh("leaves")
        horizon = config.horizon_hours
        mean_up = config.mean_uptime_hours
        mean_down = config.mean_downtime_hours

        # -- session churn: every node alternates exponential up/down times --
        def schedule_failure(node_id) -> None:
            sim.schedule(session_rng.exponential(mean_up), lambda: fail_node(node_id))

        def fail_node(node_id) -> None:
            if node_id not in network:  # departed while the timer was pending
                return
            counters["failures"] += 1
            recovery.handle_failure(node_id)
            sim.schedule(session_rng.exponential(mean_down), lambda: return_node(node_id))

        def return_node(node_id) -> None:
            if node_id not in network:
                return
            counters["returns"] += 1
            node = network.recover(node_id, wipe=config.wipe_on_return)
            dht.add(node)  # incremental boundary *insertion* patch
            schedule_failure(node_id)

        for node in network.nodes():
            schedule_failure(node.node_id)

        # -- Poisson joins of fresh nodes -----------------------------------
        def schedule_join() -> None:
            if config.join_rate_per_hour > 0:
                sim.schedule(join_rng.exponential(1.0 / config.join_rate_per_hour), do_join)

        def do_join() -> None:
            counters["joins"] += 1
            node_id = random_node_id(join_rng)
            while node_id in network:  # pragma: no cover - negligible probability
                node_id = random_node_id(join_rng)
            capacity = max(1, int(join_rng.normal(config.capacity_mean, config.capacity_std)))
            node = OverlayNode(
                node_id=node_id,
                coordinates=(float(join_rng.uniform(0.0, 1000.0)),
                             float(join_rng.uniform(0.0, 1000.0))),
                capacity=capacity,
            )
            network.join(node)
            dht.add(node)
            schedule_failure(node_id)
            schedule_join()

        schedule_join()

        # -- Poisson graceful departures ------------------------------------
        def schedule_leave() -> None:
            if config.leave_rate_per_hour > 0:
                sim.schedule(leave_rng.exponential(1.0 / config.leave_rate_per_hour), do_leave)

        def do_leave() -> None:
            live = dht.state.nodes
            if len(live) > 2:
                counters["leaves"] += 1
                victim = live[int(leave_rng.integers(len(live)))]
                if config.leave_mode == "migrate":
                    # Graceful migration: the departing node copies its blocks
                    # to the nodes now responsible *before* leaving -- each
                    # block crosses the network once, over its uplink.
                    recovery.handle_leave(victim.node_id)
                else:
                    # Regeneration-style departure (the seed behaviour): the
                    # Section 4.4 failure pipeline re-creates every block from
                    # surviving redundancy, then the node leaves and its
                    # remaining ledger rows are released.
                    recovery.handle_failure(victim.node_id)
                    network.leave(victim.node_id)
            schedule_leave()

        schedule_leave()

        # -- sampling and periodic compaction -------------------------------
        total_files = max(1, len(storage.files))

        def sample() -> None:
            result.time_hours.append(sim.now)
            result.live_nodes.append(len(dht.state))
            result.unavailable_pct.append(100.0 * storage.unavailable_file_count() / total_files)
            result.utilization_pct.append(100.0 * dht.utilization())
            footprint = ledger.memory_footprint()
            result.ledger_rows.append(footprint["row_count"])
            result.ledger_live_rows.append(footprint["live_rows"])
            result.ledger_allocated_rows.append(footprint["allocated_rows"])
            result.ledger_column_bytes.append(footprint["column_bytes"])

        def sample_and_reschedule() -> None:
            sample()
            if sim.now + config.sample_every_hours < horizon:
                sim.schedule(config.sample_every_hours, sample_and_reschedule)

        sample_and_reschedule()

        if config.compaction and config.compact_every_hours > 0:
            def compact_and_reschedule() -> None:
                stats = ledger.compact()
                entry: Dict[str, float] = {"t_hours": sim.now}
                entry.update({key: float(value) for key, value in stats.items()})
                result.compactions.append(entry)
                if sim.now + config.compact_every_hours < horizon:
                    sim.schedule(config.compact_every_hours, compact_and_reschedule)

            sim.schedule(config.compact_every_hours, compact_and_reschedule)

        soak_start = time.perf_counter()
        sim.run(until=horizon)
        sample()  # closing sample at the horizon
        result.counters = counters
        result.recovery_totals = recovery.totals()
        if transfers is not None:
            result.transfer_totals = transfers.summary()
        result.timings = {
            "distribute_s": distribute_s,
            "soak_s": time.perf_counter() - soak_start,
            "events": float(sim.events_processed),
        }
        return result
