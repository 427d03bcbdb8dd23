"""Per-tenant QoS isolation panels: the noisy-neighbor storm suite.

Four tenants share one overlay, one multi-tenant block ledger and one
transfer fabric behind an oversubscribed two-stage core:

* ``archive`` -- the paper's 10 000-node archive corpus, pre-stored; its
  whole-site outage is the *storm*: a repair burst re-protecting every row
  the site held;
* ``medimg``  -- a medical-image archive tenant ingesting per-study frame
  batches (:class:`~repro.workloads.tenants.MedicalIngestProfile`) with
  foreground retrieve probes -- the *victim* whose SLOs must hold;
* ``grid``    -- Condor-style bigcopy staging bursts;
* ``cdn``     -- steady Bullet-style distribution pushes.

Three scenarios on identical deployments and workload timelines:

* ``baseline``       -- no outage: the victim's no-storm ingest throughput
  and retrieve p95;
* ``storm_isolated`` -- site outage with per-tenant QoS on (the archive
  repair class runs at a fair-share weight below 1 and under a hard
  per-tenant bandwidth cap);
* ``storm_open``     -- the same outage with no tenant weights or caps.

The flagship claim (recorded in ``BENCH_tenants.json``): with isolation on,
the victim's ingest throughput stays within 1.5x of its no-storm baseline
while the archive's repair completes through the bounded admission window
(backpressure, never drops); with isolation off it degrades clearly.

Run it::

    python -m repro.cli tenants              # paper scale, 4:1 core
    python -m repro.cli tenants --scale 0.1  # quick look
    python -m repro.cli tenants --smoke      # CI smoke (seconds)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.experiments.base import FabricConfig, deploy, read_census, schedule_block_probes, stride_picker
from repro.experiments.results import ScenarioRows, TableResult, render_report, summary_line
from repro.overlay.validation import AT_LEAST_1, POSITIVE, OneOf
from repro.sim.rng import RandomStreams
from repro.sim.stats import summarize
from repro.workloads.filetrace import GB, MB
from repro.workloads.tenants import (
    BigCopyBurstProfile,
    BulletDistributionProfile,
    MedicalIngestProfile,
)

#: Scenario keys understood by :meth:`TenantsExperiment._run_scenario`.
SCENARIOS = ("baseline", "storm_isolated", "storm_open")

#: Tenant names, in SLO-table order.  ``archive`` is the storm tenant.
TENANTS = ("archive", "medimg", "grid", "cdn")

#: The site whose whole-domain outage is the storm.
STORM_SITE = 0


@dataclass(frozen=True)
class TenantsConfig(FabricConfig):
    """Defaults for the QoS isolation panels (time unit: seconds)."""

    node_count: int = 10_000
    seed: int = 11
    block_replication: int = 2
    #: The archive (storm) tenant's pre-stored corpus.
    file_count: int = 6_000
    #: The flagship runs behind the classic 4:1 core.
    oversubscription: Optional[float] = 4.0
    #: Victim tenant: per-study frame-batch ingest cadence.
    studies: int = 24
    frames_per_study: int = 16
    mean_frame_size: int = 12 * MB
    study_interval_s: float = 30.0
    #: Grid tenant: bigcopy staging bursts.
    bursts: int = 5
    burst_sizes_gb: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    burst_interval_s: float = 120.0
    #: CDN tenant: steady distribution pushes.
    distribution_rounds: int = 40
    distribution_period_s: float = 15.0
    distribution_payload: int = 16 * MB
    #: Victim retrieve probes (one stored-block read each, tenant-tagged).
    probe_reads: int = 200
    probe_period_s: float = 2.0
    #: Post-run degraded/failed read census sample per tenant.
    read_sample: int = 200
    #: The storm: an outage of site ``STORM_SITE`` at this sim time, repaired
    #: with staggered per-node passes through a bounded admission window.
    storm_time_s: float = 60.0
    repair_spacing_s: float = 5.0
    repair_window: Optional[int] = 512
    #: Isolation knobs, applied only in ``storm_isolated``: the storm
    #: tenant's fair-share weight class and hard aggregate bandwidth cap.
    storm_tenant_weight: float = 0.25
    storm_tenant_cap_mb_s: Optional[float] = 512.0
    scenarios: tuple = SCENARIOS

    RANGES: ClassVar[Dict[str, tuple]] = {
        **FabricConfig.RANGES, "mean_frame_size": POSITIVE, "repair_window": AT_LEAST_1,
        "storm_tenant_weight": POSITIVE, "scenarios": OneOf(SCENARIOS)}

    NAME_PREFIX: ClassVar[str] = "archive"
    TENANT: ClassVar[Optional[str]] = TENANTS[0]


#: The paper-scale flagship: 10 000 nodes behind a 4:1 core.
PAPER_TENANTS = TenantsConfig()

#: Tier-1 smoke scale: all three scenarios in seconds on one core.
SMOKE_TENANTS = TenantsConfig(
    node_count=200,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    file_count=160,
    mean_file_size=10 * MB,
    std_file_size=3 * MB,
    min_file_size=1 * MB,
    studies=6,
    frames_per_study=6,
    mean_frame_size=2 * MB,
    study_interval_s=4.0,
    bursts=2,
    burst_sizes_gb=(0.05, 0.1),
    burst_interval_s=10.0,
    distribution_rounds=8,
    distribution_period_s=2.0,
    distribution_payload=2 * MB,
    probe_reads=30,
    probe_period_s=0.5,
    read_sample=60,
    storm_time_s=8.0,
    repair_spacing_s=0.0,
    repair_window=16,
    storm_tenant_cap_mb_s=24.0,
)


@dataclass
class TenantsResult(ScenarioRows):
    """Per-scenario flagship rows plus the per-(scenario, tenant) SLO rows."""

    config: TenantsConfig
    tenant_rows: List[Dict[str, float]] = field(default_factory=list)

    def report(self) -> str:
        """The victim's SLOs across the scenarios, then every tenant's."""
        config = self.config
        cap = ("uncapped" if config.storm_tenant_cap_mb_s is None
               else f"{config.storm_tenant_cap_mb_s:g} MB/s cap")
        return render_report(
            TableResult.from_rows(
                "Noisy-neighbor storm — victim ingest vs archive repair "
                f"({config.oversubscription or 0:g}:1 core, storm weight "
                f"{config.storm_tenant_weight:g}, {cap})",
                ["scenario", "ingest_mb_s", "ingest_slowdown_x", "probe_p95_s",
                 "probe_reads_done", "repair_gb", "repair_makespan_s",
                 "storm_queue_peak", "trunk_util_pct"],
                self.rows),
            TableResult.from_rows(
                "Per-tenant SLOs (availability, bytes moved, backlog, reads, TTR)",
                ["scenario", "tenant", "availability_pct", "stored_gb",
                 "moved_gb", "backlog_gb", "degraded_reads", "failed_reads",
                 "mean_ttr_s", "max_ttr_s"],
                self.tenant_rows),
        ) + "\n" + summary_line("isolation", self.summary())

    def summary(self) -> Dict[str, float]:
        """The headline numbers the benchmark records and asserts on."""
        baseline = self.row("baseline")
        summary = {
            "baseline_ingest_mb_s": baseline["ingest_mb_s"],
            "baseline_probe_p95_s": baseline["probe_p95_s"],
        }
        for scenario in ("storm_isolated", "storm_open"):
            try:
                row = self.row(scenario)
            except KeyError:
                continue
            summary[f"{scenario}_ingest_mb_s"] = row["ingest_mb_s"]
            summary[f"{scenario}_ingest_slowdown_x"] = row["ingest_slowdown_x"]
            summary[f"{scenario}_probe_p95_s"] = row["probe_p95_s"]
            summary[f"{scenario}_repair_gb"] = row["repair_gb"]
            summary[f"{scenario}_repair_makespan_s"] = row["repair_makespan_s"]
            summary[f"{scenario}_storm_backlog_end_gb"] = row["storm_backlog_end_gb"]
        return summary


class TenantsExperiment:
    """Runs the multi-tenant QoS scenarios (fresh shared deployment per cell)."""

    def __init__(self, config: TenantsConfig) -> None:
        self.config = config

    # ---------------------------------------------------------------- scenario --
    def _run_scenario(self, scenario: str) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
        """One fresh deployment: the scenario's flagship row and its tenants' SLO rows.

        The archive tenant's corpus is the deployment's, pre-stored -- the
        storm repairs standing data, it does not ingest it; the other
        tenants' clients share its codec and replication target.
        """
        config = self.config
        streams = RandomStreams(config.seed)
        cell_start = time.perf_counter()
        session, archive = deploy(config, streams)
        clients = {TENANTS[0]: archive}
        for name in TENANTS[1:]:
            clients[name] = session.client(name, codec=archive.storage.codec,
                                           policy=archive.storage.policy)
        network = session.network
        sim = session.sim
        transfers = session.transfers
        stores = {name: handle.storage for name, handle in clients.items()}

        # The victim's ingest SLO tracks its *own* charged transfers (repair
        # traffic shares the tenant tag but must not inflate the metric).
        ingest_done = {"bytes": 0.0, "last": 0.0}

        def observe_ingest(transfer) -> None:
            ingest_done["bytes"] += transfer.size
            ingest_done["last"] = max(ingest_done["last"], transfer.finished_at)

        # Deterministic client nodes *outside* the storm site.
        pick = stride_picker(node for node in network.live_nodes() if node.site != STORM_SITE)
        for ordinal, name in enumerate(TENANTS):
            clients[name].attach(
                client=pick(ordinal).node_id,
                observer=observe_ingest if name == "medimg" else None,
            )

        managers = {
            name: session.recovery(clients[name],
                                   repair_window=config.repair_window)
            for name in TENANTS
        }
        archive_tid = archive.storage.store_tenant
        if scenario == "storm_isolated":
            transfers.set_tenant_weight(archive_tid, config.storm_tenant_weight)
            if config.storm_tenant_cap_mb_s is not None:
                transfers.set_tenant_cap(archive_tid,
                                         config.storm_tenant_cap_mb_s * MB)

        # Workload timelines (identical across scenarios).
        runs = [
            MedicalIngestProfile(
                studies=config.studies,
                frames_per_study=config.frames_per_study,
                mean_frame_size=config.mean_frame_size,
                std_frame_size=max(1, config.mean_frame_size // 2),
                study_interval_s=config.study_interval_s,
            ).schedule(sim, stores["medimg"], streams.fresh("medimg")),
            BigCopyBurstProfile(
                bursts=config.bursts,
                sizes_gb=config.burst_sizes_gb,
                burst_interval_s=config.burst_interval_s,
            ).schedule(sim, stores["grid"], streams.fresh("grid")),
            BulletDistributionProfile(
                rounds=config.distribution_rounds,
                period_s=config.distribution_period_s,
                payload=config.distribution_payload,
            ).schedule(sim, stores["cdn"], transfers, network, streams.fresh("cdn")),
        ]
        # Victim probes start after the first study lands, to one client.
        victim, probe_client = stores["medimg"], pick(2)
        durations = schedule_block_probes(
            session, victim, config.probe_reads, config.probe_period_s,
            config.study_interval_s + config.probe_period_s,
            lambda index: probe_client, tenant=victim.store_tenant,
        )

        # The storm: a whole-site outage repaired by every tenant's manager
        # (the injector drives the archive tenant -- the storm proper -- and
        # the other managers re-protect their own rows on the same cadence).
        injector = session.fault_injector(recovery=managers["archive"],
                                          repair_spacing=config.repair_spacing_s)
        if scenario != "baseline":
            def storm() -> None:
                members = [node for node in network.nodes()
                           if node.alive and node.site == STORM_SITE]
                injector.fail_domain(site=STORM_SITE)
                for index, node in enumerate(members):
                    for name in TENANTS[1:]:
                        sim.schedule(
                            index * config.repair_spacing_s,
                            lambda m=managers[name], n=node.node_id: m.handle_failure(n),
                        )
            sim.schedule(config.storm_time_s, storm)

        sim.run()  # drains ingest, pushes, probes and every repair transfer

        # Post-run: detach before the census so its reads charge nothing.
        for store in stores.values():
            store.transfers = None

        per_tenant = transfers.tenant_summary()
        summary = transfers.summary()
        archive_row = per_tenant.get(archive_tid, {})
        ingest_mb_s = (ingest_done["bytes"] / MB / ingest_done["last"]
                       if ingest_done["last"] > 0 else 0.0)
        row = {
            "scenario": scenario,
            "ingest_mb_s": ingest_mb_s,
            "ingest_slowdown_x": 0.0,  # filled by run() from the baseline row
            "probe_p95_s": summarize(durations)["p95"],
            "probe_reads_done": float(len(durations)),
            "repair_gb": archive_row.get("bytes_completed", 0.0) / GB,
            "repair_makespan_s": archive_row.get("last_completion_time", 0.0),
            "storm_queue_peak": float(max(
                managers[name].pacer.peak_queue_depth for name in TENANTS)),
            "storm_backlog_end_gb": archive_row.get("backlog_bytes", 0.0) / GB,
            "trunk_util_pct": transfers.peak_trunk_utilization(summary["last_completion_time"]),
            "transfers_failed": summary["failed"],
            "makespan_s": summary["last_completion_time"],
            "cell_s": time.perf_counter() - cell_start,
        }
        tenant_rows = []
        for name in TENANTS:
            store = stores[name]
            aggregates = clients[name].aggregates()
            census = read_census(store, config.read_sample)
            moved = per_tenant.get(store.store_tenant, {})
            ttrs = summarize(managers[name].repair_times())
            active = max(1, aggregates["active_files"])
            tenant_rows.append({
                "scenario": scenario,
                "tenant": name,
                "availability_pct": 100.0 * (1.0 - aggregates["unavailable_files"] / active),
                "stored_gb": aggregates["stored_data_bytes"] / GB,
                "moved_gb": moved.get("bytes_completed", 0.0) / GB,
                "backlog_gb": moved.get("backlog_bytes", 0.0) / GB,
                "transfers_failed": moved.get("failed", 0.0),
                "mean_ttr_s": ttrs["avg"],
                "max_ttr_s": ttrs["max"],
                **census,
            })
        return row, tenant_rows

    def run(self) -> TenantsResult:
        """Produce every configured scenario (fresh shared deployment per cell)."""
        result = TenantsResult(config=self.config)
        for scenario in self.config.scenarios:
            row, tenant_rows = self._run_scenario(scenario)
            result.rows.append(row)
            result.tenant_rows.extend(tenant_rows)
        try:
            baseline = result.row("baseline")["ingest_mb_s"]
        except KeyError:
            baseline = 0.0
        for row in result.rows:
            row["ingest_slowdown_x"] = (baseline / row["ingest_mb_s"]
                                        if row["ingest_mb_s"] > 0 else 0.0)
        return result
