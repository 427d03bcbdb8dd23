"""Failure-domain fault panels: availability, data loss, repair under outages.

The paper's robustness story (Fig 10, Table 3) is built from *independent*
node failures.  This experiment subjects the same archive to the correlated
events a deployment actually sees -- injected by
:class:`~repro.sim.faults.FaultInjector` against the discrete-event kernel --
and reports, per scenario, the four durability metrics of the robustness
subsystem:

* **availability** -- unavailable files after the event (and, where repair is
  disabled, the degraded-read vs failed-read census of a sampled read
  workload against the wounded archive);
* **data loss** -- chunks and bytes that fell below the decode threshold;
* **time-to-repair** -- per-failure repair completion times and the overall
  repair makespan under the fair-share transfer scheduler;
* **repair traffic** -- bytes crossing the network to re-protect the data
  (regeneration reads plus replica re-replication copies).

Scenarios, all at the paper's 10 000-node scale on one core: a whole-site
outage (one correlated owner-domain mask over the ledger's int16 domain
columns), a whole-rack outage (round-robin striping makes it loss-free: the
erosion oracle), a 10 % flash-crowd mass failure with and without repair, a
staggered rolling restart (reboots, not disk losses), and a rack outage
repaired while a quarter of the population runs on degraded links.

With ``oversubscription`` set, every panel re-runs behind the two-stage core
model (:func:`repro.core.transfer.oversubscribed_topology`): repair flows
contend on rack-aggregation and site-transit trunks carrying the members'
aggregate access bandwidth divided by the ratio, repair submissions pass a
bounded admission window (``repair_window``, overflow queued FIFO) at a
fair-share ``repair_weight`` below foreground traffic, and the extra
``storm_site_outage`` panel measures recovery-storm isolation: foreground
retrieve probes ride through a whole-site outage and report their p95
latency beside the storm's peak queue depth and trunk utilization.

Run it::

    python -m repro.cli faults                 # paper scale, access-only
    python -m repro.cli faults --oversub 4     # 4:1 oversubscribed core
    python -m repro.cli faults --scale 0.1     # quick look
    python -m repro.cli faults --smoke         # CI tier-1 smoke (seconds)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Optional

from repro.experiments.base import FabricConfig, deploy, read_census, schedule_block_probes, stride_picker
from repro.experiments.results import ScenarioRows, TableResult, render_report
from repro.overlay.network import OverlayNetwork
from repro.overlay.validation import AT_LEAST_1, FRACTION, POSITIVE, OneOf
from repro.sim.faults import FaultInjector
from repro.sim.rng import RandomStreams
from repro.sim.stats import summarize
from repro.workloads.filetrace import GB, MB

#: Scenario keys understood by :meth:`FaultsExperiment._run_scenario`.
SCENARIOS = (
    "site_outage",
    "rack_outage",
    "flash_crowd",
    "flash_crowd_unrepaired",
    "rolling_restart",
    "degraded_rack_outage",
)

#: The finite-core panel set: the six base panels plus the recovery-storm
#: isolation panel (whole-site outage with foreground retrieve probes).
FINITE_CORE_SCENARIOS = SCENARIOS + ("storm_site_outage",)

#: Degraded-repair scenario: this fraction of the population keeps only
#: ``DEGRADE_BANDWIDTH_FRACTION`` of its links while a rack outage repairs.
DEGRADE_NODE_FRACTION = 0.25
DEGRADE_BANDWIDTH_FRACTION = 0.25


@dataclass(frozen=True)
class FaultsConfig(FabricConfig):
    """Defaults for the fault-injection panels (time unit: seconds)."""

    node_count: int = 10_000
    file_count: int = 10_000
    seed: int = 7
    #: Replication target per placement; 2 exercises the re-replication path.
    block_replication: int = 2
    #: Simulated seconds between consecutive per-node repair passes after a
    #: correlated outage (all members are down before the first pass; the
    #: staggering only bounds concurrent repair flows, not the end state).
    repair_spacing_s: float = 5.0
    #: Population fraction downed by the flash-crowd scenarios.
    flash_fraction: float = 0.10
    #: Rolling restart: node *i* of ``restart_count`` reboots at
    #: ``i * restart_interval_s`` and returns ``restart_downtime_s`` later.
    restart_count: int = 10
    restart_interval_s: float = 30.0
    restart_downtime_s: float = 60.0
    #: Files sampled by the post-event read probe (degraded/failed census).
    read_sample: int = 400
    #: Repair QoS knobs: bounded in-flight repair window (``None`` =
    #: unbounded, the seed behaviour; overflow queues FIFO -- backpressure,
    #: never drops) and the repair class's fair-share weight (< 1.0 keeps
    #: re-replication below foreground traffic on every shared link).
    repair_window: Optional[int] = None
    repair_weight: float = 1.0
    #: Foreground retrieve probes issued during ``storm_site_outage`` (one
    #: block read each, weight 1.0), reported as a p95 latency.
    foreground_reads: int = 200
    foreground_period_s: float = 2.0
    scenarios: tuple = SCENARIOS

    RANGES: ClassVar[Dict[str, tuple]] = {
        **FabricConfig.RANGES, "flash_fraction": FRACTION, "restart_downtime_s": POSITIVE,
        "repair_window": AT_LEAST_1, "repair_weight": POSITIVE,
        "scenarios": OneOf(FINITE_CORE_SCENARIOS)}


#: The paper-scale configuration: 10 000 nodes, ~2.4 TB, 16 racks in 4 sites.
PAPER_FAULTS = FaultsConfig()

#: Paper scale behind a 4:1 oversubscribed two-stage core: all six panels
#: re-run with finite trunks plus the recovery-storm isolation panel, repair
#: paced through a 64-transfer admission window at half foreground weight.
FINITE_CORE_FAULTS = replace(
    PAPER_FAULTS,
    oversubscription=4.0,
    repair_window=64,
    repair_weight=0.5,
    scenarios=FINITE_CORE_SCENARIOS,
)

#: Tier-1 smoke scale: every scenario in a few seconds on one core.
SMOKE_FAULTS = FaultsConfig(
    node_count=160,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    file_count=240,
    mean_file_size=10 * MB,
    std_file_size=3 * MB,
    min_file_size=1 * MB,
    repair_spacing_s=0.0,
    restart_count=5,
    restart_interval_s=5.0,
    restart_downtime_s=10.0,
    read_sample=120,
)

#: Smoke scale behind the finite core (the ``faults --smoke --oversub 4``
#: CI variant): every finite-core panel in a few seconds.
SMOKE_FINITE_CORE = replace(
    SMOKE_FAULTS,
    oversubscription=4.0,
    repair_window=16,
    repair_weight=0.5,
    foreground_reads=40,
    foreground_period_s=0.5,
    scenarios=FINITE_CORE_SCENARIOS,
)


@dataclass
class FaultsResult(ScenarioRows):
    """One accounting row per scenario."""

    config: FaultsConfig

    def report(self) -> str:
        """Durability and repair panels, plus the core's when it is finite."""
        config = self.config
        tables = [
            TableResult.from_rows(
                "Fault scenarios — durability "
                f"({config.block_replication}-copy target, "
                f"{config.sites}x{config.racks_per_site} racks)",
                ["scenario", "nodes_down", "rows_killed", "replicas_restored",
                 "regenerated_gb", "lost_gb", "chunks_lost", "availability_pct"],
                self.rows),
            TableResult.from_rows(
                "Fault scenarios — repair timing, traffic and read census "
                f"({config.bandwidth_mb_s:g} MB/s per-node links)",
                ["scenario", "traffic_gb", "mean_ttr_s", "max_ttr_s",
                 "makespan_s", "degraded_reads", "failed_reads", "reads_sampled"],
                self.rows),
        ]
        if config.oversubscription:
            window = "unbounded" if config.repair_window is None else str(config.repair_window)
            tables.append(TableResult.from_rows(
                "Fault scenarios — two-stage core "
                f"({config.oversubscription:g}:1 oversubscription, "
                f"repair window {window}, weight {config.repair_weight:g})",
                ["scenario", "oversub", "trunk_util_pct", "storm_queue_peak",
                 "foreground_reads_done", "foreground_p95_s", "makespan_s"],
                self.rows))
        return render_report(*tables)


class FaultsExperiment:
    """Runs the correlated-failure scenario panels (fresh deployment per cell)."""

    def __init__(self, config: FaultsConfig) -> None:
        self.config = config

    def _inject(self, scenario: str, injector: FaultInjector,
                network: OverlayNetwork) -> None:
        config = self.config
        if scenario in ("site_outage", "storm_site_outage"):
            injector.fail_domain(site=0)
        elif scenario == "rack_outage":
            injector.fail_domain(rack=0)
        elif scenario == "flash_crowd":
            injector.flash_crowd(fraction=config.flash_fraction,
                                 rng=random.Random(config.seed))
        elif scenario == "flash_crowd_unrepaired":
            # No repair: the read probe censuses degraded vs failed reads
            # against the wounded archive.
            injector.flash_crowd(fraction=config.flash_fraction,
                                 rng=random.Random(config.seed), repair=False)
        elif scenario == "rolling_restart":
            victims = [node.node_id
                       for node in network.live_nodes()[: config.restart_count]]
            injector.rolling_restart(victims, interval=config.restart_interval_s,
                                     downtime=config.restart_downtime_s)
        else:  # degraded_rack_outage
            live = sorted(network.live_nodes(), key=lambda node: node.node_id)
            count = max(1, int(len(live) * DEGRADE_NODE_FRACTION))
            stride = max(1, len(live) // count)
            slow = [node.node_id for node in live[::stride][:count]]
            injector.degrade_nodes(slow, fraction=DEGRADE_BANDWIDTH_FRACTION)
            # The outage must repair *through* the degraded links: pick the
            # rack whose stride-selected members were just slowed.
            injector.fail_domain(rack=1)

    def _run_scenario(self, scenario: str) -> Dict[str, float]:
        """One fresh deployment + one injected scenario, drained to quiescence."""
        config = self.config
        streams = RandomStreams(config.seed)
        cell_start = time.perf_counter()
        session, client = deploy(config, streams)
        distribute_s = time.perf_counter() - cell_start

        network = session.network
        storage = client.storage
        sim = session.sim
        transfers = session.transfers
        recovery = session.recovery(client,
                                    repair_window=config.repair_window,
                                    repair_weight=config.repair_weight)
        injector = session.fault_injector(recovery,
                                          repair_spacing=config.repair_spacing_s)

        inject_start = time.perf_counter()
        durations: List[float] = []
        if scenario == "storm_site_outage":
            # Foreground reads riding through the storm at weight 1.0, to
            # stride-picked clients live before the outage.
            durations = schedule_block_probes(
                session, storage, config.foreground_reads, config.foreground_period_s, 0.0,
                stride_picker(network.live_nodes()),
            )
        self._inject(scenario, injector, network)
        sim.run()  # drains staggered restarts and every repair transfer
        inject_s = time.perf_counter() - inject_start

        probe = read_census(storage, self.config.read_sample)
        events = injector.events
        ttrs = summarize(recovery.repair_times())
        summary = transfers.summary()
        unavailable = storage.unavailable_file_count()
        total_files = max(1, len(storage.files))
        histogram = storage.ledger.replication_histogram()
        under_target = float(histogram[1:config.block_replication].sum())
        return {
            "scenario": scenario,
            # Degraded nodes are slowed, not downed: count only real outages.
            "nodes_down": float(sum(event.nodes_affected for event in events
                                    if event.scenario != "degraded_nodes")),
            "rows_killed": float(sum(event.rows_killed for event in events)),
            "replicas_restored": float(sum(e.replicas_restored for e in events)),
            "regenerated_gb": sum(e.bytes_regenerated for e in events) / GB,
            "lost_gb": sum(e.data_bytes_lost for e in events) / GB,
            "chunks_lost": float(sum(e.chunks_lost for e in events)),
            "availability_pct": 100.0 * (1.0 - unavailable / total_files),
            "traffic_gb": summary["bytes_submitted"] / GB,
            "mean_ttr_s": ttrs["avg"],
            "max_ttr_s": ttrs["max"],
            "makespan_s": summary["last_completion_time"],
            "transfers_failed": summary["failed"],
            # Rows left alive but below the replication target after repair
            # (0 = the histogram is back to target for every survivor).
            "under_target_rows": under_target,
            # -- two-stage core panels (all 0 on the access-only model) ------
            "oversub": float(config.oversubscription or 0.0),
            "trunk_util_pct": transfers.peak_trunk_utilization(summary["last_completion_time"]),
            "storm_queue_peak": float(recovery.pacer.peak_queue_depth),
            "foreground_reads_done": float(len(durations)),
            "foreground_p95_s": summarize(durations)["p95"],
            "distribute_s": distribute_s,
            "inject_s": inject_s,
            **probe,
        }

    def run(self) -> FaultsResult:
        """Produce every configured scenario row (fresh deployment per cell)."""
        result = FaultsResult(config=self.config)
        for scenario in self.config.scenarios:
            result.rows.append(self._run_scenario(scenario))
        return result
