"""Failure-domain fault injection and durability-grade repair oracles.

The load-bearing oracle: a whole-site outage injected through the ledger's
one-mask domain kill must produce *identical* end state -- availability,
replication histogram, placements, per-node usage -- to the equivalent
sequence of scalar per-node failures, and with repair enabled the
post-repair replication-level histogram must return to the configured
target (the erosion bug the re-replication path closes).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.api import ClusterSession
from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.core.transfer import NetworkTopology, TransferScheduler, oversubscribed_topology
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, assign_domains
from repro.workloads.filetrace import MB, FileTraceConfig, generate_file_trace

TARGET_REPLICATION = 2


def _deployment(seed=7, node_count=48, file_count=60, sites=3, racks_per_site=2,
                assign_before=True):
    """A deployment with failure domains and 2-way replication."""
    rng = np.random.default_rng(seed)
    capacities = [max(int(c), 32 * MB) for c in rng.normal(150 * MB, 30 * MB, size=node_count)]
    network = OverlayNetwork.build(
        node_count,
        np.random.default_rng(seed + 1),
        capacities=capacities,
    )
    if assign_before:
        assign_domains(network.nodes(), sites=sites, racks_per_site=racks_per_site)
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=TARGET_REPLICATION),
    )
    trace = generate_file_trace(
        FileTraceConfig(file_count=file_count, mean_size=10 * MB, std_size=3 * MB, min_size=1 * MB),
        rng=np.random.default_rng(seed + 2),
    )
    for record in trace:
        storage.store_file(record.name, record.size)
    return network, storage, RecoveryManager(storage)


def _placements_snapshot(storage: StorageSystem):
    return {
        name: [
            (chunk.chunk_no, [
                (p.block_name, p.node_id, p.size, tuple(sorted(map(int, p.replica_nodes))))
                for p in chunk.placements
            ])
            for chunk in stored.chunks
        ]
        for name, stored in storage.files.items()
    }


# ------------------------------------------------------------------ domains --
def test_assign_domains_is_deterministic_and_rng_free():
    rng_before = np.random.default_rng(3)
    network = OverlayNetwork.build(24, np.random.default_rng(3))
    reference = OverlayNetwork.build(24, np.random.default_rng(3))
    assign_domains(network.nodes(), sites=2, racks_per_site=3)
    # Identical population: domain assignment never consumes the build RNG.
    assert [n.node_id for n in network.nodes()] == [
        n.node_id for n in reference.nodes()
    ]
    for node in network.nodes():
        assert 0 <= node.site < 2
        assert node.site == node.rack // 3
    # Deterministic: a rebuilt population gets byte-identical domains.
    assign_domains(reference.nodes(), sites=2, racks_per_site=3)
    assert [(n.site, n.rack) for n in network.nodes()] == [
        (n.site, n.rack) for n in reference.nodes()
    ]


def test_fault_injector_resolves_failure_domains():
    network = OverlayNetwork.build(30, np.random.default_rng(5))
    assign_domains(network.nodes(), sites=2, racks_per_site=2)
    injector = FaultInjector(Simulator(), network)
    rack = injector.fail_domain(rack=2, repair=False)
    down = [node for node in network.nodes() if not node.alive]
    assert down and all(node.rack == 2 for node in down)
    assert rack.nodes_affected == len(down)
    # Site 1 holds racks 2 and 3; only the still-live rack-3 nodes are new casualties.
    site = injector.fail_domain(site=1, repair=False)
    assert site.nodes_affected == sum(1 for node in network.nodes() if node.rack == 3)
    assert all(node.alive == (node.site == 0) for node in network.nodes())
    with pytest.raises(ValueError):
        injector.fail_domain()


@pytest.mark.parametrize("build", [
    lambda network: NetworkTopology.from_nodes(network.nodes(), inter_site_latency=math.nan),
    lambda network: NetworkTopology.from_nodes(network.nodes(), inter_site_latency=math.inf),
    lambda network: FaultInjector(Simulator(), network, repair_spacing=math.nan),
    lambda network: FaultInjector(Simulator(), network, repair_spacing=math.inf),
], ids=["nan latency", "inf latency", "nan repair spacing", "inf repair spacing"])
def test_non_finite_timing_is_rejected_at_construction(build):
    """A NaN or infinite delay would otherwise surface mid-run: as no latency
    at all, or as a raise after a submission was counted or a site was downed."""
    network = OverlayNetwork.build(8, np.random.default_rng(5))
    assign_domains(network.nodes(), sites=2, racks_per_site=1)
    with pytest.raises(ValueError):
        build(network)


@pytest.mark.parametrize("build", [
    lambda network: oversubscribed_topology(network.nodes(), 8 * MB, math.nan),
    lambda network: oversubscribed_topology(network.nodes(), 8 * MB, math.inf),
    lambda network: oversubscribed_topology(network.nodes(), math.inf, 4.0),
    lambda network: ClusterSession(60, sites=2, racks_per_site=2, bandwidth_mb_s=8,
                                   oversubscription=math.nan),
    lambda network: ClusterSession(60, sites=2, racks_per_site=2, bandwidth_mb_s=8,
                                   oversubscription=math.inf),
    lambda network: TransferScheduler(Simulator(), topology=_with_trunk(network, math.nan)),
    lambda network: StoragePolicy(min_chunk_size=math.nan),
    lambda network: StoragePolicy(max_chunk_size=math.nan),
    lambda network: StoragePolicy(max_chunk_size=math.inf),
], ids=["nan ratio", "inf ratio", "inf access bandwidth", "nan session ratio",
        "inf session ratio", "nan trunk copied by the scheduler", "nan min chunk",
        "nan max chunk", "inf max chunk"])
def test_non_finite_ratios_and_bounds_are_rejected_at_construction(build):
    """A NaN ratio would put NaN into the trunk capacities, an infinite one
    would partition every trunk, and a NaN chunk bound would act as no bound."""
    network = OverlayNetwork.build(8, np.random.default_rng(5))
    assign_domains(network.nodes(), sites=2, racks_per_site=2)
    with pytest.raises(ValueError):
        build(network)


def _with_trunk(network, capacity):
    """A built topology with one per-domain trunk overwritten."""
    topology = oversubscribed_topology(network.nodes(), 8 * MB, 4.0)
    topology.trunks[next(iter(topology.trunks))] = capacity
    return topology


# --------------------------------------------------------- correlated oracle --
def test_site_outage_mask_equals_scalar_failure_sequence():
    """One-mask domain kill == N scalar failures, end state for end state."""
    net_mask, st_mask, mgr_mask = _deployment(seed=7)
    net_scalar, st_scalar, mgr_scalar = _deployment(seed=7)

    injector = FaultInjector(Simulator(), net_mask, recovery=mgr_mask)
    event = injector.fail_domain(site=0)
    assert event.rows_killed > 0
    assert event.nodes_affected > 0

    # The equivalent scalar sequence: every member fails (per-node listener
    # sweeps), then the same per-node repair passes in the same order.
    members = [n for n in net_scalar.nodes() if n.alive and n.site == 0]
    assert len(members) == event.nodes_affected
    for node in members:
        net_scalar.fail(node.node_id)
    for node in members:
        mgr_scalar.handle_failure(node.node_id)

    assert st_mask.unavailable_file_count() == st_scalar.unavailable_file_count()
    np.testing.assert_array_equal(
        st_mask.ledger.replication_histogram(), st_scalar.ledger.replication_histogram()
    )
    assert _placements_snapshot(st_mask) == _placements_snapshot(st_scalar)
    for name in st_mask.files:
        assert st_mask.is_file_available(name) == st_scalar.is_file_available(name), name
    usage_mask = [(n.node_id, n.used) for n in net_mask.live_nodes()]
    usage_scalar = [(n.node_id, n.used) for n in net_scalar.live_nodes()]
    assert usage_mask == usage_scalar


def test_rack_outage_repair_restores_replication_target():
    """Post-repair histogram returns to the configured target: no erosion."""
    network, storage, manager = _deployment(seed=11)
    ledger = storage.ledger
    assert ledger.placements_below(TARGET_REPLICATION) == 0
    injector = FaultInjector(Simulator(), network, recovery=manager)

    event = injector.fail_domain(rack=3)
    assert event.nodes_affected > 0
    # Round-robin striping keeps a placement's copies in distinct racks, so a
    # single-rack outage never kills every copy of a block: zero data loss...
    assert event.data_bytes_lost == 0
    assert event.replicas_restored > 0
    # ...and repair re-replicates every eroded placement back to target.
    assert ledger.placements_below(TARGET_REPLICATION) == 0
    assert storage.unavailable_file_count() == 0


def test_replica_loss_does_not_repoint_primary():
    """Killing a replica holder re-replicates; the primary stays in place."""
    network, storage, manager = _deployment(seed=13, file_count=20)
    chunk = next(
        chunk
        for stored in storage.files.values()
        for chunk in stored.data_chunks()
        if chunk.placements and chunk.placements[0].replica_nodes
    )
    placement = chunk.placements[0]
    primary = placement.node_id
    victim = placement.replica_nodes[0]
    manager.handle_failure(victim)
    after = chunk.placements[0]
    assert after.node_id == primary
    assert victim not in after.replica_nodes
    assert len(after.replica_nodes) == len(placement.replica_nodes)
    assert storage.ledger.placements_below(TARGET_REPLICATION) == 0


def test_staggered_repair_matches_synchronous_end_state():
    """repair_spacing staggers the passes on the sim clock; every member is
    already down before the first pass, so the repaired end state is
    byte-identical to the synchronous injection."""
    net_sync, st_sync, mgr_sync = _deployment(seed=31)
    net_stag, st_stag, mgr_stag = _deployment(seed=31)

    FaultInjector(Simulator(), net_sync, recovery=mgr_sync).fail_domain(site=1)

    sim = Simulator()
    injector = FaultInjector(sim, net_stag, recovery=mgr_stag, repair_spacing=2.0)
    event = injector.fail_domain(site=1)
    assert event.bytes_regenerated == 0  # nothing repaired before the clock runs
    sim.run()
    assert event.bytes_regenerated > 0

    np.testing.assert_array_equal(
        st_sync.ledger.replication_histogram(), st_stag.ledger.replication_histogram()
    )
    assert _placements_snapshot(st_sync) == _placements_snapshot(st_stag)
    assert st_sync.unavailable_file_count() == st_stag.unavailable_file_count()
    with pytest.raises(ValueError):
        FaultInjector(sim, net_stag, repair_spacing=-1.0)


# ------------------------------------------------------------ scenario smoke --
def test_flash_crowd_fails_fraction_and_reads_degrade():
    network, storage, manager = _deployment(seed=17)
    live_before = len(network.live_nodes())
    injector = FaultInjector(Simulator(), network, recovery=manager)

    event = injector.flash_crowd(fraction=0.25, rng=random.Random(41), repair=False)
    assert event.nodes_affected == max(1, int(np.ceil(live_before * 0.25)))
    assert len(network.live_nodes()) == live_before - event.nodes_affected

    # Without repair, recoverable-but-wounded chunks surface as degraded
    # reads; unrecoverable ones as failed reads.
    degraded = failed = 0
    for name in storage.files:
        result = storage.retrieve_file(name)
        if not result.complete:
            failed += 1
            assert result.failure_reason is not None
        elif result.degraded:
            degraded += 1
            assert result.chunks_degraded > 0
    assert degraded > 0
    assert storage.degraded_reads == degraded
    assert storage.failed_reads == failed


@pytest.mark.parametrize("fraction", [1.0, 0.999])
def test_a_repairing_flash_crowd_of_everyone_is_refused_before_anyone_goes_down(fraction):
    """Rounded up, the fraction downs every live node, leaving no survivor to
    repair onto: refuse it up front instead of raising mid-repair."""
    network, storage, manager = _deployment(seed=17, node_count=20, file_count=10)
    injector = FaultInjector(Simulator(), network, recovery=manager)
    live_rows = storage.ledger.live_rows
    with pytest.raises(ValueError, match="flash crowd"):
        injector.flash_crowd(fraction=fraction)
    assert len(network.live_nodes()) == 20
    assert storage.ledger.live_rows == live_rows and not injector.events
    event = injector.flash_crowd(fraction=fraction, repair=False)  # nothing to repair onto
    assert event.nodes_affected == 20 and not network.live_nodes()


def test_rolling_restart_returns_nodes_with_data_intact():
    network, storage, manager = _deployment(seed=19, file_count=30)
    sim = Simulator()
    injector = FaultInjector(sim, network, recovery=manager)
    victims = [n.node_id for n in network.live_nodes()[:6]]

    injector.rolling_restart(victims, interval=10.0, downtime=5.0, wipe=False)
    sim.run(until=200.0)

    assert all(network.node(v).alive for v in victims)
    # A reboot (wipe=False) revives the rows: no file is left unavailable.
    assert storage.unavailable_file_count() == 0
    assert storage.ledger.placements_below(TARGET_REPLICATION) == 0
    restarts = [e for e in injector.events if e.scenario == "rolling_restart"]
    assert len(restarts) == len(victims)


@pytest.mark.parametrize("interval, downtime", [
    (1.0, math.inf), (1.0, math.nan), (1.0, 0.0), (math.nan, 5.0), (math.inf, 5.0), (-1.0, 5.0),
])
def test_rolling_restart_rejects_bad_timing_before_scheduling_anything(interval, downtime):
    """An infinite downtime used to schedule node 0's failure and then raise,
    leaving it down for good after ``sim.run()``; a NaN interval passed."""
    network = OverlayNetwork.build(8, np.random.default_rng(5))
    sim = Simulator()
    injector = FaultInjector(sim, network)
    victims = [node.node_id for node in network.live_nodes()[:3]]
    with pytest.raises(ValueError):
        injector.rolling_restart(victims, interval=interval, downtime=downtime)
    sim.run()
    assert len(network.live_nodes()) == 8 and not injector.events


def test_degrade_nodes_cuts_bandwidth_via_scheduler():
    from repro.core.transfer import TransferScheduler

    network, storage, manager = _deployment(seed=23, file_count=10)
    sim = Simulator()
    scheduler = TransferScheduler(sim, uplink=100.0, downlink=100.0)
    injector = FaultInjector(sim, network, recovery=manager, transfers=scheduler)

    event = injector.degrade_nodes([1, 2], fraction=0.25)
    assert event.scenario == "degraded_nodes"
    assert scheduler.link_capacities(1)[0] == pytest.approx(25.0)
    assert scheduler.link_capacities(2)[1] == pytest.approx(25.0)
    assert scheduler.link_capacities(3)[0] == pytest.approx(100.0)

    no_scheduler = FaultInjector(sim, network, recovery=manager)
    with pytest.raises(ValueError):
        no_scheduler.degrade_nodes([1], fraction=0.5)


# -------------------------------------------------- assign_domains edge cases --
def test_assign_domains_uneven_population_stays_balanced():
    """Node counts not divisible by the rack count stripe within one node."""
    network = OverlayNetwork.build(10, np.random.default_rng(2))
    assign_domains(network.nodes(), sites=3, racks_per_site=1)
    sizes = {}
    for node in network.nodes():
        assert node.rack == node.site  # one rack per site: ids coincide
        sizes[node.rack] = sizes.get(node.rack, 0) + 1
    assert sorted(sizes) == [0, 1, 2]  # every rack is populated
    assert max(sizes.values()) - min(sizes.values()) <= 1
    assert sizes == {0: 4, 1: 3, 2: 3}  # 10 nodes round-robin over 3 racks


def test_assign_domains_single_site_topology():
    network = OverlayNetwork.build(9, np.random.default_rng(4))
    assign_domains(network.nodes(), sites=1, racks_per_site=4)
    assert all(node.site == 0 for node in network.nodes())
    assert sorted({node.rack for node in network.nodes()}) == [0, 1, 2, 3]
    # Degenerate 1x1 grid: everything in the single rack.
    assign_domains(network.nodes(), sites=1, racks_per_site=1)
    assert all((node.site, node.rack) == (0, 0) for node in network.nodes())
    with pytest.raises(ValueError):
        assign_domains(network.nodes(), sites=0, racks_per_site=1)


def test_refresh_domains_matches_from_scratch_assignment():
    """Domains laid over a populated ledger == domains assigned at build."""
    _, st_before, _ = _deployment(seed=29)
    net_after, st_after, _ = _deployment(seed=29, assign_before=False)
    st_before.ledger._flush_pending()
    st_after.ledger._flush_pending()
    # The late deployment stored every file with undomained nodes...
    assert st_after.ledger.fail_domain(site=0) == 0  # columns still -1
    assign_domains(net_after.nodes(), sites=3, racks_per_site=2)
    st_after.ledger.refresh_domains()
    # ...and one refresh re-syncs the slot columns to from-scratch parity.
    np.testing.assert_array_equal(
        st_before.ledger._slot_site[: len(st_before.ledger._slot_nodes)],
        st_after.ledger._slot_site[: len(st_after.ledger._slot_nodes)],
    )
    np.testing.assert_array_equal(
        st_before.ledger._slot_rack[: len(st_before.ledger._slot_nodes)],
        st_after.ledger._slot_rack[: len(st_after.ledger._slot_nodes)],
    )


def test_domain_mask_after_churn_matches_scalar_sequence():
    """refresh_domains keeps the one-mask kill exact after churn + re-layout."""
    net_a, st_a, mgr_a = _deployment(seed=37)
    net_b, st_b, mgr_b = _deployment(seed=37)
    # Identical churn on both twins: one failure, one graceful leave.
    for net, mgr in ((net_a, mgr_a), (net_b, mgr_b)):
        victim = next(n for n in net.live_nodes() if n.site == 2)
        mgr.handle_failure(victim.node_id)
        leaver = next(n for n in net.live_nodes() if n.rack == 1)
        mgr.handle_leave(leaver.node_id)
    # Re-layout the grid over the survivors, then refresh the slot columns.
    for net, st in ((net_a, st_a), (net_b, st_b)):
        assign_domains(net.live_nodes(), sites=2, racks_per_site=3)
        st.ledger.refresh_domains()
    event = FaultInjector(Simulator(), net_a, recovery=mgr_a).fail_domain(site=0)
    assert event.rows_killed > 0
    members = [n for n in net_b.live_nodes() if n.site == 0]
    assert len(members) == event.nodes_affected
    for node in members:
        net_b.fail(node.node_id)
    for node in members:
        mgr_b.handle_failure(node.node_id)
    np.testing.assert_array_equal(
        st_a.ledger.replication_histogram(), st_b.ledger.replication_histogram()
    )
    assert _placements_snapshot(st_a) == _placements_snapshot(st_b)
    assert st_a.unavailable_file_count() == st_b.unavailable_file_count()


# ------------------------------------------------- two-stage network oracles --
def _site_outage_with_scheduler(seed, node_count, topology_factory):
    """One site outage repaired over a transfer scheduler; full end state."""
    from repro.core.transfer import TransferScheduler

    network, storage, _ = _deployment(seed=seed, node_count=node_count)
    sim = Simulator()
    topology = topology_factory(network)
    transfers = TransferScheduler(sim, uplink=64 * MB, downlink=64 * MB,
                                  topology=topology)
    manager = RecoveryManager(storage, transfers=transfers)
    injector = FaultInjector(sim, network, recovery=manager, transfers=transfers,
                             repair_spacing=1.0)
    event = injector.fail_domain(site=0)
    sim.run()
    return {
        "placements": _placements_snapshot(storage),
        "histogram": storage.ledger.replication_histogram().tolist(),
        "unavailable": storage.unavailable_file_count(),
        "summary": transfers.summary(),
        "bytes_out": transfers.bytes_out,
        "bytes_in": transfers.bytes_in,
        "ttr": event.time_to_repair,
        "traffic": event.repair_traffic_bytes,
        "usage": [(n.node_id, n.used) for n in network.live_nodes()],
    }


@pytest.mark.parametrize("node_count", [48, 96])
def test_repair_infinite_core_oracle(node_count):
    """The tentpole oracle, repair pipeline included: an attached topology
    with unbounded trunks and one zero-latency class leaves every schedule,
    byte count and repaired end state identical to the access-only model."""
    from repro.core.transfer import NetworkTopology, TransferScheduler, oversubscribed_topology

    access_only = _site_outage_with_scheduler(43, node_count, lambda net: None)
    infinite_core = _site_outage_with_scheduler(
        43, node_count, lambda net: NetworkTopology.from_nodes(net.nodes())
    )
    assert infinite_core == access_only


def test_composed_timing_faults_match_instantaneous_sequence():
    """Satellite oracle: degraded links + trunk partition + per-transfer
    timeouts overlapping a rolling restart and a rack outage leave the ledger
    in the same end state as the equivalent sequence with the bandwidth
    overlay stripped (the staggered==synchronous oracle, composed)."""
    from repro.core.transfer import TransferScheduler, oversubscribed_topology

    def run(with_overlay):
        network, storage, _ = _deployment(seed=53)
        sim = Simulator()
        transfers = None
        if with_overlay:
            topology = oversubscribed_topology(
                network.nodes(), access_bandwidth=8 * MB, oversubscription=4.0,
                inter_site_latency=0.05,
            )
            transfers = TransferScheduler(sim, uplink=8 * MB, downlink=8 * MB,
                                          topology=topology)
        manager = RecoveryManager(storage, transfers=transfers,
                                  repair_window=8 if with_overlay else None,
                                  repair_weight=0.5 if with_overlay else 1.0)
        if with_overlay:
            manager.transfer_timeout = 3.0
            manager.retry_backoff = 0.5
        injector = FaultInjector(sim, network, recovery=manager,
                                 transfers=transfers)
        victims = [n.node_id for n in network.live_nodes()[:4]]
        injector.rolling_restart(victims, interval=3.0, downtime=5.0)
        if with_overlay:
            live = [n.node_id for n in network.live_nodes()[:12]]
            sim.schedule(2.0, lambda: injector.degrade_nodes(live, fraction=0.25))
            sim.schedule(7.0, lambda: injector.degrade_trunk(rack=1, fraction=0.0))
        sim.schedule(4.0, lambda: injector.fail_domain(rack=3))
        sim.run()
        return {
            "placements": _placements_snapshot(storage),
            "histogram": storage.ledger.replication_histogram().tolist(),
            "unavailable": storage.unavailable_file_count(),
            "usage": [(n.node_id, n.used) for n in network.live_nodes()],
        }

    assert run(True) == run(False)


def test_recovery_storm_survives_oversubscribed_core():
    """Tier-1 storm isolation: a whole-site outage behind a 4:1 core with a
    bounded repair window completes repair (histogram back to target for the
    survivors) while backpressure, not drops, absorbs the storm."""
    from repro.core.transfer import TransferScheduler, oversubscribed_topology

    network, storage, _ = _deployment(seed=59)
    sim = Simulator()
    topology = oversubscribed_topology(network.nodes(), access_bandwidth=8 * MB,
                                       oversubscription=4.0)
    transfers = TransferScheduler(sim, uplink=8 * MB, downlink=8 * MB,
                                  topology=topology)
    manager = RecoveryManager(storage, transfers=transfers,
                              repair_window=8, repair_weight=0.5)
    injector = FaultInjector(sim, network, recovery=manager, transfers=transfers,
                             repair_spacing=1.0)
    injector.fail_domain(site=0)
    sim.run()
    pacer = manager.pacer
    assert pacer is not None
    assert pacer.idle  # every queued repair transfer drained: nothing dropped
    assert pacer.peak_in_flight <= 8
    assert pacer.peak_queue_depth > 0  # the storm actually queued
    assert transfers.idle
    # Repair completed to exactly the depth instantaneous repair reaches:
    # the congested core delays the storm but strands nothing extra.
    base_net, base_storage, base_manager = _deployment(seed=59)
    base_sim = Simulator()
    base_injector = FaultInjector(base_sim, base_net, recovery=base_manager,
                                  repair_spacing=1.0)
    base_injector.fail_domain(site=0)
    base_sim.run()
    np.testing.assert_array_equal(
        storage.ledger.replication_histogram(),
        base_storage.ledger.replication_histogram(),
    )
    # The core actually constrained the storm: finite trunks carried bytes.
    assert any(
        (transfers.capacity_of(key) or 0) > 0 and charged > 0
        for key, charged in transfers.trunk_bytes.items()
    )
