"""Two-stage network model: topology paths, trunk sharing, pacing, oracle.

The load-bearing test is the *infinite-core oracle*: a scheduler with a
:class:`NetworkTopology` attached but every trunk unconstrained and a single
zero-latency class must produce a schedule (completion times, failure times,
per-node byte accounting) bit-identical to the access-only model, at two
population sizes.  Everything the topology adds is gated behind that oracle.
"""

import math
import random
from dataclasses import dataclass

import pytest
from reference.transfer_reference import uniform_trunks

from repro.core.transfer import (
    NetworkTopology,
    TransferPacer,
    TransferScheduler,
    TransferSpec,
    oversubscribed_topology,
)
from repro.sim.engine import Simulator


@dataclass
class _Node:
    node_id: int
    site: int = -1
    rack: int = -1


def _grid(node_count, sites, racks_per_site):
    """Round-robin striped population, same layout as assign_domains."""
    nodes = []
    total_racks = sites * racks_per_site
    for i in range(node_count):
        rack = i % total_racks
        nodes.append(_Node(node_id=i, site=rack // racks_per_site, rack=rack))
    return nodes


# --------------------------------------------------------------------- paths --


def test_trunk_links_same_rack_crosses_no_trunk():
    topo = NetworkTopology.from_nodes(_grid(8, 2, 2))
    # Nodes 0 and 4 both land on rack 0.
    assert topo.rack_of(0) == topo.rack_of(4) == 0
    assert topo.trunk_links(0, 4) == ()
    assert topo.latency_class(0, 4) == "intra_rack"


def test_trunk_links_intra_site_crosses_rack_trunks_only():
    topo = NetworkTopology.from_nodes(_grid(8, 2, 2))
    # Nodes 0 (rack 0) and 1 (rack 1) share site 0.
    assert topo.site_of(0) == topo.site_of(1) == 0
    assert topo.trunk_links(0, 1) == ((2, 0), (3, 1))  # rack0 up, rack1 down
    assert topo.latency_class(0, 1) == "intra_site"


def test_trunk_links_inter_site_crosses_all_four():
    topo = NetworkTopology.from_nodes(_grid(8, 2, 2))
    # Node 0 (site 0, rack 0) -> node 2 (site 1, rack 2).
    assert topo.trunk_links(0, 2) == ((2, 0), (4, 0), (5, 1), (3, 2))
    assert topo.latency_class(0, 2) == "inter_site"


def test_trunk_links_unmodelled_endpoint_uses_known_side():
    topo = NetworkTopology.from_nodes(_grid(4, 2, 1))
    # None source (e.g. meta restore) reaches node 1 through its trunks.
    assert topo.trunk_links(None, 1) == ((5, 1), (3, 1))
    assert topo.latency_class(None, 1) == "inter_site"
    assert topo.trunk_links(None, None) == ()
    assert topo.latency_class(None, None) is None
    # A node outside the grid behaves like an unmodelled endpoint.
    topo2 = NetworkTopology.from_nodes(_grid(4, 2, 1) + [_Node(node_id=99)])
    assert topo2.trunk_links(99, 1) == ((5, 1), (3, 1))


def test_latency_between_uses_class_latencies():
    topo = NetworkTopology.from_nodes(
        _grid(8, 2, 2),
        intra_rack_latency=0.001,
        intra_site_latency=0.01,
        inter_site_latency=0.1,
    )
    assert topo.latency_between(0, 4) == 0.001
    assert topo.latency_between(0, 1) == 0.01
    assert topo.latency_between(0, 2) == 0.1
    assert topo.latency_between(None, None) == 0.0


def test_oversubscribed_topology_derives_trunks_from_population():
    nodes = _grid(16, 2, 2)  # 4 nodes per rack
    topo = oversubscribed_topology(nodes, access_bandwidth=10.0, oversubscription=4.0)
    sched = TransferScheduler(Simulator(), topology=topo)
    # Rack trunk: 4 members x 10 / 4 = 10; site trunk: (10 + 10) / 4 = 5.
    assert sched.link_capacities(rack=0) == (10.0, 10.0)
    assert sched.link_capacities(site=0) == (5.0, 5.0)
    non_blocking = oversubscribed_topology(nodes, access_bandwidth=10.0, oversubscription=1.0)
    sched = TransferScheduler(Simulator(), topology=non_blocking)
    assert sched.link_capacities(rack=0) == (40.0, 40.0)


# ------------------------------------------------------------ trunk sharing --


def _topo_scheduler(nodes, access=10.0, **topo_kwargs):
    sim = Simulator()
    topo = uniform_trunks(nodes, **topo_kwargs)
    sched = TransferScheduler(sim, uplink=access, downlink=access, topology=topo)
    return sim, topo, sched


def test_trunk_is_the_bottleneck_for_cross_rack_flows():
    # Two flows from rack 0 to rack 1 share a rack-uplink trunk of 10:
    # each gets 5 even though access links would allow 10.
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, rack_uplink=10.0)
    t1 = sched.submit(100.0, src=0, dst=1)
    t2 = sched.submit(100.0, src=2, dst=3)
    assert t1.rate == pytest.approx(5.0)
    assert t2.rate == pytest.approx(5.0)
    sim.run()
    assert t1.finished_at == pytest.approx(20.0)
    assert t2.finished_at == pytest.approx(20.0)
    # Same-rack flow is unaffected by the trunk.
    t3 = sched.submit(100.0, src=0, dst=4)
    assert t3.rate == pytest.approx(10.0)


def test_weight_classes_share_trunk_proportionally():
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=100.0, rack_uplink=9.0)
    fg = sched.submit(90.0, src=0, dst=1, weight=1.0)
    bg = sched.submit(90.0, src=2, dst=3, weight=0.5)
    # Shared trunk level = 9 / 1.5 = 6: foreground 6, background 3.
    assert fg.rate == pytest.approx(6.0)
    assert bg.rate == pytest.approx(3.0)


def test_latency_delays_activation_then_transfers_at_full_rate():
    nodes = _grid(4, 2, 1)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, inter_site_latency=2.0)
    done = []
    t = sched.submit(100.0, src=0, dst=1, on_complete=lambda tr: done.append(sim.now))
    assert sched.active_count == 0 and not sched.idle  # inside latency window
    sim.run()
    assert done == [pytest.approx(12.0)]  # 2s latency + 100B / 10B/s
    assert t.finished_at == pytest.approx(12.0)


def test_timeout_inside_latency_window_fails_at_deadline():
    nodes = _grid(4, 2, 1)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, inter_site_latency=5.0)
    failed = []
    sched.submit(100.0, src=0, dst=1, on_failed=lambda tr: failed.append(tr), timeout=1.0)
    sim.run()
    assert len(failed) == 1 and failed[0].failure_reason == "timeout"
    assert failed[0].failed_at == pytest.approx(1.0)
    # The full size was refunded: nothing ever crossed a link.
    assert sched.bytes_out[0] == pytest.approx(0.0)
    assert sched.trunk_bytes[(4, 0)] == pytest.approx(0.0)


def test_partitioned_trunk_fails_submissions_deterministically():
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0)
    sched.set_trunk_bandwidth(rack=1, downlink=0.0)
    failed = []
    sched.submit(100.0, src=0, dst=1, on_failed=lambda tr: failed.append(tr))
    sim.run()
    assert len(failed) == 1 and failed[0].failure_reason == "partitioned trunk"
    # Same-rack path is unaffected.
    ok = sched.submit(100.0, src=0, dst=4)
    sim.run()
    assert ok.done


def test_set_trunk_bandwidth_kills_crossing_transfers_and_refunds():
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, rack_uplink=10.0)
    failed = []
    cross = sched.submit(100.0, src=0, dst=1, on_failed=lambda tr: failed.append(tr))
    local = sched.submit(100.0, src=4, dst=0)
    sim.schedule(5.0, lambda: sched.set_trunk_bandwidth(rack=0, uplink=0.0))
    sim.run()
    assert len(failed) == 1 and failed[0] is cross
    assert cross.failure_reason == "partitioned trunk"
    # 5s at 10 B/s delivered before the partition; the rest refunded.
    assert sched.bytes_out[0] == pytest.approx(50.0)
    assert sched.trunk_bytes[(2, 0)] == pytest.approx(50.0)
    assert local.done  # the intra-rack flow survives
    # Freed trunk capacity is re-usable after restoration.
    sched.set_trunk_bandwidth(rack=0, uplink=10.0)
    again = sched.submit(10.0, src=0, dst=1)
    sim.run()
    assert again.done


def test_congestion_signals_rank_saturated_paths():
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, rack_uplink=5.0)
    assert sched.source_congestion(0) == 0.0
    sched.submit(1000.0, src=0, dst=1)
    sched.submit(1000.0, src=0, dst=5)
    # Rack-0 uplink carries 2 flows over capacity 5 -> congestion 0.4;
    # node-0 access uplink carries 2 over 10 -> 0.2.
    assert sched.link_congestion((2, 0)) == pytest.approx(0.4)
    assert sched.source_congestion(0) == pytest.approx(0.6)
    assert sched.source_congestion(2) == pytest.approx(0.4)  # shares the trunk
    assert sched.source_congestion(5) == 0.0  # rack 1's uplink is quiet
    # A dead trunk is infinitely congested.
    sched.set_trunk_bandwidth(rack=0, uplink=0.0)
    assert math.isinf(sched.source_congestion(0))


def test_trunk_bytes_and_capacity_of_each_crossed_trunk():
    nodes = _grid(8, 1, 2)
    sim, topo, sched = _topo_scheduler(nodes, access=10.0, rack_uplink=10.0)
    sched.submit(100.0, src=0, dst=1)
    sim.run()
    rack0_up, rack1_down = topo.trunk_links(0, 1)
    assert sched.trunk_bytes[rack0_up] == pytest.approx(100.0)
    assert sched.capacity_of(rack0_up) == 10.0
    # The downlink stage was left unconstrained (no capacity).
    assert sched.trunk_bytes[rack1_down] == pytest.approx(100.0)
    assert sched.capacity_of(rack1_down) is None


# -------------------------------------------------------------------- pacer --


def test_pacer_bounds_in_flight_and_preserves_fifo_order():
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=10.0, downlink=None)
    pacer = TransferPacer(sched, max_in_flight=2)
    done = []
    pacer.submit_many(
        [TransferSpec(100.0, 0, None, lambda t, i=i: done.append(i)) for i in range(6)]
    )
    assert pacer.in_flight == 2
    assert pacer.queue_depth == 4
    sim.run()
    assert done == [0, 1, 2, 3, 4, 5]
    assert pacer.idle
    assert pacer.peak_queue_depth == 4
    assert pacer.peak_in_flight == 2
    # Windowed: 3 waves of 2 flows sharing a 10 B/s uplink -> 20s each.
    assert sim.now == pytest.approx(60.0)


def test_pacer_failure_frees_window_slot():
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=10.0, downlink=None)
    sched.set_node_bandwidth(1, uplink=0.0)
    pacer = TransferPacer(sched, max_in_flight=1)
    events = []
    pacer.submit_many(
        [
            TransferSpec(100.0, 1, None, None, lambda t: events.append("failed")),
            TransferSpec(100.0, 0, None, lambda t: events.append("done")),
        ]
    )
    sim.run()
    assert events == ["failed", "done"]
    assert pacer.idle


def test_pacer_passthrough_matches_direct_submission():
    def run(paced):
        sim = Simulator()
        sched = TransferScheduler(sim, uplink=10.0, downlink=10.0)
        specs = [TransferSpec(50.0 + i, i % 3, (i + 1) % 3) for i in range(9)]
        if paced:
            TransferPacer(sched, max_in_flight=None).submit_many(specs)
        else:
            sched.submit_many(specs)
        sim.run()
        return (sched.summary(), sched.bytes_out, sched.bytes_in)

    assert run(True) == run(False)


def test_pacer_weight_tags_submissions():
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=10.0, downlink=None)
    pacer = TransferPacer(sched, max_in_flight=4, weight=0.25)
    pacer.submit_many([TransferSpec(100.0, src=0)])
    fg = sched.submit(100.0, src=0, weight=1.0)
    # Level = 10 / 1.25 = 8: foreground 8, paced background 2.
    assert fg.rate == pytest.approx(8.0)
    assert sched.active_transfers()[0].rate == pytest.approx(2.0)


# ----------------------------------------------------- infinite-core oracle --


def _drive_workload(node_count, topology):
    """A seeded adversarial workload; returns the full observable trace."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0, topology=topology)
    rng = random.Random(node_count * 1009 + 17)
    trace = []

    def note(tag, transfer):
        trace.append(
            (
                tag,
                transfer.seq,
                sim.now,
                transfer.remaining,
                transfer.failure_reason,
            )
        )

    def submit_wave(wave):
        specs = []
        for _ in range(6):
            src = rng.randrange(node_count)
            dst = rng.randrange(node_count)
            size = rng.uniform(5.0, 200.0)
            timeout = rng.choice([None, rng.uniform(1.0, 30.0)])
            specs.append(
                TransferSpec(
                    size,
                    src,
                    dst,
                    lambda t: note("done", t),
                    lambda t: note("fail", t),
                    timeout,
                )
            )
        sched.submit_many(specs)
        if wave % 2 == 0:
            victim = rng.randrange(node_count)
            sched.set_node_bandwidth(victim, uplink=0.0, downlink=0.0)
        if wave % 3 == 0:
            lucky = rng.randrange(node_count)
            sched.set_node_bandwidth(
                lucky, uplink=rng.uniform(2.0, 20.0), downlink=rng.uniform(2.0, 20.0)
            )

    for wave in range(8):
        sim.schedule(wave * 3.0, lambda w=wave: submit_wave(w))
    sim.run()
    return trace, sched.bytes_out, sched.bytes_in, sched.summary()


@pytest.mark.parametrize("node_count", [12, 40])
def test_infinite_core_oracle_schedule_is_bit_identical(node_count):
    """Unbounded trunks + one zero-latency class == the access-only model.

    Strict equality on purpose: every completion time, failure time,
    residual byte count and per-node counter must match bit for bit.
    """
    nodes = _grid(node_count, sites=3, racks_per_site=2)
    baseline = _drive_workload(node_count, topology=None)
    # All trunk capacities default to None and all latencies to 0.0.
    infinite_core = _drive_workload(node_count, topology=NetworkTopology.from_nodes(nodes))
    assert infinite_core == baseline


def test_infinite_core_oracle_under_weighted_pass_through():
    """Weight 1.0 through the weighted filling is arithmetically the seed path."""
    sim_a = Simulator()
    plain = TransferScheduler(sim_a, uplink=7.0, downlink=9.0)
    sim_b = Simulator()
    weighted = TransferScheduler(sim_b, uplink=7.0, downlink=9.0)
    specs = [(37.0 + i * 3.1, i % 5, (i * 2 + 1) % 5) for i in range(20)]
    plain.submit_many([TransferSpec(*spec) for spec in specs])
    weighted.submit_many([TransferSpec(*spec, weight=1.0) for spec in specs])
    assert [t.rate for t in plain.active_transfers()] == [
        t.rate for t in weighted.active_transfers()
    ]
    sim_a.run()
    sim_b.run()
    assert plain.summary() == weighted.summary()
    assert plain.bytes_out == weighted.bytes_out


# ----------------------------------------- satellite: accounting invariants --


def test_set_node_bandwidth_keeps_unspecified_direction():
    """Changing one direction must not silently reset the other's override."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0)
    sched.set_node_bandwidth(3, downlink=5.0)
    sched.set_node_bandwidth(3, uplink=2.0)
    assert sched.link_capacities(3) == (2.0, 5.0)  # downlink was clobbered to 12.0 pre-fix
    sched.set_node_bandwidth(3, downlink=None)  # explicit None: unconstrained
    assert sched.link_capacities(3) == (2.0, None)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_bytes_delivered_plus_refunded_equals_submitted(seed):
    """Property: per-node/per-trunk charges always reconcile with the transfers.

    Across arbitrary sequences of mid-flight bandwidth changes (kills,
    revivals, repeated single-direction degradations on the same node),
    for every node:  bytes_out == sum over its transfers of
    (size - refunded residual), where completed and still-active transfers
    refund nothing.  Same identity per trunk link.
    """
    node_count = 10
    nodes = _grid(node_count, sites=2, racks_per_site=2)
    sim = Simulator()
    topo = uniform_trunks(nodes, rack_uplink=30.0, site_uplink=20.0)
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0, topology=topo)
    rng = random.Random(seed)
    transfers = []

    def churn(step):
        specs = []
        for _ in range(4):
            specs.append(
                TransferSpec(
                    rng.uniform(1.0, 120.0),
                    rng.randrange(node_count),
                    rng.randrange(node_count),
                    None,
                    None,
                    rng.choice([None, rng.uniform(0.5, 25.0)]),
                )
            )
        transfers.extend(sched.submit_many(specs))
        # Arbitrary mid-flight changes, one direction at a time included.
        victim = rng.randrange(node_count)
        action = rng.randrange(4)
        if action == 0:
            sched.set_node_bandwidth(victim, uplink=0.0)
        elif action == 1:
            sched.set_node_bandwidth(victim, downlink=0.0)
        elif action == 2:
            sched.set_node_bandwidth(victim, uplink=rng.uniform(1.0, 16.0))
        else:
            sched.set_node_bandwidth(
                victim, uplink=rng.uniform(1.0, 16.0), downlink=rng.uniform(1.0, 16.0)
            )
        if step % 3 == 0:
            rack = rng.randrange(4)
            sched.set_trunk_bandwidth(
                rack=rack, uplink=rng.choice([0.0, rng.uniform(5.0, 40.0)])
            )

    for step in range(12):
        sim.schedule(step * 2.0, lambda s=step: churn(s))
    sim.run()

    def charged(transfer):
        # Failed transfers refunded their residual; others are fully charged.
        return transfer.size - (transfer.remaining if transfer.failed else 0.0)

    for node in range(node_count):
        expected_out = sum(charged(t) for t in transfers if t.src == node)
        expected_in = sum(charged(t) for t in transfers if t.dst == node)
        assert sched.bytes_out.get(node, 0.0) == pytest.approx(expected_out, abs=1e-6)
        assert sched.bytes_in.get(node, 0.0) == pytest.approx(expected_in, abs=1e-6)
    trunk_expected = {}
    for t in transfers:
        for key in t.trunk_links:
            trunk_expected[key] = trunk_expected.get(key, 0.0) + charged(t)
    for key, expected in trunk_expected.items():
        assert sched.trunk_bytes[key] == pytest.approx(expected, abs=1e-6)
    # Global ledger: submitted splits into completed + failed + in flight.
    in_flight = sum(t.size for t in transfers if not t.ended)
    delivered_before_failure = sum(t.size - t.remaining for t in transfers if t.failed)
    assert sched.bytes_submitted == pytest.approx(
        sched.bytes_completed
        + sched.bytes_failed
        + delivered_before_failure
        + in_flight,
        abs=1e-6,
    )
