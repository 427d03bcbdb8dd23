"""The change-driven transfer fabric: the ``allocate`` kernel and its driver.

Three layers of checks, none of which reads a wall clock:

* Hypothesis properties of the pure :func:`repro.core.transfer.allocate`
  kernel in isolation (feasibility, bottleneck condition, weight
  monotonicity, input-order invariance, the unweighted oracle);
* a differential fuzz of :class:`TransferScheduler` (persistent constraint
  graph + allocation epoch + same-instant activation folding) against the
  rebuild-on-every-event reference in ``tests/reference`` -- schedules,
  callback order and every byte counter must agree with ``==``;
* pinned ``reallocations`` counts, so "the scheduler recomputes rates only
  when their inputs changed" is a tier-1 regression gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.transfer_reference import ReferenceTransferScheduler

from repro.core.transfer import (
    _KEEP,
    NetworkTopology,
    TransferScheduler,
    TransferSpec,
    allocate,
)
from repro.sim.engine import Simulator

# ------------------------------------------------------------ kernel inputs --

_LINKS = [(stage, ident) for stage in range(3) for ident in range(3)]


@st.composite
def _graphs(draw, weights=st.floats(0.1, 4.0)):
    """A random constraint graph in the kernel's input shape."""
    flow_links, flow_weight = {}, {}
    for flow in range(draw(st.integers(1, 10))):
        flow_links[flow] = tuple(draw(st.lists(st.sampled_from(_LINKS), unique=True, max_size=4)))
        flow_weight[flow] = draw(weights)
    link_members = _members(flow_links)
    # Crossed links left out of link_capacity are unconstrained: to be ignored.
    finite = draw(st.lists(st.sampled_from(_LINKS), unique=True, max_size=7))
    link_capacity = {key: draw(st.floats(0.5, 100.0)) for key in finite if key in link_members}
    return link_capacity, link_members, flow_links, flow_weight


def _members(flow_links):
    link_members = {}
    for flow, links in flow_links.items():
        for key in links:
            link_members.setdefault(key, []).append(flow)
    return link_members


def _link_rate(key, link_members, rates):
    return sum(rates[flow] for flow in link_members.get(key, ()))


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_allocate_is_feasible_and_every_flow_is_bottlenecked(graph):
    link_capacity, link_members, flow_links, flow_weight = graph
    rates = allocate(*graph)
    assert set(rates) == set(flow_links)
    for key, capacity in link_capacity.items():
        assert _link_rate(key, link_members, rates) <= capacity * (1 + 1e-9)
    for flow, links in flow_links.items():
        finite = [key for key in links if key in link_capacity]
        if not finite:
            assert rates[flow] == math.inf
            continue
        assert 0.0 < rates[flow] < math.inf
        # Max-min: some saturated link on the path gives no flow a larger
        # weight-normalised share than this one.
        share = rates[flow] / flow_weight[flow]
        assert any(
            _link_rate(key, link_members, rates) >= link_capacity[key] * (1 - 1e-9)
            and all(
                rates[other] / flow_weight[other] <= share * (1 + 1e-9)
                for other in link_members[key]
            )
            for key in finite
        )


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.data())
def test_allocate_rate_is_monotone_in_the_flows_own_weight(graph, data):
    link_capacity, link_members, flow_links, flow_weight = graph
    flow = data.draw(st.sampled_from(sorted(flow_links)))
    heavier = dict(flow_weight)
    heavier[flow] = flow_weight[flow] * data.draw(st.floats(1.0, 8.0))
    before = allocate(*graph)[flow]
    after = allocate(link_capacity, link_members, flow_links, heavier)[flow]
    assert after >= before * (1 - 1e-9)


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_allocate_ignores_the_order_its_inputs_arrive_in(graph, rnd):
    link_capacity, link_members, flow_links, flow_weight = graph

    def shuffled(mapping):
        items = list(mapping.items())
        rnd.shuffle(items)
        return dict(items)

    # Dict order is irrelevant, exactly: (level, key) is a total order.
    assert allocate(
        shuffled(link_capacity), shuffled(link_members),
        shuffled(flow_links), shuffled(flow_weight),
    ) == allocate(*graph)
    # Member order only moves the float weight sums.
    permuted = {key: rnd.sample(row, len(row)) for key, row in link_members.items()}
    moved = allocate(link_capacity, permuted, flow_links, flow_weight)
    for flow, rate in allocate(*graph).items():
        assert moved[flow] == pytest.approx(rate, rel=1e-9)


def _unweighted_max_min(link_capacity, link_members, flow_links):
    """Textbook progressive filling, no weights, no heap."""
    residual = dict(link_capacity)
    count = {key: len(link_members[key]) for key in link_capacity}
    rates = {}
    while True:
        live = [(max(residual[key], 0.0) / count[key], key) for key in residual if count[key]]
        if not live:
            break
        level, bottleneck = min(live)
        for flow in link_members[bottleneck]:
            if flow in rates:
                continue
            rates[flow] = level
            for key in flow_links[flow]:
                if key in residual:
                    residual[key] -= level
                    count[key] -= 1
    for flow in flow_links:
        rates.setdefault(flow, math.inf)
    return rates


@settings(max_examples=300, deadline=None)
@given(_graphs(weights=st.just(1.0)))
def test_allocate_with_unit_weights_is_the_unweighted_model_exactly(graph):
    link_capacity, link_members, flow_links, _ = graph
    assert allocate(*graph) == _unweighted_max_min(link_capacity, link_members, flow_links)


def test_allocate_does_not_mutate_its_inputs():
    graph = ({(0, 1): 10.0}, {(0, 1): [3, 5]}, {3: ((0, 1),), 5: ((0, 1), (1, 9))}, {3: 1.0, 5: 3.0})
    snapshot = repr(graph)
    assert allocate(*graph) == {3: 2.5, 5: 7.5}
    assert repr(graph) == snapshot


# ----------------------------------------------------- driver vs. reference --

NODE_COUNT = 12


@dataclass
class _Node:
    node_id: int
    site: int
    rack: int


def _grid():
    """12 nodes round-robin over 2 sites x 2 racks."""
    return [_Node(i, site=(i % 4) // 2, rack=i % 4) for i in range(NODE_COUNT)]


_gap = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 4.0])
_node = st.integers(0, NODE_COUNT - 1)
_tenant = st.sampled_from([None, 0, 1, 2])
_capacity = st.sampled_from([_KEEP, 0.0, None, 3.0, 8.0, 20.0])
_spec = st.tuples(
    st.sampled_from([0.0, 1.0, 6.0, 40.0, 90.5]),   # size
    _node, _node,
    st.sampled_from([None, None, 0.5, 2.0, 9.0]),   # timeout
    st.sampled_from([1.0, 1.0, 0.3, 1.7]),          # weight
    _tenant,
    st.booleans(),                                  # completion submits a follow-up
)
_op = st.one_of(
    st.tuples(st.just("submit"), _gap, st.lists(_spec, min_size=1, max_size=4)),
    st.tuples(st.just("node"), _gap, _node, _capacity, _capacity),
    st.tuples(st.just("trunk"), _gap, st.booleans(), st.integers(0, 3), _capacity, _capacity),
    st.tuples(st.just("cap"), _gap, st.integers(0, 2), st.sampled_from([None, 0.0, 2.0, 15.0])),
    st.tuples(st.just("weight"), _gap, st.integers(0, 2), st.sampled_from([1.0, 0.1, 3.0])),
    # Mutating the topology object behind the scheduler's back.
    st.tuples(st.just("direct"), _gap, st.integers(0, 1), st.sampled_from([None, 4.0, 60.0])),
)
_latencies = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3)


def _drive(scheduler_cls, ops, latencies):
    """Apply one op sequence to a fresh scheduler; return everything observable."""
    sim = Simulator()
    topology = NetworkTopology.from_nodes(
        _grid(), rack_uplink=30.0, site_uplink=20.0, site_downlink=25.0,
        intra_rack_latency=latencies[0], intra_site_latency=latencies[1],
        inter_site_latency=latencies[2],
    )
    sched = scheduler_cls(sim, uplink=8.0, downlink=12.0, topology=topology)
    transfers, log = [], []

    def failed(transfer):
        log.append(("failed", transfer.seq, transfer.failure_reason, sim.now))

    def done(transfer, follow_up=False):
        log.append(("done", transfer.seq, sim.now))
        if follow_up:  # re-entrant submission, the way the pacer drains
            transfers.append(sched.submit(
                transfer.size / 2, transfer.dst, transfer.src, done, failed,
                tenant=transfer.tenant))

    for kind, gap, *args in ops:
        sim.run(until=sim.now + gap)
        # The congestion signals carry the float history of the link loads.
        log.append(("load", [sched.path_congestion(src, src + 5) for src in range(6)]))
        if kind == "submit":
            transfers.extend(sched.submit_many([
                TransferSpec(size, src, dst, (lambda t, f=follow: done(t, f)), failed,
                             timeout, weight, tenant)
                for size, src, dst, timeout, weight, tenant, follow in args[0]
            ]))
        elif kind == "node":
            sched.set_node_bandwidth(args[0], uplink=args[1], downlink=args[2])
        elif kind == "trunk":
            domain = {"site": args[1] % 2} if args[0] else {"rack": args[1]}
            sched.set_trunk_bandwidth(uplink=args[2], downlink=args[3], **domain)
        elif kind == "cap":
            sched.set_tenant_cap(args[0], args[1])
        elif kind == "weight":
            sched.set_tenant_weight(args[0], args[1])
        else:
            topology.set_site_trunk(args[0], uplink=args[1])
    sim.run()
    summary = sched.summary()
    del summary["reallocations"], summary["flows_filled"]  # the reference counts none
    return {
        "log": log,
        "transfers": [(t.seq, t.finished_at, t.failed_at, t.failure_reason, t.remaining)
                      for t in transfers],
        "bytes_out": sched.bytes_out,
        "bytes_in": sched.bytes_in,
        "trunk_bytes": sched.trunk_bytes,
        "tenants": sched.tenant_summary(),
        "summary": summary,
        "end": (sim.now, sim.events_processed, sched.idle),
    }


@settings(max_examples=250, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25), _latencies)
def test_scheduler_matches_the_rebuild_every_event_reference(ops, latencies):
    new = _drive(TransferScheduler, ops, latencies)
    assert new == _drive(ReferenceTransferScheduler, ops, latencies)
    # Delivered + refunded == submitted, on every access link in total.
    summary = new["summary"]
    assert new["end"][2] and summary["completed"] + summary["failed"] == summary["submitted"]
    for side in ("bytes_out", "bytes_in"):
        assert sum(new[side].values()) == pytest.approx(
            summary["bytes_submitted"] - summary["bytes_failed"], abs=1e-6)


def _random_ops(seed, steps=120):
    """A long storm with arbitrary floats, where summation order shows in the ulps."""
    rng = random.Random(seed)

    def node():
        return rng.randrange(NODE_COUNT)

    def capacity():
        return rng.choice([_KEEP, 0.0, None, rng.uniform(1.0, 30.0)])

    ops = []
    for _ in range(steps):
        gap = rng.choice([0.0, 0.0, rng.uniform(0.0, 2.0)])
        specs = [
            (rng.uniform(1.0, 120.0), node(), node(), rng.choice([None, None, rng.uniform(0.5, 25.0)]),
             rng.uniform(0.2, 3.0), rng.choice([None, 0, 1, 2]), rng.random() < 0.2)
            for _ in range(rng.randrange(1, 6))
        ]
        ops.append(("submit", gap, specs))
        roll = rng.random()
        if roll < 0.15:
            ops.append(("node", 0.0, node(), capacity(), capacity()))
        elif roll < 0.25:
            ops.append(("trunk", 0.0, rng.random() < 0.5, rng.randrange(4), capacity(), capacity()))
        elif roll < 0.35:
            ops.append(("cap", 0.0, rng.randrange(3), rng.choice([None, 0.0, rng.uniform(1.0, 20.0)])))
        elif roll < 0.45:
            ops.append(("weight", 0.0, rng.randrange(3), rng.uniform(0.1, 4.0)))
        elif roll < 0.5:
            ops.append(("direct", 0.0, rng.randrange(2), rng.uniform(2.0, 60.0)))
    return ops


@pytest.mark.parametrize("seed", range(8))
def test_scheduler_matches_the_reference_through_a_long_random_storm(seed):
    ops, latencies = _random_ops(seed), (0.0, 0.35, 0.8)
    new = _drive(TransferScheduler, ops, latencies)
    assert new == _drive(ReferenceTransferScheduler, ops, latencies)
    assert new["summary"]["completed"] > 20  # the storm really moves data


def test_direct_topology_mutation_is_picked_up_at_the_next_event():
    """``topology.set_site_trunk`` mid-flight re-shares the survivors at the
    next scheduler event, even one that leaves the active set untouched."""

    def run(scheduler_cls):
        sim = Simulator()
        topology = NetworkTopology.from_nodes(_grid(), site_uplink=20.0, inter_site_latency=1.0)
        sched = scheduler_cls(sim, uplink=8.0, downlink=12.0, topology=topology)
        first = [sched.submit(100.0, src=0, dst=2), sched.submit(100.0, src=4, dst=6)]
        sim.run(until=3.0)
        topology.set_site_trunk(0, uplink=4.0)
        # Enters its latency window: the active set does not change here.
        late = sched.submit(10.0, src=1, dst=3)
        rates = [t.rate for t in first]
        sim.run()
        return rates, [t.finished_at for t in first + [late]]

    rates, finished = run(TransferScheduler)
    assert rates == [2.0, 2.0]  # the 4 B/s trunk, shared, from t=3 on
    assert (rates, finished) == run(ReferenceTransferScheduler)


# ------------------------------------------------------ fills are change-driven --

def _latent_scheduler(latency=1.0):
    sim = Simulator()
    topology = NetworkTopology.from_nodes(
        _grid(), site_uplink=20.0, intra_rack_latency=latency,
        intra_site_latency=latency, inter_site_latency=latency)
    return sim, TransferScheduler(sim, uplink=8.0, downlink=12.0, topology=topology)


def test_submits_into_a_latency_window_fill_nothing():
    sim, sched = _latent_scheduler()
    sched.submit(50.0, src=0, dst=2)
    sim.run(until=2.0)
    assert sched.summary()["reallocations"] == 1.0  # the activation
    for i in range(20):
        sim.run(until=2.0 + i / 100)
        sched.submit(5.0, src=1 + i % 3, dst=7)
    assert sched.active_count == 1
    assert sched.summary()["reallocations"] == 1.0


def test_activations_at_one_instant_fill_once():
    sim, sched = _latent_scheduler()
    for i in range(6):
        sched.submit(50.0, src=i, dst=i + 6)
    sim.run(until=1.0)
    assert sched.active_count == 6
    assert sched.summary()["reallocations"] == 1.0
    assert sched.summary()["flows_filled"] == 6.0


def test_a_timer_that_finishes_nothing_fills_nothing():
    sim, sched = _latent_scheduler(latency=0.0)
    flows = [sched.submit(80.0, src=0, dst=2), sched.submit(40.0, src=0, dst=3)]
    fills = sched.summary()["reallocations"]
    sim.run(until=5.0)
    sched._on_timer()  # early: nothing has finished or expired
    assert sched.summary()["reallocations"] == fills
    sim.run()
    assert [t.finished_at for t in flows] == [pytest.approx(15.0), pytest.approx(10.0)]
    # One more fill when the short flow left; none when the last one did.
    assert sched.summary()["reallocations"] == fills + 1
