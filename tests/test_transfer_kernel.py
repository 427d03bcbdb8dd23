"""The change-driven transfer fabric: the ``allocate`` kernel and its driver.

Three layers of checks, none of which reads a wall clock:

* Hypothesis properties of the pure :func:`repro.core.transfer.allocate`
  kernel in isolation (feasibility, bottleneck condition, weight
  monotonicity, input-order invariance, the unweighted oracle);
* a differential fuzz of :class:`TransferScheduler` (persistent constraint
  graph + allocation epoch + same-instant activation folding) against the
  rebuild-on-every-event reference in ``tests/reference`` -- schedules,
  callback order and every byte counter must agree with ``==``, and the
  per-link bound multisets of the slack test equal a recount after every op;
* pinned ``reallocations`` / ``flows_filled`` counts, so "the scheduler
  recomputes rates only when their inputs changed, and only of the flows whose
  bottleneck component changed" is a tier-1 regression gate.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.transfer_reference import ReferenceTransferScheduler, uniform_trunks

from repro.core.transfer import (
    _DOWN,
    _UP,
    _KEEP,
    _SLACK_MARGIN,
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


_SHARED = [(stage, ident) for stage in range(2, 7) for ident in range(2)]


@st.composite
def _graphs_with_shared_links_around_the_slack_threshold(draw):
    """Flows with (or without) access links, plus shared links whose capacity
    is a drawn factor of ``weight sum x largest access bound`` -- the slack
    threshold -- so they land below it, on it, one ulp above it and far above."""
    flow_links, flow_weight = {}, {}
    for flow in range(draw(st.integers(1, 10))):
        ends = [draw(st.one_of(st.none(), st.integers(0, 3))) for _ in (0, 1)]
        access = [(stage, ident) for stage, ident in enumerate(ends) if ident is not None]
        shared = draw(st.lists(st.sampled_from(_SHARED), unique=True, max_size=3))
        flow_links[flow] = tuple(access + shared)
        flow_weight[flow] = draw(st.floats(0.2, 4.0))
    link_members = _members(flow_links)
    link_capacity = {}
    for key in sorted(link_members):  # access links first: they define the bounds
        if key[0] <= _DOWN:
            if draw(st.booleans()):
                link_capacity[key] = draw(st.floats(1.0, 30.0))
            continue
        threshold = _slack_threshold(key, link_capacity, link_members, flow_links, flow_weight)
        factor = draw(st.one_of(
            st.floats(0.05, 3.0), st.sampled_from([1.0, math.nextafter(1.0, 2.0), 50.0])))
        link_capacity[key] = (
            threshold * factor if threshold < math.inf else draw(st.floats(100.0, 5000.0)))
    return link_capacity, link_members, flow_links, flow_weight


def _slack_threshold(key, link_capacity, link_members, flow_links, flow_weight):
    """The capacity above which ``key`` can never be a bottleneck."""
    def bound(flow):  # the flow freezes at or below this level
        access = [link_capacity.get(k, math.inf) for k in flow_links[flow] if k[0] <= _DOWN]
        return min(access, default=math.inf) / flow_weight[flow]

    row = link_members[key]
    return _SLACK_MARGIN * sum(flow_weight[f] for f in row) * max(bound(f) for f in row)


@settings(max_examples=250, deadline=None)
@given(_graphs_with_shared_links_around_the_slack_threshold())
def test_allocate_is_unchanged_by_removing_the_slack_links(graph):
    link_capacity, link_members, flow_links, flow_weight = graph
    binding = {
        key: capacity for key, capacity in link_capacity.items()
        if key[0] <= _DOWN or not capacity > _slack_threshold(key, *graph)
    }
    # Exact equality, every flow: a slack link is never the popped minimum.
    assert allocate(binding, link_members, flow_links, flow_weight) == allocate(*graph)


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
# Shared links also get generous capacities (node links are 3-20): raised and
# lowered mid-storm they flip between slack and binding with flows in flight.
_shared_capacity = st.sampled_from([_KEEP, 0.0, None, 3.0, 8.0, 20.0, 100.0, 600.0, 5000.0])
_spec = st.tuples(
    st.sampled_from([0.0, 1.0, 6.0, 40.0, 90.5]),   # size
    _node, _node,
    st.sampled_from([None, None, 0.5, 2.0, 9.0]),   # timeout
    st.sampled_from([1.0, 1.0, 0.3, 1.7]),          # weight
    _tenant,
    st.booleans(),                                  # completion submits a follow-up
)
_trunk_op = st.tuples(st.just("trunk"), _gap, st.booleans(), st.integers(0, 3),
                     _shared_capacity, _shared_capacity)
_op = st.one_of(
    st.tuples(st.just("submit"), _gap, st.lists(_spec, min_size=1, max_size=4)),
    st.tuples(st.just("node"), _gap, _node, _capacity, _capacity),
    _trunk_op,
    st.tuples(st.just("cap"), _gap, st.integers(0, 2),
              st.sampled_from([None, 0.0, 2.0, 15.0, 100.0, 5000.0])),
    st.tuples(st.just("weight"), _gap, st.integers(0, 2), st.sampled_from([1.0, 0.1, 3.0])),
    # Trunk changes keep two of the six shares.
    _trunk_op,
)
_latencies = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3)


def _bound_multisets(sched):
    """Each shared link's ``{bound: count}``, recounted from its members' bounds."""
    return {key: dict(Counter(sched._bound[seq] for seq in row))
            for key, row in sched._members.items() if key[0] > _DOWN}


def _drive(scheduler_cls, ops, latencies):
    """Apply one op sequence to a fresh scheduler; return everything observable."""
    sim = Simulator()
    topology = uniform_trunks(
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
        log.append(("load", [
            [sched.link_congestion(key)
             for key in ((_UP, src), *topology.trunk_links(src, src + 5), (_DOWN, src + 5))]
            for src in range(6)]))
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
        else:
            sched.set_tenant_weight(args[0], args[1])
        assert sched._link_bounds == _bound_multisets(sched)
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

    def shared():  # tight or generous: trunks and caps flip between binding and slack
        return rng.choice([rng.uniform(1.0, 30.0), rng.uniform(100.0, 5000.0)])

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
        elif roll < 0.25 or 0.45 <= roll < 0.5:  # trunk changes keep two shares
            ops.append(("trunk", 0.0, rng.random() < 0.5, rng.randrange(4),
                        rng.choice([_KEEP, 0.0, None, shared()]), rng.choice([_KEEP, 0.0, None, shared()])))
        elif roll < 0.35:
            ops.append(("cap", 0.0, rng.randrange(3), rng.choice([None, 0.0, shared()])))
        elif roll < 0.45:
            ops.append(("weight", 0.0, rng.randrange(3), rng.uniform(0.1, 4.0)))
    return ops


@pytest.mark.parametrize("seed", range(16))
def test_scheduler_matches_the_reference_through_a_long_random_storm(seed):
    ops, latencies = _random_ops(seed), (0.0, 0.35, 0.8)
    new = _drive(TransferScheduler, ops, latencies)
    assert new == _drive(ReferenceTransferScheduler, ops, latencies)
    assert new["summary"]["completed"] > 20  # the storm really moves data


def _rejected(call):
    def run(sched):
        with pytest.raises(ValueError):
            call(sched)
    return run


_CALLS = {
    "tenant_summary": lambda sched: sched.tenant_summary(),
    "rejected node change": _rejected(lambda sched: sched.set_node_bandwidth(0, uplink=-1.0)),
    "rejected trunk change": _rejected(lambda sched: sched.set_trunk_bandwidth(rack=0, uplink=-1.0)),
    "rejected tenant cap": _rejected(lambda sched: sched.set_tenant_cap(0, -1.0)),
}


def _finish_times(call):
    """Five flows' completion times, with ``call`` (if any) made three times mid-flight."""
    sim = Simulator()
    topology = uniform_trunks(_grid(), rack_uplink=30.0, site_uplink=20.0)
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0, topology=topology)
    flows = [sched.submit(size, src=src, dst=dst, tenant=src % 2)
             for size, src, dst in ((428.58, 11, 3), (552.48, 1, 5), (76.0, 0, 10),
                                    (510.2, 6, 10), (234.11, 6, 11))]
    for when in (2.924, 5.59, 77.7):
        sim.run(until=when)
        if call is not None:
            call(sched)
    sim.run()
    return [t.finished_at for t in flows]


@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_a_read_or_a_rejected_call_moves_no_float_history(call):
    """``remaining`` carries a float history an extra ``_advance`` would split:
    a read and a call rejected on its arguments must not move the clock."""
    assert _finish_times(call) == _finish_times(None)


# ------------------------------------------------------ fills are change-driven --

def _latent_scheduler(latency=1.0):
    sim = Simulator()
    topology = uniform_trunks(
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


# --------------------------------- slack links and bottleneck components --

def _both(scenario):
    """One readable scenario on the scheduler and on the reference: equal, or fail."""
    result = scenario(TransferScheduler)
    assert result == scenario(ReferenceTransferScheduler)
    return result


def _idle_and_clean(sched):
    """Nothing cached per flow or per link outlives the active set."""
    return sched.idle and not (sched._bound or sched._link_bounds or sched._slack
                               or sched._dirty or sched._capacity)


def test_a_fresh_flow_crossing_no_binding_link_is_still_filled():
    """No link it crosses was touched, so nothing but the flow itself seeds it."""

    def scenario(scheduler_cls):
        sim = Simulator()
        sched = scheduler_cls(sim, uplink=8.0, downlink=12.0,
                              topology=NetworkTopology.from_nodes(_grid()))
        for node in (1, 5):  # same rack: no trunk, and no access limit either
            sched.set_node_bandwidth(node, uplink=None, downlink=None)
        busy = sched.submit(80.0, src=0, dst=2)
        sim.run(until=1.0)
        free = sched.submit(50.0, src=1, dst=5)
        rates = (busy.rate, free.rate)
        sim.run()
        return rates, busy.finished_at, free.finished_at, _idle_and_clean(sched)

    assert _both(scenario) == ((8.0, math.inf), 10.0, 1.0, True)


def test_a_trunk_that_turns_slack_because_a_member_left_refills_the_rest():
    """It was binding *before* the change: the survivors' rates were set by it."""

    def scenario(scheduler_cls):
        sim = Simulator()
        topology = uniform_trunks(_grid(), site_uplink=20.0)
        sched = scheduler_cls(sim, uplink=8.0, downlink=12.0, topology=topology)
        # Site 0 -> site 1 on disjoint endpoints: only the 20 B/s trunk joins them.
        flows = [sched.submit(size, src=src, dst=src + 2)
                 for size, src in ((20.0, 0), (200.0, 1), (200.0, 4))]
        shared = [t.rate for t in flows]
        sim.run(until=3.5)  # the short flow left at t=3: 16 B/s of demand, 20 of trunk
        alone = [t.rate for t in flows]
        sim.run()
        return shared, alone, [t.finished_at for t in flows], _idle_and_clean(sched)

    shared, alone, _, clean = _both(scenario)
    assert shared == [20.0 / 3.0] * 3
    assert alone == [0.0, 8.0, 8.0] and clean


def test_a_link_emptied_and_refilled_is_judged_afresh():
    """Slack under its last member says nothing about its next first one."""

    def scenario(scheduler_cls):
        sim = Simulator()
        topology = uniform_trunks(_grid(), site_uplink=20.0)
        sched = scheduler_cls(sim, uplink=8.0, downlink=12.0, topology=topology)
        sched.set_node_bandwidth(1, uplink=40.0)
        sched.set_node_bandwidth(3, downlink=40.0)
        thin = sched.submit(16.0, src=0, dst=2)  # 8 B/s under the 20 B/s trunk: slack
        sim.run()
        clean = _idle_and_clean(sched)  # the trunk left the graph with its last member
        fat = sched.submit(100.0, src=1, dst=3)  # 40 B/s endpoints: the same trunk binds
        rates = (thin.rate, fat.rate)
        sim.run()
        return rates, clean, thin.finished_at, fat.finished_at

    assert _both(scenario) == ((0.0, 20.0), True, 2.0, 7.0)


def test_flows_without_a_finite_access_link_keep_their_trunk_binding():
    """``src=None`` and ``bandwidth=None`` endpoints bound nothing (``c_f = inf``):
    a generous trunk -- or tenant cap -- over them is their only limit, hence
    never slack."""

    def scenario(scheduler_cls):
        sim = Simulator()
        topology = uniform_trunks(_grid(), site_downlink=100.0)
        sched = scheduler_cls(sim, uplink=8.0, downlink=12.0, topology=topology)
        sched.set_node_bandwidth(1, uplink=None)
        for node in (3, 7):
            sched.set_node_bandwidth(node, downlink=None)
        sched.set_tenant_cap(0, 50.0)
        flows = [
            sched.submit(400.0, src=0, dst=2, tenant=0),  # 8 B/s each
            sched.submit(400.0, src=4, dst=6),
            sched.submit(420.0, src=None, dst=3),  # the network at large -> site 1
            sched.submit(420.0, src=1, dst=7),     # unconstrained at both ends
            sched.submit(420.0, tenant=0),         # no endpoint at all: the cap alone
        ]
        rates = [t.rate for t in flows]
        sim.run()
        return rates, [t.finished_at for t in flows], _idle_and_clean(sched)

    rates, _, clean = _both(scenario)
    # (100 - 16) / 2 on the trunk, 50 - 8 under the cap.
    assert rates == [8.0, 8.0, 42.0, 42.0, 42.0] and clean


def test_a_fill_covers_the_bottleneck_component_not_the_active_set():
    """Serve-shaped: gateways in site 0 each pulling from sources in site 1, one
    generous site trunk over all of them.  ``flows_filled`` grows by the size of
    the component a change lands in -- the flows sharing that gateway's downlink
    -- until the trunk is squeezed to a binding value and merges them all."""
    nodes = [_Node(g, site=0, rack=0) for g in range(3)]
    nodes += [_Node(s, site=1, rack=1) for s in range(10, 20)]
    sim = Simulator()
    topology = uniform_trunks(nodes, site_uplink=1000.0, site_downlink=1000.0)
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0, topology=topology)
    sources = iter(range(10, 20))

    def pull(gateway, size=1000.0):
        before = sched.summary()
        transfer = sched.submit(size, src=next(sources), dst=gateway)
        after = sched.summary()
        assert after["reallocations"] == before["reallocations"] + 1
        return transfer, after["flows_filled"] - before["flows_filled"]

    # Warm-up: a first, then a second source per gateway.
    assert [pull(g)[1] for g in range(3)] == [1, 1, 1]
    assert [pull(g)[1] for g in range(3)] == [2, 2, 2]  # the pair on that downlink
    assert sched.active_count == 6 and {t.rate for t in sched.active_transfers()} == {6.0}
    # A third, short pull on gateway 0: its component of three, then the two left.
    short, filled = pull(0, size=4.0)
    assert filled == 3 and short.rate == 4.0
    before = sched.summary()
    sim.run(until=1.0)
    assert short.done and sched.summary()["flows_filled"] == before["flows_filled"] + 2
    assert sched.summary()["reallocations"] == before["reallocations"] + 1
    # Squeeze the trunk under the 36 B/s of demand: it binds, one component.
    before = sched.summary()["flows_filled"]
    sched.set_trunk_bandwidth(site=0, downlink=30.0)
    assert sched.summary()["flows_filled"] == before + 6  # a setter refills everything
    assert {t.rate for t in sched.active_transfers()} == {5.0}
    assert pull(1)[1] == 7  # every flow on the trunk, not just gateway 1's three
    # Generous again: the components split back.
    sched.set_trunk_bandwidth(site=0, downlink=1000.0)
    assert pull(2)[1] == 3
    assert sorted(t.rate for t in sched.active_transfers()) == [4.0] * 6 + [6.0] * 2
