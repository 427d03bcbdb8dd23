"""Per-tenant QoS isolation: tags, weights, caps, accounting, the oracle.

The load-bearing test is the *untagged oracle*: a scheduler whose every
submission carries a tenant tag, with every tenant at weight 1.0 and no
caps, must produce a schedule (completion times, failure times, residual
bytes, per-node and global accounting) bit-identical to the untagged
scheduler, at two population sizes.  Everything tenancy adds -- weight
classes, hard caps, per-tenant accounting, the blackhole -- is gated
behind that oracle.
"""

import random

import pytest

from repro.core.transfer import TransferPacer, TransferScheduler, TransferSpec
from repro.sim.engine import Simulator


def _drive_workload(node_count, tagged):
    """A seeded adversarial workload; returns the full observable trace.

    ``tagged=False`` submits legacy positional tuples; ``tagged=True``
    submits :class:`TransferSpec` objects carrying a tenant tag (three
    tenants, every one pinned at weight 1.0, no caps) -- the two runs must
    be indistinguishable in every observable.
    """
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=8.0, downlink=12.0)
    if tagged:
        for tenant in range(3):
            sched.set_tenant_weight(tenant, 1.0)
            sched.set_tenant_cap(tenant, None)
    rng = random.Random(node_count * 1009 + 17)
    trace = []

    def note(tag, transfer):
        trace.append(
            (tag, transfer.seq, sim.now, transfer.remaining, transfer.failure_reason)
        )

    def submit_wave(wave):
        specs = []
        for _ in range(6):
            src = rng.randrange(node_count)
            dst = rng.randrange(node_count)
            size = rng.uniform(5.0, 200.0)
            timeout = rng.choice([None, rng.uniform(1.0, 30.0)])
            done = lambda t: note("done", t)  # noqa: E731
            fail = lambda t: note("fail", t)  # noqa: E731
            if tagged:
                specs.append(TransferSpec(size, src, dst, done, fail, timeout,
                                          weight=1.0, tenant=src % 3))
            else:
                specs.append(TransferSpec(size, src, dst, done, fail, timeout))
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
    return trace, sched.summary(), dict(sched.bytes_out), dict(sched.bytes_in)


@pytest.mark.parametrize("node_count", [12, 40])
def test_untagged_oracle_schedule_is_bit_identical(node_count):
    """All-tenants-weight-1, no caps == the untagged scheduler, bit for bit."""
    assert _drive_workload(node_count, tagged=True) == _drive_workload(
        node_count, tagged=False
    )


def test_tenant_weight_splits_shared_link_by_class():
    """Two tenants crossing one downlink share it by their class weights."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=None, downlink=8.0)
    sched.set_tenant_weight(7, 3.0)
    sched.submit(1000.0, src=0, dst=9, tenant=1)
    sched.submit(1000.0, src=1, dst=9, tenant=7)
    light, heavy = sched.active_transfers()
    assert light.rate == pytest.approx(2.0)
    assert heavy.rate == pytest.approx(6.0)
    # The tenant weight folds in at submission time, like a flow's own
    # weight: changing it later must not reshape flows already admitted.
    sched.set_tenant_weight(7, 1.0)
    sched.submit(1000.0, src=2, dst=3, tenant=7)  # forces a reallocation
    assert heavy.rate == pytest.approx(6.0)


def test_tenant_cap_bounds_aggregate_rate_without_hurting_others():
    """A hard cap bounds the tenant's total rate across disjoint paths."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=8.0, downlink=8.0)
    sched.set_tenant_cap(5, 6.0)
    sched.submit(1000.0, src=0, dst=1, tenant=5)
    sched.submit(1000.0, src=2, dst=3, tenant=5)
    sched.submit(1000.0, src=4, dst=6, tenant=9)
    capped_a, capped_b, other = sched.active_transfers()
    # Each capped flow would get 8.0 alone; the virtual tenant link holds
    # their aggregate at the 6.0 cap, split fairly.
    assert capped_a.rate + capped_b.rate == pytest.approx(6.0)
    assert capped_a.rate == pytest.approx(capped_b.rate)
    # The other tenant's disjoint path is untouched by the cap.
    assert other.rate == pytest.approx(8.0)
    summary = sched.tenant_summary()
    assert summary[5]["cap"] == 6.0 and summary[9]["cap"] == -1
    # Clearing the cap releases the aggregate back to the physical links.
    sched.set_tenant_cap(5, None)
    assert capped_a.rate == pytest.approx(8.0)
    assert capped_b.rate == pytest.approx(8.0)


def test_cap_zero_blackholes_the_tenant_deterministically():
    """Cap 0 fails active flows through the event queue and rejects new ones."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=8.0, downlink=8.0)
    failures = []
    sched.submit(100.0, src=0, dst=1, tenant=4,
                 on_failed=lambda t: failures.append(t.seq))
    sched.submit(100.0, src=2, dst=3, tenant=8)
    sched.set_tenant_cap(4, 0.0)
    assert failures == []  # like a dead access link: failure is an event
    sim.run()
    assert len(failures) == 1
    # New submissions of the blackholed tenant fail the same deterministic
    # way a submission to a dead endpoint does: as an event, never inline.
    rejected = sched.submit(50.0, src=0, dst=1, tenant=4,
                            on_failed=lambda t: failures.append(t.seq))
    sim.run()
    assert rejected.failed and rejected.failure_reason == "tenant blackholed"
    assert len(failures) == 2
    # ...while the other tenant's flow completed untouched.
    summary = sched.tenant_summary()
    assert summary[8]["completed"] == 1.0 and summary[8]["failed"] == 0.0
    assert summary[4]["failed"] == 2.0 and summary[4]["completed"] == 0.0


def test_tenant_summary_tracks_bytes_backlog_and_refunds():
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=4.0, downlink=4.0)
    sched.set_tenant_weight(1, 0.5)
    sched.set_tenant_cap(1, 3.0)
    sched.submit(40.0, src=0, dst=1, tenant=1)
    sched.submit(60.0, src=2, dst=3, tenant=2)
    sched.submit(80.0, src=4, dst=5)  # untagged traffic is not a tenant row
    summary = sched.tenant_summary()
    assert set(summary) == {1, 2}
    assert summary[1]["backlog_bytes"] == pytest.approx(40.0)
    assert summary[1]["weight"] == 0.5 and summary[1]["cap"] == 3.0
    assert summary[2]["cap"] == -1.0  # uncapped sentinel
    sim.run()
    done = sched.tenant_summary()
    assert done[1]["bytes_completed"] == pytest.approx(40.0)
    assert done[2]["bytes_completed"] == pytest.approx(60.0)
    assert done[1]["backlog_bytes"] == 0.0 and done[1]["active"] == 0.0
    # A failed flow refunds its undelivered bytes into bytes_failed.
    sched.submit(100.0, src=6, dst=7, tenant=2)
    sched.set_node_bandwidth(6, uplink=0.0, downlink=0.0)
    sim.run()
    refunded = sched.tenant_summary()[2]
    assert refunded["failed"] == 1.0
    assert refunded["bytes_failed"] == pytest.approx(100.0)
    assert refunded["bytes_completed"] == pytest.approx(60.0)


def test_pacer_preserves_tenant_tags_across_the_window():
    """Queued submissions keep their tenant when admitted from the backlog."""
    sim = Simulator()
    sched = TransferScheduler(sim, uplink=2.0, downlink=2.0)
    pacer = TransferPacer(sched, max_in_flight=1, weight=0.5)
    specs = [TransferSpec(10.0, src=i, dst=i + 10, tenant=3) for i in range(4)]
    pacer.submit_many(specs)
    assert pacer.queue_depth == 3
    sim.run()
    assert pacer.idle
    summary = sched.tenant_summary()[3]
    assert summary["completed"] == 4.0
    assert summary["bytes_completed"] == pytest.approx(40.0)
