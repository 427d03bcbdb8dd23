"""Unit tests for the fair-share transfer scheduler (core/transfer.py)."""

from __future__ import annotations

import pytest

from repro.core.transfer import TransferPacer, TransferScheduler, TransferSpec
from repro.sim.engine import Simulator


def _scheduler(uplink=None, downlink=None):
    sim = Simulator()
    return sim, TransferScheduler(sim, uplink=uplink, downlink=downlink)


def test_single_transfer_takes_size_over_bottleneck():
    sim, sched = _scheduler(uplink=100.0, downlink=50.0)
    done = []
    sched.submit(500.0, src=1, dst=2, on_complete=lambda t: done.append(sim.now))
    sim.run()
    # Bottleneck is the 50 B/s downlink: 500 bytes take 10 time units.
    assert done == [pytest.approx(10.0)]
    assert sched.idle
    assert sched.last_completion_time == pytest.approx(10.0)


def test_two_transfers_share_a_common_downlink_fairly():
    sim, sched = _scheduler(uplink=None, downlink=100.0)
    t1 = sched.submit(300.0, src=1, dst=9)
    t2 = sched.submit(300.0, src=2, dst=9)
    # Equal split of the shared downlink while both are active.
    assert t1.rate == pytest.approx(50.0)
    assert t2.rate == pytest.approx(50.0)
    sim.run()
    assert t1.finished_at == pytest.approx(6.0)
    assert t2.finished_at == pytest.approx(6.0)


def test_release_of_bottleneck_speeds_up_survivor():
    sim, sched = _scheduler(uplink=None, downlink=100.0)
    t1 = sched.submit(100.0, src=1, dst=9)
    t2 = sched.submit(300.0, src=2, dst=9)
    sim.run()
    # Both run at 50 until t1 finishes at t=2; t2 then gets the full 100:
    # 300 - 50*2 = 200 remaining at 100 B/s -> finishes at t=4.
    assert t1.finished_at == pytest.approx(2.0)
    assert t2.finished_at == pytest.approx(4.0)


def test_progressive_filling_respects_per_flow_bottlenecks():
    """A slow uplink flow leaves its unused downlink share to the others."""
    sim, sched = _scheduler(uplink=None, downlink=90.0)
    sched.set_node_bandwidth(1, uplink=10.0, downlink=None)
    slow = sched.submit(10.0, src=1, dst=9)
    fast_a = sched.submit(40.0, src=2, dst=9)
    fast_b = sched.submit(40.0, src=3, dst=9)
    # Progressive filling: slow is frozen at its 10 B/s uplink; the remaining
    # 80 B/s of the shared downlink splits between the other two.
    assert slow.rate == pytest.approx(10.0)
    assert fast_a.rate == pytest.approx(40.0)
    assert fast_b.rate == pytest.approx(40.0)
    sim.run()
    assert slow.finished_at == pytest.approx(1.0)
    assert fast_a.finished_at == pytest.approx(1.0)
    assert fast_b.finished_at == pytest.approx(1.0)


def test_unconstrained_transfer_completes_instantly():
    sim, sched = _scheduler()
    transfer = sched.submit(1e9, src=None, dst=None)
    sim.run()
    assert transfer.done
    assert transfer.finished_at == pytest.approx(0.0)


def test_staggered_submissions_account_for_progress():
    sim, sched = _scheduler(uplink=100.0)
    first = sched.submit(400.0, src=1, dst=2)
    # Let the first transfer run alone for 2 units, then contend.
    second = []
    sim.schedule(2.0, lambda: second.append(sched.submit(100.0, src=1, dst=3)))
    sim.run()
    # First moves 200 bytes alone, then both share 100 B/s (50 each).  The
    # second finishes its 100 bytes at t=4; the first then runs at full rate:
    # 400 - 200 - 50*2 = 100 remaining -> finishes at t=5.
    assert second[0].finished_at == pytest.approx(4.0)
    assert first.finished_at == pytest.approx(5.0)


def test_per_node_byte_accounting_and_summary():
    sim, sched = _scheduler(uplink=100.0, downlink=100.0)
    sched.submit_many([TransferSpec(100.0, 1, 2), TransferSpec(50.0, 1, 3)])
    sim.run()
    assert sched.bytes_out[1] == pytest.approx(150.0)
    assert sched.bytes_in[2] == pytest.approx(100.0)
    assert sched.bytes_in[3] == pytest.approx(50.0)
    summary = sched.summary()
    assert summary["submitted"] == 2.0
    assert summary["completed"] == 2.0
    assert summary["bytes_completed"] == pytest.approx(150.0)
    assert summary["active"] == 0.0


def test_schedule_is_deterministic():
    def run_once():
        sim, sched = _scheduler(uplink=70.0, downlink=130.0)
        finishes = []
        for index in range(20):
            sched.submit(
                100.0 + 7 * index,
                src=index % 4,
                dst=10 + index % 3,
                on_complete=lambda t: finishes.append((t.seq, sim.now)),
            )
        sim.run()
        return finishes

    assert run_once() == run_once()


def test_rejects_bad_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        TransferScheduler(sim, uplink=0.0)
    with pytest.raises(ValueError):
        TransferScheduler(sim, downlink=-1.0)
    sched = TransferScheduler(sim, uplink=10.0)
    with pytest.raises(ValueError):
        sched.submit(-5.0, src=1, dst=2)


@pytest.mark.parametrize("field", ["size", "weight", "timeout"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_inputs_are_rejected_before_any_counter_moves(field, value):
    """NaN is False under every ``<`` / ``<=`` guard; once accepted it turns
    ``bytes_submitted`` / ``bytes_out`` into NaN and the conservation law
    (delivered + refunded == submitted) can no longer fail."""
    sim, sched = _scheduler(uplink=10.0, downlink=10.0)
    good = TransferSpec(40.0, 1, 2)
    with pytest.raises(ValueError):
        sched.submit(**{"size": 40.0, "src": 1, "dst": 2, field: value})
    with pytest.raises(ValueError):  # the whole batch is refused, not a prefix of it
        sched.submit_many([good, TransferSpec(**{"size": 40.0, "src": 1, "dst": 2, field: value})])
    with pytest.raises(ValueError):  # the class weight multiplies into every flow's
        sched.set_tenant_weight(0, value)
    with pytest.raises(ValueError):
        TransferPacer(sched, weight=value)
    with pytest.raises(ValueError):
        sched.set_node_bandwidth(1, uplink=float("nan"))
    assert sched.idle and sched.summary()["submitted"] == 0.0
    assert (sched.bytes_submitted, sched.bytes_out, sched.bytes_in) == (0.0, {}, {})
    sched.submit_many([good])
    sim.run()
    summary = sched.summary()
    assert summary["bytes_completed"] == summary["bytes_submitted"] == sched.bytes_out[1] == 40.0


def test_completion_callback_runs_at_completion_time_not_submit_time():
    sim, sched = _scheduler(uplink=10.0)
    seen = []
    sched.submit(100.0, src=1, dst=2, on_complete=lambda t: seen.append(sim.now))
    assert seen == []  # nothing fires synchronously at submit
    sim.run(until=5.0)
    assert seen == []  # still in flight at t=5
    sim.run()
    assert seen == [pytest.approx(10.0)]


# ----------------------------------------------------------- failure semantics --
def test_submit_to_dead_endpoint_fails_deterministically():
    """A zero-bandwidth endpoint fails the transfer instead of stalling."""
    sim, sched = _scheduler(uplink=100.0, downlink=100.0)
    sched.set_node_bandwidth(7, uplink=0.0, downlink=0.0)
    failed, completed = [], []
    dead_src = sched.submit(
        100.0, src=7, dst=2,
        on_complete=lambda t: completed.append(t),
        on_failed=lambda t: failed.append((t, sim.now)),
    )
    assert failed == []  # nothing fires synchronously at submit
    sim.run()
    assert completed == []
    assert failed == [(dead_src, pytest.approx(0.0))]
    assert dead_src.failed and not dead_src.done
    assert dead_src.failure_reason == "dead endpoint"
    assert sched.idle
    summary = sched.summary()
    assert summary["failed"] == 1.0
    assert summary["bytes_failed"] == pytest.approx(100.0)


def test_midflight_endpoint_failure_fails_crossing_transfers():
    """Cutting a node's bandwidth to zero fails its in-flight transfers."""
    sim, sched = _scheduler(uplink=100.0, downlink=100.0)
    failed, completed = [], []
    doomed = sched.submit(
        1000.0, src=1, dst=2,
        on_complete=lambda t: completed.append(t),
        on_failed=lambda t: failed.append(sim.now),
    )
    survivor = sched.submit(300.0, src=3, dst=4, on_complete=lambda t: completed.append(t))
    sim.schedule(2.0, lambda: sched.set_node_bandwidth(1, uplink=0.0, downlink=0.0))
    sim.run()
    assert failed == [pytest.approx(2.0)]
    assert doomed.failed
    # The undelivered residual is refunded: the ledger keeps only the 200
    # bytes that actually crossed the link before the failure.
    assert sched.bytes_out.get(1, 0.0) == pytest.approx(200.0)
    assert sched.summary()["bytes_failed"] == pytest.approx(800.0)
    assert completed == [survivor]
    assert survivor.finished_at == pytest.approx(3.0)


def test_bandwidth_reset_during_active_transfer_reshapes_rate():
    """set_node_bandwidth on a live transfer re-shares rates going forward."""
    sim, sched = _scheduler(uplink=100.0, downlink=None)
    transfer = sched.submit(400.0, src=1, dst=2)
    assert transfer.rate == pytest.approx(100.0)
    # After 2 units (200 bytes moved) the uplink is halved: the remaining
    # 200 bytes drain at 50 B/s and finish at t = 2 + 4 = 6.
    sim.schedule(2.0, lambda: sched.set_node_bandwidth(1, uplink=50.0, downlink=None))
    sim.run()
    assert transfer.done
    assert transfer.finished_at == pytest.approx(6.0)
    assert sched.bytes_out[1] == pytest.approx(400.0)


def test_transfer_timeout_fails_via_on_failed():
    sim, sched = _scheduler(uplink=10.0)
    failed = []
    slow = sched.submit(
        1000.0, src=1, dst=2, on_failed=lambda t: failed.append(sim.now), timeout=5.0
    )
    ok = sched.submit(20.0, src=3, dst=4)
    sim.run()
    assert failed == [pytest.approx(5.0)]
    assert slow.failed and slow.failure_reason == "timeout"
    assert ok.done
    with pytest.raises(ValueError):
        sched.submit(10.0, src=1, dst=2, timeout=0.0)
