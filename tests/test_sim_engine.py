"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append("late"))
    sim.schedule(1.0, lambda: seen.append("early"))
    sim.schedule(3.0, lambda: seen.append("middle"))
    sim.run()
    assert seen == ["early", "middle", "late"]
    assert sim.now == 5.0


def test_same_time_events_run_in_fifo_order():
    sim = Simulator()
    seen = []
    for index in range(10):
        sim.schedule(1.0, lambda index=index: seen.append(index))
    sim.run()
    assert seen == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_delay_rejected(delay):
    # NaN fails ``delay < 0``, would fire first and set ``sim.now`` to NaN.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(delay, lambda: None)
    assert sim.run() == 0.0 and sim.events_processed == 0


def test_same_time_order_survives_a_cancelled_entry_between():
    """Heap entries are ``(time, order, entry)`` tuples: ties fall to the
    scheduling order, never to the entry, and lazy cancellation still skips."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append("first"))
    doomed = sim.schedule(1.0, lambda: seen.append("cancelled"))
    sim.schedule(1.0, lambda: seen.append("second"))
    sim.cancel(doomed)
    assert sim.run(until=1.0) == 1.0
    assert seen == ["first", "second"]
    assert sim.events_processed == 2


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    entry = sim.schedule(1.0, lambda: seen.append("cancelled"))
    sim.schedule(2.0, lambda: seen.append("kept"))
    sim.cancel(entry)
    sim.run()
    assert seen == ["kept"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(10.0, lambda: seen.append(10))
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0


def test_events_processed_counter_increases():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5
