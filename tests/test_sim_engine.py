"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim.engine import Event, SimulationError, Simulator


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
    with pytest.raises(SimulationError):
        sim.timeout(delay)
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


def test_event_succeed_delivers_value_to_callbacks():
    sim = Simulator()
    received = []
    event = sim.event()
    event.add_callback(lambda e: received.append(e.value))
    sim.schedule(2.0, lambda: event.succeed("payload"))
    sim.run()
    assert received == ["payload"]
    assert event.triggered and event.ok


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_timeout_fires_at_expected_time():
    sim = Simulator()
    times = []
    timeout = sim.timeout(4.5, value="done")
    timeout.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(4.5, "done")]


def test_process_waits_on_timeouts():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield sim.timeout(2.0)
        trace.append(("after-2", sim.now))
        yield sim.timeout(3.0)
        trace.append(("after-5", sim.now))
        return "finished"

    process = sim.process(worker())
    result = sim.run_until_complete(process)
    assert result == "finished"
    assert trace == [("start", 0.0), ("after-2", 2.0), ("after-5", 5.0)]


def test_process_receives_event_value():
    sim = Simulator()
    gate = sim.event()

    def worker():
        value = yield gate
        return value * 2

    process = sim.process(worker())
    sim.schedule(1.0, lambda: gate.succeed(21))
    assert sim.run_until_complete(process) == 42


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    process = sim.process(worker())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_complete(process)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def worker():
        yield 42  # not an Event

    process = sim.process(worker())
    with pytest.raises(SimulationError):
        sim.run_until_complete(process)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    timeouts = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
    gate = sim.all_of(timeouts)
    seen = []
    gate.add_callback(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen == [(3.0, [1.0, 3.0, 2.0])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    gate = sim.all_of([])
    assert gate.triggered and gate.value == []


def test_any_of_fires_on_first_event():
    sim = Simulator()
    gate = sim.any_of([sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")])
    seen = []
    gate.add_callback(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen[0] == (1.0, "fast")


def test_deadlock_detected_in_run_until_complete():
    sim = Simulator()

    def worker():
        yield sim.event()  # nobody will ever trigger this

    process = sim.process(worker())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_events_processed_counter_increases():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5
