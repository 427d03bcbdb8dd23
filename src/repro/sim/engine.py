"""A compact discrete-event simulation kernel.

The kernel follows the classic event-queue design: a priority queue of
``(time, tie_breaker, callback)`` entries and a virtual clock that jumps from
event to event.  On top of the raw event queue a *process* abstraction is
provided: a process is a Python generator that ``yield``\\ s :class:`Timeout`
or :class:`Event` objects and is resumed when the yielded condition fires.
This is the same programming model as SimPy, implemented here from scratch so
the reproduction has no dependencies beyond NumPy.

The kernel is intentionally single-threaded and deterministic: two runs with
the same seed and the same schedule produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation kernel."""


class Event:
    """A one-shot condition that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`) makes
    it fire at the current simulation time, resuming every process that is
    waiting on it.  Events may carry an arbitrary ``value``.
    """

    __slots__ = ("sim", "_value", "_ok", "_fired", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._ok: bool = True
        self._fired: bool = False
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._fired

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (vs. failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """Value the event fired with (exception instance if it failed)."""
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event fires."""
        if self._fired:
            # Fire immediately (still through the scheduler for determinism).
            self.sim.schedule(0.0, lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value``."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception that will be raised in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._trigger(exception, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self._fired:
            raise SimulationError("event already triggered")
        self._fired = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.sim.schedule(0.0, lambda cb=callback: cb(self))


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        sim.schedule(self.delay, lambda: self.succeed(value))


class Process(Event):
    """A running process.  Also an event that fires when the process returns."""

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator (did you call the function?)")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current time.
        sim.schedule(0.0, lambda: self._resume(None, None))

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate into waiters
            self.fail(error)
            return
        if not isinstance(target, Event):
            self._resume(None, SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event/Timeout"
            ))
            return
        target.add_callback(self._on_target_fired)

    def _on_target_fired(self, event: Event) -> None:
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)


@dataclass(eq=False, slots=True)
class _QueueEntry:
    """The handle ``schedule`` returns; the heap orders ``(time, order, entry)``
    tuples, which compare in C and (``order`` being unique) never reach it."""

    callback: Callable[[], None]
    cancelled: bool = False


class Simulator:
    """Event loop: a virtual clock plus a priority queue of callbacks."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, _QueueEntry]] = []
        self._counter = itertools.count()
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of executed callbacks (a determinism fingerprint)."""
        return self._event_count

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> _QueueEntry:
        """Run ``callback`` after ``delay`` simulated time units."""
        if not 0 <= delay < math.inf:  # also False for NaN
            raise SimulationError(f"delay must be finite and >= 0 (delay={delay!r})")
        entry = _QueueEntry(callback)
        heapq.heappush(self._queue, (self._now + float(delay), next(self._counter), entry))
        return entry

    def cancel(self, entry: _QueueEntry) -> None:
        """Cancel a previously scheduled callback (lazy removal)."""
        entry.cancelled = True

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Return an event that fires once every event in ``events`` has fired."""
        events = list(events)
        gate = self.event()
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining

        def make_cb(index: int) -> Callable[[Event], None]:
            def _cb(event: Event) -> None:
                nonlocal remaining
                if not gate.triggered:
                    if not event.ok:
                        gate.fail(event.value)
                        return
                    results[index] = event.value
                    remaining -= 1
                    if remaining == 0:
                        gate.succeed(list(results))
            return _cb

        for index, event in enumerate(events):
            event.add_callback(make_cb(index))
        return gate

    def any_of(self, events: Iterable[Event]) -> Event:
        """Return an event that fires as soon as any event in ``events`` fires."""
        events = list(events)
        gate = self.event()
        if not events:
            gate.succeed(None)
            return gate

        def _cb(event: Event) -> None:
            if not gate.triggered:
                if event.ok:
                    gate.succeed(event.value)
                else:
                    gate.fail(event.value)

        for event in events:
            event.add_callback(_cb)
        return gate

    # -- running ------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False if queue empty."""
        while self._queue:
            time, _, entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            if time < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            self._now = time
            self._event_count += 1
            entry.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time at which the run stopped.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_time = self._peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = float(until)
                break
            if not self.step():
                break
            executed += 1
        if until is not None and self._now < until and not self._queue:
            self._now = float(until)
        return self._now

    def run_until_complete(self, process: Process, max_events: int = 10_000_000) -> Any:
        """Run until ``process`` finishes and return its value (or raise)."""
        executed = 0
        while not process.triggered:
            if executed >= max_events:
                raise SimulationError("run_until_complete exceeded max_events")
            if not self.step():
                raise SimulationError(
                    f"deadlock: process {process.name!r} never finished and queue is empty"
                )
            executed += 1
        if not process.ok:
            raise process.value
        return process.value

    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None
