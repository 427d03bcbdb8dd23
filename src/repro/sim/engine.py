"""A compact discrete-event simulation kernel.

The kernel follows the classic event-queue design: a priority queue of
``(time, tie_breaker, callback)`` entries and a virtual clock that jumps from
event to event.  Everything that happens in a simulation is a callback
scheduled on that queue (transfer completions, failures, repairs, request
arrivals); there are no generator-based processes.

The kernel is intentionally single-threaded and deterministic: two runs with
the same seed and the same schedule produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation kernel."""


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

    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None
