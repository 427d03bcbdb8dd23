"""A minimal Condor-style matchmaking scheduler.

The reproduction only needs enough of Condor to run the case study: jobs are
submitted to a queue, matched FIFO to idle machines, and their I/O goes
through the interposition layer.  Job run time is whatever the job's body
reports (for ``bigCopy`` that is dominated by simulated transfer time), so the
scheduler tracks per-machine busy windows on a virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.grid.machines import GridMachine
from repro.overlay.validation import require_range


class SchedulingError(RuntimeError):
    """Raised when a job cannot be matched to any machine."""


@dataclass
class CondorJob:
    """A job: a name plus a body that runs on a machine and reports its duration.

    The body receives the machine it was matched to and must return the
    simulated seconds the job took (and may carry any payload via attributes
    it sets on itself).
    """

    name: str
    body: Callable[[GridMachine], float]
    submitted_at: float = 0.0


@dataclass(frozen=True)
class JobResult:
    """Completion record of one job."""

    job_name: str
    machine_name: str
    started_at: float
    finished_at: float


@dataclass
class CondorPool:
    """A pool of machines plus a FIFO job queue."""

    machines: List[GridMachine]
    queue: List[CondorJob] = field(default_factory=list)
    results: List[JobResult] = field(default_factory=list)
    now: float = 0.0

    def submit(self, job: CondorJob) -> None:
        """Queue a job for execution."""
        job.submitted_at = self.now
        self.queue.append(job)

    def _next_idle_machine(self) -> Optional[GridMachine]:
        idle = self.idle_machines()
        if not idle:
            return None
        # Deterministic choice: least-loaded, then name order.
        idle.sort(key=lambda machine: (machine.jobs_run, machine.name))
        return idle[0]

    def _advance_to_next_completion(self) -> None:
        busy_times = [machine.busy_until for machine in self.machines if machine.busy_until > self.now]
        if not busy_times:
            raise SchedulingError("no machine will ever become idle")
        self.now = min(busy_times)

    def run_all(self) -> List[JobResult]:
        """Run every queued job to completion (FIFO order)."""
        pending = list(self.queue)
        self.queue.clear()
        for job in pending:
            machine = self._next_idle_machine()
            while machine is None:
                self._advance_to_next_completion()
                machine = self._next_idle_machine()
            started = max(self.now, job.submitted_at)
            duration = require_range(f"duration of job {job.name!r}", float(job.body(machine)), 0)
            finished = started + duration
            machine.busy_until = finished
            machine.jobs_run += 1
            self.results.append(
                JobResult(
                    job_name=job.name,
                    machine_name=machine.name,
                    started_at=started,
                    finished_at=finished,
                )
            )
        if self.results:
            self.now = max(result.finished_at for result in self.results)
        return list(self.results)

    def makespan(self) -> float:
        """Completion time of the last finished job."""
        return max((result.finished_at for result in self.results), default=0.0)

    def idle_machines(self) -> List[GridMachine]:
        """Machines idle at the current simulated time."""
        return [machine for machine in self.machines if machine.is_idle(self.now)]
