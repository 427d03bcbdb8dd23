"""Discrete-event simulation substrate.

The paper evaluates its storage system in the "simulator mode" of FreePastry:
a directly connected network of simulated nodes driven by an event loop.  This
package provides the equivalent substrate for the reproduction:

* :mod:`repro.sim.engine` -- a small generator-based discrete-event simulation
  kernel (events, processes, timeouts) used by the churn, recovery and
  multicast experiments.
* :mod:`repro.sim.rng` -- deterministic, named random-number streams so that
  every experiment is reproducible from a single seed.
* :mod:`repro.sim.churn` -- node failure / arrival processes used by the fault
  tolerance experiments (Section 6.2 of the paper).
* :mod:`repro.sim.stats` -- the one ``summarize()`` every report row's
  percentiles are cut from.
"""

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.churn import ChurnModel, FailureEvent, FailureSchedule

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "RandomStreams",
    "derive_seed",
    "ChurnModel",
    "FailureEvent",
    "FailureSchedule",
]
