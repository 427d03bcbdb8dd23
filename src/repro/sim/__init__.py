"""Discrete-event simulation substrate.

The paper evaluates its storage system in the "simulator mode" of FreePastry:
a directly connected network of simulated nodes driven by an event loop.  This
package provides the equivalent substrate for the reproduction:

* :mod:`repro.sim.engine` -- a small discrete-event kernel (a virtual clock
  and a queue of scheduled callbacks) that drives the churn, repair, fault,
  tenant and serving experiments.
* :mod:`repro.sim.rng` -- deterministic, named random-number streams so that
  every experiment is reproducible from a single seed.
* :mod:`repro.sim.churn` -- the fail-one-by-one failure schedule of the fault
  tolerance experiments (Section 6.2 of the paper).
* :mod:`repro.sim.stats` -- the one ``summarize()`` every report row's
  percentiles are cut from.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.churn import FailureEvent, FailureSchedule

__all__ = [
    "Simulator",
    "RandomStreams",
    "derive_seed",
    "FailureEvent",
    "FailureSchedule",
]
