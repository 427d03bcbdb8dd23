"""Participant failure schedules.

Section 6.2 of the paper studies fault tolerance by failing randomly chosen
nodes one-by-one (up to 10% of 10 000 nodes for the availability experiment
and up to 20% for the regeneration experiment) "without any node recovery",
and by introducing a recovery delay proportional to the amount of data that
has to be regenerated.  :class:`FailureSchedule` is that deterministic ordered
list of node failures.  (Continuous session churn -- exponential up and down
times -- is drawn by the soak experiment itself, see
:mod:`repro.experiments.soak`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np


@dataclass(frozen=True)
class FailureEvent:
    """A single node failure: which node, at what (virtual) time, in what order."""

    order: int
    node_id: int
    time: float


class FailureSchedule:
    """An ordered schedule of node failures without recovery.

    Parameters
    ----------
    node_ids:
        The population of node identifiers that may fail.
    fraction:
        Fraction of the population to fail (e.g. ``0.1`` for the paper's
        Figure 10, ``0.2`` for Table 3).
    rng:
        NumPy generator used to pick the failure order.
    spacing:
        Virtual time between consecutive failures.  The storage experiments
        only need the *order*, but the recovery experiment (Table 3) spaces
        failures so that recovery delays can overlap subsequent failures.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        fraction: float,
        rng: np.random.Generator,
        spacing: float = 1.0,
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        population = list(node_ids)
        count = int(round(len(population) * fraction))
        count = min(count, len(population))
        chosen = rng.choice(len(population), size=count, replace=False)
        self._events: List[FailureEvent] = [
            FailureEvent(order=index, node_id=population[int(pick)], time=index * spacing)
            for index, pick in enumerate(chosen)
        ]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self._events)

    @property
    def node_ids(self) -> List[int]:
        """Node ids in failure order."""
        return [event.node_id for event in self._events]

    def up_to(self, count: int) -> List[FailureEvent]:
        """The first ``count`` failures of the schedule."""
        return self._events[:count]
