"""Participant churn models.

Section 6.2 of the paper studies fault tolerance by failing randomly chosen
nodes one-by-one (up to 10% of 10 000 nodes for the availability experiment
and up to 20% for the regeneration experiment) "without any node recovery",
and by introducing a recovery delay proportional to the amount of data that
has to be regenerated.  This module provides:

* :class:`FailureSchedule` -- a deterministic ordered list of node failures
  (the paper's fail-one-by-one methodology);
* :class:`ChurnModel` -- a continuous churn process (exponential session and
  down times) used by the extension experiments and property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

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

    def __getitem__(self, index: int) -> FailureEvent:
        return self._events[index]

    @property
    def node_ids(self) -> List[int]:
        """Node ids in failure order."""
        return [event.node_id for event in self._events]

    def up_to(self, count: int) -> List[FailureEvent]:
        """The first ``count`` failures of the schedule."""
        return self._events[:count]


@dataclass(frozen=True)
class SessionSample:
    """One node's alternating up/down session lengths."""

    node_id: int
    up_times: np.ndarray
    down_times: np.ndarray


class ChurnModel:
    """Continuous churn: nodes alternate exponential up and down sessions.

    This goes beyond the paper's fail-without-recovery methodology and is used
    by the extension benchmarks and by property tests that check the recovery
    pipeline under sustained churn.

    Sessions are sampled in geometrically *doubling* batches: the first block
    is sized by a concentration bound on the expected pair count
    (``E + 4*sqrt(E)`` pairs), so a single draw covers the horizon with
    overwhelming probability, and each follow-up block -- only ever needed on
    heavy-tailed outliers -- doubles the previous size, bounding the number of
    RNG calls at ``O(log)`` regardless of the tail.  The *returned* session
    lengths equal the seed's one-pair-at-a-time loop value-for-value (NumPy's
    exponential consumes the bit stream the same way batched or one at a
    time, and the batch is trimmed at the first pair crossing the horizon;
    ``tests/reference/seed_churn.py`` keeps that loop as the oracle).  The
    batches over-draw past the horizon, so the generator state after a call
    is not the scalar loop's.
    """

    def __init__(self, mean_uptime: float, mean_downtime: float, rng: np.random.Generator) -> None:
        if mean_uptime <= 0 or mean_downtime <= 0:
            raise ValueError("mean up/down times must be positive")
        self.mean_uptime = float(mean_uptime)
        self.mean_downtime = float(mean_downtime)
        self._rng = rng

    def sample_sessions(self, node_id: int, horizon: float) -> SessionSample:
        """Sample alternating up/down session lengths covering ``horizon``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        # First block: expectation plus a 4-sigma concentration margin -- one
        # draw covers the horizon w.h.p.
        expected = horizon / (self.mean_uptime + self.mean_downtime)
        batch = max(4, int(expected + 4.0 * expected ** 0.5) + 4)
        batches: list[np.ndarray] = []
        elapsed = 0.0
        while True:
            pairs = self._rng.standard_exponential(size=(batch, 2))
            pairs[:, 0] *= self.mean_uptime
            pairs[:, 1] *= self.mean_downtime
            totals = elapsed + np.cumsum(pairs.sum(axis=1))
            crossing = int(np.searchsorted(totals, horizon, side="left"))
            if crossing < batch:
                # The scalar loop includes the pair that crosses the horizon.
                batches.append(pairs[: crossing + 1])
                break
            batches.append(pairs)
            elapsed = float(totals[-1])
            # Follow-ups (heavy-tail outliers only): geometric doubling bounds
            # the RNG call count at O(log) regardless of the tail.
            batch *= 2
        sessions = np.concatenate(batches) if len(batches) > 1 else batches[0]
        return SessionSample(
            node_id=node_id,
            up_times=np.ascontiguousarray(sessions[:, 0]),
            down_times=np.ascontiguousarray(sessions[:, 1]),
        )

    def availability(self) -> float:
        """Long-run fraction of time a node is up."""
        return self.mean_uptime / (self.mean_uptime + self.mean_downtime)

    def failure_times(self, node_ids: Iterable[int], horizon: float) -> List[FailureEvent]:
        """First failure time of each node within ``horizon`` (if any), ordered by time.

        Vectorised: one batched exponential draw for the whole population.
        NumPy's ``Generator.exponential`` consumes the bit stream identically
        whether drawn one-by-one or as an array, so this matches the seed
        scalar loop draw-for-draw.
        """
        ids = list(node_ids)
        if not ids:
            return []
        first_ups = self._rng.exponential(self.mean_uptime, size=len(ids))
        within = first_ups < horizon
        order = np.argsort(first_ups[within], kind="stable")
        surviving_ids = np.asarray(ids, dtype=object)[within]
        times = first_ups[within]
        return [
            FailureEvent(order=index, node_id=surviving_ids[pick], time=float(times[pick]))
            for index, pick in enumerate(order)
        ]
