"""Unit tests for failure schedules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.churn import FailureSchedule


def test_failure_schedule_size_matches_fraction():
    rng = np.random.default_rng(0)
    schedule = FailureSchedule(list(range(100)), 0.2, rng)
    assert len(schedule) == 20


def test_failure_schedule_nodes_unique_and_from_population():
    rng = np.random.default_rng(1)
    population = list(range(50))
    schedule = FailureSchedule(population, 0.5, rng)
    chosen = [event.node_id for event in schedule]
    assert len(set(chosen)) == len(chosen)
    assert set(chosen) <= set(population)


def test_failure_schedule_times_follow_spacing():
    rng = np.random.default_rng(2)
    schedule = FailureSchedule(list(range(10)), 1.0, rng, spacing=2.5)
    times = [event.time for event in schedule]
    assert times == [2.5 * index for index in range(10)]


def test_failure_schedule_rejects_bad_fraction_and_spacing():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        FailureSchedule([1, 2, 3], 1.5, rng)
    # NaN spacing gives NaN times, and inf gives [nan, inf, ...] (0 x inf):
    # both must fail here, not later inside Simulator.schedule.
    for spacing in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            FailureSchedule([1, 2, 3], 0.5, rng, spacing=spacing)


def test_failure_schedule_is_deterministic_for_seed():
    one = FailureSchedule(list(range(40)), 0.25, np.random.default_rng(9))
    two = FailureSchedule(list(range(40)), 0.25, np.random.default_rng(9))
    assert list(one) == list(two)
