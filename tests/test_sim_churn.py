"""Unit tests for churn models and failure schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.churn import ChurnModel, FailureSchedule

from reference.seed_churn import scalar_sessions


def test_failure_schedule_size_matches_fraction():
    rng = np.random.default_rng(0)
    schedule = FailureSchedule(list(range(100)), 0.2, rng)
    assert len(schedule) == 20


def test_failure_schedule_nodes_unique_and_from_population():
    rng = np.random.default_rng(1)
    population = list(range(50))
    schedule = FailureSchedule(population, 0.5, rng)
    chosen = schedule.node_ids
    assert len(set(chosen)) == len(chosen)
    assert set(chosen) <= set(population)


def test_failure_schedule_times_follow_spacing():
    rng = np.random.default_rng(2)
    schedule = FailureSchedule(list(range(10)), 1.0, rng, spacing=2.5)
    times = [event.time for event in schedule]
    assert times == [2.5 * index for index in range(10)]


def test_failure_schedule_up_to_prefix():
    rng = np.random.default_rng(3)
    schedule = FailureSchedule(list(range(30)), 1.0, rng)
    assert [event.node_id for event in schedule.up_to(5)] == schedule.node_ids[:5]


def test_failure_schedule_rejects_bad_fraction_and_spacing():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        FailureSchedule([1, 2, 3], 1.5, rng)
    with pytest.raises(ValueError):
        FailureSchedule([1, 2, 3], 0.5, rng, spacing=0)


def test_failure_schedule_is_deterministic_for_seed():
    one = FailureSchedule(list(range(40)), 0.25, np.random.default_rng(9))
    two = FailureSchedule(list(range(40)), 0.25, np.random.default_rng(9))
    assert one.node_ids == two.node_ids


def test_churn_model_availability():
    model = ChurnModel(mean_uptime=90.0, mean_downtime=10.0, rng=np.random.default_rng(0))
    assert model.availability() == pytest.approx(0.9)


def test_churn_model_sessions_cover_horizon():
    model = ChurnModel(mean_uptime=5.0, mean_downtime=5.0, rng=np.random.default_rng(1))
    sample = model.sample_sessions(node_id=7, horizon=100.0)
    assert sample.node_id == 7
    assert (sample.up_times > 0).all()
    assert (sample.down_times > 0).all()
    assert sample.up_times.sum() + sample.down_times.sum() >= 100.0


def test_churn_model_failure_times_sorted_and_within_horizon():
    model = ChurnModel(mean_uptime=10.0, mean_downtime=1.0, rng=np.random.default_rng(2))
    events = model.failure_times(range(200), horizon=20.0)
    times = [event.time for event in events]
    assert times == sorted(times)
    assert all(0 <= t < 20.0 for t in times)
    assert [event.order for event in events] == list(range(len(events)))


def test_churn_model_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        ChurnModel(0.0, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ChurnModel(1.0, -1.0, np.random.default_rng(0))
    model = ChurnModel(1.0, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.sample_sessions(1, horizon=0.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mean_up=st.floats(min_value=0.01, max_value=100.0),
    mean_down=st.floats(min_value=0.01, max_value=100.0),
    expected_pairs=st.floats(min_value=1e-3, max_value=3000.0),
)
@example(seed=21, mean_up=5.0, mean_down=2.0, expected_pairs=1000.0 / 7.0)
@example(seed=5, mean_up=5.0, mean_down=2.0, expected_pairs=0.01 / 7.0)
@example(seed=77, mean_up=0.01, mean_down=0.01, expected_pairs=2500.0)  # the heavy-tail regime
@settings(max_examples=60, deadline=None)
def test_sample_sessions_equal_the_reference_scalar_sampler(seed, mean_up, mean_down, expected_pairs):
    """Batched draws, same kept values: the seed's scalar loop is the oracle."""
    horizon = expected_pairs * (mean_up + mean_down)
    expected_ups, expected_downs = scalar_sessions(
        mean_up, mean_down, np.random.default_rng(seed), horizon
    )
    sample = ChurnModel(mean_up, mean_down, np.random.default_rng(seed)).sample_sessions(
        node_id=4, horizon=horizon
    )
    assert np.array_equal(sample.up_times, expected_ups)
    assert np.array_equal(sample.down_times, expected_downs)


class _ShortSessions:
    """A generator whose exponentials come out ``shrink`` times too short."""

    def __init__(self, seed: int, shrink: float) -> None:
        self._rng = np.random.default_rng(seed)
        self._shrink = shrink

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size=size) * self._shrink

    def exponential(self, scale):
        return self._rng.standard_exponential() * self._shrink * scale


def test_stream_version_3_survives_heavy_tail_shortfalls():
    """When the first concentration-sized block falls short, doubling covers it.

    ("Stream version 3" is the historical name of the doubling-batch sampler,
    the only one ``ChurnModel`` has.)  A tiny mean against a huge horizon
    forces many pairs; sessions 40x shorter than their mean force the first
    block and several doubled follow-ups to fall short.  Whatever the block
    layout, the kept values must still equal the scalar stream.
    """
    for mean, horizon, rng, oracle_rng, beyond_first_block in (
        (0.01, 50.0, np.random.default_rng(77), np.random.default_rng(77), 0),
        # First block: 66 + 4*sqrt(66) + 4 = 103 pairs; ~2 700 are needed.
        (3.0, 400.0, _ShortSessions(8, 1 / 40), _ShortSessions(8, 1 / 40), 8 * 103),
    ):
        expected_ups, expected_downs = scalar_sessions(mean, mean, oracle_rng, horizon)
        sample = ChurnModel(mean, mean, rng).sample_sessions(node_id=1, horizon=horizon)
        assert np.array_equal(sample.up_times, expected_ups)
        assert np.array_equal(sample.down_times, expected_downs)
        assert len(sample.up_times) > beyond_first_block


def test_failure_times_match_seed_scalar_loop():
    mean_up, horizon = 10.0, 20.0
    rng = np.random.default_rng(31)
    events = []
    for node_id in range(200):
        first_up = float(rng.exponential(mean_up))
        if first_up < horizon:
            events.append((node_id, first_up))
    events.sort(key=lambda pair: pair[1])

    model = ChurnModel(mean_up, 1.0, np.random.default_rng(31))
    batched = model.failure_times(range(200), horizon=horizon)
    assert [(e.node_id, e.time) for e in batched] == events
    assert [e.order for e in batched] == list(range(len(events)))
