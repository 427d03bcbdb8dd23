"""Oracle tests for the join/leave churn-soak experiment.

The soak engine composes every dynamic path of the system -- session
failures, regeneration, wiped returns, Poisson joins (the incremental
boundary insertion patch), graceful departures (row release) and periodic
ledger compaction.  The oracles assert that none of the optimizations is
observable: the seed dict-walk soak (its sampled series frozen in
``tests/golden/soak_series.json``), the ledger path and the ledger path with
compaction disabled must all sample identical series.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from reference import dict_walk
from reference.golden import load_golden

from repro.experiments.soak import PAPER_SOAK, SoakConfig, SoakExperiment
from repro.workloads.filetrace import MB

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

#: Small but non-trivial: ~180 failures, ~50 joins/leaves over two sim-days.
SMALL = SoakConfig(
    node_count=70,
    file_count=180,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    mean_file_size=24 * MB,
    std_file_size=8 * MB,
    min_file_size=4 * MB,
    horizon_hours=48.0,
    mean_uptime_hours=12.0,
    mean_downtime_hours=2.0,
    join_rate_per_hour=1.0,
    leave_rate_per_hour=1.0,
    sample_every_hours=4.0,
    compact_every_hours=12.0,
    seed=17,
)

_SERIES = ("time_hours", "live_nodes", "unavailable_pct", "utilization_pct")


def _assert_matches_seed_soak(vector, scalar: dict) -> None:
    for name in _SERIES:
        assert scalar[name] == getattr(vector, name), name
    assert scalar["counters"] == vector.counters
    assert scalar["recovery_totals"] == vector.recovery_totals
    assert scalar["files_stored"] == vector.files_stored


def test_soak_scalar_and_ledger_paths_sample_identical_series():
    experiment = SoakExperiment(SMALL)
    vector = experiment.run()
    _assert_matches_seed_soak(vector, load_golden("soak_series.json")["regenerate"])
    assert vector.compactions and vector.ledger_rows
    # After two days of failures, wiped returns, joins, leaves and compactions
    # the ledger still answers what a walk of the surviving dicts answers.
    dict_walk.audit(experiment.storage)


def test_soak_compaction_is_invisible_and_bounds_rows():
    compacted = SoakExperiment(SMALL).run()
    unbounded = SoakExperiment(replace(SMALL, compaction=False)).run()
    for name in _SERIES:
        assert getattr(compacted, name) == getattr(unbounded, name), name
    assert compacted.counters == unbounded.counters
    # Live rows agree sample by sample; total rows are GC-bounded vs append-only.
    assert compacted.ledger_live_rows == unbounded.ledger_live_rows
    assert max(compacted.ledger_rows) <= max(unbounded.ledger_rows)
    assert sum(entry["rows_released"] for entry in compacted.compactions) > 0
    assert unbounded.ledger_rows[-1] >= compacted.ledger_rows[-1]


def test_soak_exercises_every_churn_path_and_stays_healthy():
    result = SoakExperiment(SMALL).run()
    counters = result.counters
    assert counters["failures"] > 50
    assert counters["returns"] > 40
    assert counters["joins"] > 10
    assert counters["leaves"] > 10
    summary = result.summary()
    assert summary["data_regenerated_gb"] > 0.0
    assert result.files_stored > 150
    # Repair keeps the archive overwhelmingly available at this utilization.
    assert summary["max_unavailable_pct"] < 25.0
    # The sampled grid covers the horizon.
    assert result.time_hours[0] == 0.0
    assert result.time_hours[-1] == SMALL.horizon_hours
    assert len(result.time_hours) >= SMALL.horizon_hours / SMALL.sample_every_hours


def test_paper_soak_preset_matches_issue_contract():
    assert PAPER_SOAK.node_count == 10_000
    assert PAPER_SOAK.horizon_hours == 7 * 24.0
    assert PAPER_SOAK.compaction


#: Leave-only churn: sessions effectively never fail inside the horizon and
#: capacity is ample (no dropped blocks), so redundancy stays intact and
#: graceful migration has the same information available as post-failure
#: regeneration.  (Under capacity pressure migration is strictly *better* --
#: it can save blocks of chunks that fell below the decode threshold, which
#: regeneration cannot -- so the equality oracle needs the drop-free regime.)
LEAVES_ONLY = replace(
    SMALL,
    capacity_mean=1600 * MB,
    capacity_std=200 * MB,
    mean_uptime_hours=1e9,
    horizon_hours=24.0,
    join_rate_per_hour=1.0,
    leave_rate_per_hour=1.0,
    # One neighbour replica per block: even when a departing node co-locates
    # two blocks of one chunk, every placement keeps a live copy, so
    # regeneration never hits an undecodable chunk migration would have saved.
    # (Repair re-replicates lost neighbour replicas, so the replication level
    # holds at the target indefinitely; the no-decay oracle below pins it.)
    block_replication=2,
)


def test_migration_conserves_bytes_against_regeneration():
    """With unconstrained bandwidth and intact redundancy, migrating a
    departing node's blocks lands them exactly where regeneration would
    re-create them: identical availability, population and utilization
    series -- but the bytes *move* instead of being charged as regenerated.
    """
    regen = SoakExperiment(replace(LEAVES_ONLY, leave_mode="regenerate")).run()
    migr = SoakExperiment(replace(LEAVES_ONLY, leave_mode="migrate")).run()
    for name in _SERIES:
        assert getattr(regen, name) == getattr(migr, name), name
    assert regen.counters == migr.counters
    assert regen.counters["failures"] == 0
    assert regen.counters["leaves"] > 10
    # The drop-free precondition that makes the equality an oracle.
    assert max(regen.unavailable_pct) == 0.0
    # The conservation law: what one path regenerates, the other migrates.
    assert migr.recovery_totals["total_regenerated_bytes"] == 0.0
    assert migr.recovery_totals["total_migrated_bytes"] > 0.0
    assert regen.recovery_totals["total_migrated_bytes"] == 0.0
    assert (
        regen.recovery_totals["total_regenerated_bytes"]
        == migr.recovery_totals["total_migrated_bytes"]
    )


def test_migration_soak_scalar_and_ledger_paths_sample_identical_series():
    """The scalar seed walk and the ledger rows migrate the same copies."""
    experiment = SoakExperiment(replace(SMALL, leave_mode="migrate"))
    vector = experiment.run()
    _assert_matches_seed_soak(vector, load_golden("soak_series.json")["migrate"])
    assert vector.recovery_totals["total_migrated_bytes"] > 0.0
    dict_walk.audit(experiment.storage)


#: One simulated week of full churn (failures, wiped returns, joins, leaves)
#: at a 2-copy replication target -- the regime in which repair without
#: re-replication silently eroded replicas before the durability-grade fix.
WEEK_REPLICATED = replace(
    SMALL,
    horizon_hours=7 * 24.0,
    block_replication=2,
    seed=29,
)


def test_replication_histogram_does_not_decay_over_week_of_churn():
    """Soak-level erosion oracle: after a sim-week of churn, every placement
    of every still-recoverable chunk holds the full replication target --
    only chunks that genuinely lost data may sit below it -- and the O(1)
    incremental histogram agrees exactly with a from-scratch recount."""
    target = WEEK_REPLICATED.block_replication
    experiment = SoakExperiment(WEEK_REPLICATED)
    result = experiment.run()
    assert result.counters["failures"] > 100  # the week exercised real churn
    storage = experiment.storage
    ledger = storage.ledger
    below_recount = 0
    for stored in storage.files.values():
        for chunk in stored.data_chunks():
            if chunk.ledger_index is None:
                continue
            recoverable = storage.chunk_is_recoverable(chunk)
            for position in range(len(chunk.placements)):
                placement_idx = ledger.placement_for(chunk.ledger_index, position)
                copies = ledger.placement_live_copies(placement_idx)
                if copies < target:
                    below_recount += 1
                    # No erosion: an under-replicated placement is only ever
                    # the residue of an unrecoverable (data-loss) chunk.
                    assert not recoverable, (stored.name, chunk.chunk_no, copies)
    assert ledger.placements_below(target) == below_recount


def test_bandwidth_constrained_soak_keeps_state_exact_and_takes_time():
    """A finite per-node bandwidth is a pure timing overlay: the sampled
    series match the instantaneous run, while repairs acquire completion
    times and the scheduler accounts the moved bytes."""
    instant = SoakExperiment(SMALL).run()
    limited = SoakExperiment(replace(SMALL, bandwidth_gb_per_hour=2.0)).run()
    for name in _SERIES:
        assert getattr(instant, name) == getattr(limited, name), name
    assert instant.counters == limited.counters
    assert instant.transfer_totals == {}
    totals = limited.transfer_totals
    assert totals["bytes_submitted"] > 0.0
    assert totals["bytes_completed"] <= totals["bytes_submitted"]
    assert totals["last_completion_time"] > 0.0
