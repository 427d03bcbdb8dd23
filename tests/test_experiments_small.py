"""The paper's claims at smoke scale, and the harness checks that hold no paper number.

:data:`~repro.experiments.paper.PAPER_CLAIMS` is the one home of the paper's
numbers: tier-1 runs every experiment at ``SMOKE_REPRODUCE`` on seeds 1-3 and
asserts each claim on every seed (the weekly bench job runs
``PAPER_REPRODUCE`` on seeds 1-5).  The other tests check the measurement
loops themselves at a deliberately tiny scale.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.experiments.base import read_census
from repro.experiments.failure_sweep import PAPER_REPAIR
from repro.experiments.paper import (
    EXPERIMENTS,
    PAPER_CLAIMS,
    SMOKE_REPRODUCE,
    ReproduceExperiment,
)
from repro.experiments.storage_insertion import (
    EXPECTED_UTILIZATION,
    InsertionConfig,
    InsertionExperiment,
)
from repro.workloads.filetrace import MB

CHECKED = [claim for claim in PAPER_CLAIMS if claim.holds is not None]


# -- the paper's claims (Figures 7-12, Tables 1-4) ----------------------------------------
@pytest.fixture(scope="module")
def smoke_reproduction():
    return ReproduceExperiment(SMOKE_REPRODUCE).run()


@pytest.mark.parametrize("claim", CHECKED, ids=[f"{c.figure} {c.quantity}" for c in CHECKED])
def test_every_paper_claim_holds_at_smoke_scale_on_every_seed(smoke_reproduction, claim):
    assert smoke_reproduction.config.seeds == (1, 2, 3)
    outcome = next(o for o in smoke_reproduction.outcomes if o.claim is claim)
    assert outcome.holds, (f"{claim.figure} {claim.quantity}: {claim.check} held on "
                           f"{outcome.held} with values {outcome.values}")


# -- insertion (Figures 7-9, Table 1) ------------------------------------------------------
@pytest.fixture(scope="module")
def unpressured_insertion():
    """40 nodes and 1 200 files: about 16 % of capacity, so no scheme fails a store."""
    config = InsertionConfig(node_count=40, file_count=1200, sample_points=6, seed=1)
    return InsertionExperiment(config).run()


def test_an_insertion_without_capacity_pressure_fails_every_ordering_claim(unpressured_insertion):
    """``0 <= 0`` is no win: a claim that orders schemes needs the beaten side non-zero."""
    facts = EXPERIMENTS["insertion"][1](unpressured_insertion)
    assert facts["stores PAST"] == facts["stores CFS"] == facts["stores ours"] == 0.0
    orderings = [claim for claim in CHECKED if claim.figure in ("Fig 7", "Fig 8", "Fig 9")]
    assert len(orderings) == 7
    assert not any(claim.holds(facts) for claim in orderings)


def test_insertion_curves_are_monotone_in_x(unpressured_insertion):
    for curve in unpressured_insertion.curves.values():
        xs = curve.failed_stores_pct.x
        assert xs == sorted(xs)
        assert len(curve.failed_stores_pct) == len(curve.failed_data_pct) == len(curve.utilization_pct)


def test_insertion_resolved_file_count_from_utilization():
    config = InsertionConfig(node_count=10, file_count=None)
    expected = round(10 * config.capacity_mean * EXPECTED_UTILIZATION / config.mean_file_size)
    assert config.resolved_file_count() == expected
    explicit = InsertionConfig(file_count=123)
    assert explicit.resolved_file_count() == 123


# -- failure sweep (Figure 10, Table 3, repair) -------------------------------------------
@pytest.mark.parametrize("fields", [
    {"fail_fractions": ()},
    {"fail_fractions": (0.05, 1.5)},
    {"fail_fractions": (-0.1,)},
    {"fail_fractions": (math.nan,)},
    {"leave_fraction": 2.0},
    {"sample_points": 0},
    {"sample_points": -3},
], ids=["no fractions", "fraction above 1", "negative fraction", "NaN fraction",
        "leave fraction above 1", "no sample points", "negative sample points"])
def test_a_bad_failure_sweep_is_refused_at_construction(fields):
    """Refused by the config, before a deployment that takes minutes at paper scale."""
    with pytest.raises(ValueError):
        replace(PAPER_REPAIR, **fields)


# -- read census (faults, tenants) ---------------------------------------------------
def test_read_census_counts_degraded_and_failed_reads(dht):
    storage = StorageSystem(dht, codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    for index in range(6):
        assert storage.store_file(f"file-{index}", 5 * MB).success
    for node in list(dht.network.live_nodes())[::3]:
        node.fail()
    sample = [storage.retrieve_file(name) for name in sorted(storage.files)[:4]]
    census = read_census(storage, 4)
    assert census == {
        "reads_sampled": 4.0,
        "degraded_reads": float(sum(result.degraded for result in sample)),
        "failed_reads": float(sum(not result.complete for result in sample)),
    }
    assert census["degraded_reads"] + census["failed_reads"] > 0
    assert read_census(storage, 100)["reads_sampled"] == 6.0
