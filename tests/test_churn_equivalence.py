"""Equivalence oracle: the columnar block ledger vs the seed churn path.

The ledger must be a pure optimization.  For identical seeds the dynamics
pipelines (failure selection, decodability accounting, regeneration,
availability sampling) have to produce the *identical* Figure 10 curves,
Table 3 rows and per-failure impacts the seed dict-walk implementation
produced (frozen in ``tests/golden/``) -- and the ledger's liveness accounting
must track out-of-band node failures, recoveries and deletions exactly like
the seed's placement walks (``tests/reference/dict_walk.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from reference import dict_walk
from reference.golden import jsonable, load_golden

from repro.core.policies import StoragePolicy
from repro.core.recovery import RecoveryManager
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.experiments.failure_sweep import PAPER_TABLE3, FailureSweepConfig, FailureSweepExperiment
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.workloads.filetrace import MB, FileTraceConfig, generate_file_trace

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

#: Two small population sizes exercising both experiments end to end.
AVAILABILITY_CASES = [(48, 120), (90, 200)]
CHURN_CASES = [(40, 100), (80, 180)]


@pytest.mark.parametrize("node_count,file_count", AVAILABILITY_CASES)
def test_figure10_curves_identical_across_engines(node_count, file_count):
    """Seed walk and ledger counter produce the same availability curves."""
    config = FailureSweepConfig(
        node_count=node_count,
        file_count=file_count,
        capacity_mean=400 * MB,
        capacity_std=100 * MB,
        mean_file_size=24 * MB,
        std_file_size=8 * MB,
        min_file_size=4 * MB,
        sample_points=10,
        seed=11,
    )
    scalar = load_golden("fig10_curves.json")[f"{node_count}x{file_count}"]
    vector = FailureSweepExperiment(config).run().curves
    assert scalar.keys() == vector.keys()
    for label in scalar:
        assert scalar[label]["x"] == vector[label].x, label
        assert scalar[label]["y"] == vector[label].y, label


@pytest.mark.parametrize("node_count,file_count", CHURN_CASES)
def test_table3_rows_identical_across_engines(node_count, file_count):
    """Seed and ledger recovery produce byte-identical Table 3 rows."""
    config = replace(
        PAPER_TABLE3,
        node_count=node_count,
        file_count=file_count,
        capacity_mean=400 * MB,
        capacity_std=100 * MB,
        mean_file_size=24 * MB,
        std_file_size=8 * MB,
        min_file_size=4 * MB,
        seed=13,
    )
    scalar = load_golden("table3_rows.json")[f"{node_count}x{file_count}"]
    vector = FailureSweepExperiment(config).run().table
    assert scalar["columns"] == vector.columns
    assert scalar["rows"] == vector.rows


def _storage(node_count: int, seed: int) -> StorageSystem:
    rng = np.random.default_rng(seed)
    capacities = [int(c) for c in rng.normal(80 * MB, 20 * MB, size=node_count)]
    capacities = [max(c, 16 * MB) for c in capacities]
    network = OverlayNetwork.build(
        node_count, np.random.default_rng(seed + 1), capacities=capacities,
    )
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
    )


def _impact_tuple(impact):
    return (
        int(impact.failed_node),
        impact.blocks_lost,
        impact.bytes_on_failed_node,
        impact.bytes_regenerated,
        impact.bytes_dropped,
        impact.data_bytes_lost,
        impact.chunks_lost,
        impact.files_damaged,
        impact.cat_copies_restored,
    )


def _placements_snapshot(storage: StorageSystem):
    return {
        name: [
            (chunk.chunk_no, [
                (p.block_name, p.node_id, p.size, tuple(map(int, p.replica_nodes)))
                for p in chunk.placements
            ])
            for chunk in stored.chunks
        ]
        for name, stored in storage.files.items()
    }


def test_recovery_impacts_and_placements_identical_across_engines():
    """Every FailureImpact field and post-repair placement matches the seed."""
    scalar = load_golden("recovery_impacts.json")
    vector = _storage(node_count=60, seed=21)
    trace = generate_file_trace(
        FileTraceConfig(file_count=120, mean_size=12 * MB, std_size=4 * MB, min_size=1 * MB),
        rng=np.random.default_rng(23),
    )
    results = [vector.store_file(record.name, record.size) for record in trace]
    assert scalar["store_success"] == [result.success for result in results]
    dict_walk.audit(vector)

    manager = RecoveryManager(vector)
    victims = list(vector.dht.network.live_ids())
    np.random.default_rng(29).shuffle(victims)
    for victim, expected in zip(victims[:30], scalar["impacts"]):
        impact = manager.handle_failure(victim)
        assert list(_impact_tuple(impact)) == expected, victim
        dict_walk.audit(vector)
    assert scalar["placements"] == jsonable(_placements_snapshot(vector))
    assert scalar["totals"] == manager.totals()
    usage_vector = [[n.node_id, n.used] for n in vector.dht.network.live_nodes()]
    assert scalar["usage"] == usage_vector


def test_ledger_tracks_out_of_band_failures_and_recoveries():
    """Direct node fail/recover/delete flows keep ledger == seed semantics."""
    vector = _storage(node_count=24, seed=31)
    for index in range(12):
        vector.store_file(f"oob-{index}", 6 * MB)
        dict_walk.audit(vector)

    victims = [
        p.node_id
        for chunk in vector.files["oob-3"].data_chunks()
        for p in chunk.placements
    ]
    for victim in victims:
        vector.dht.network.node(victim).fail()
        dict_walk.audit(vector)
    assert not vector.is_file_available("oob-3")

    # A node coming back without wiping its disk restores its copies...
    for victim in victims:
        vector.dht.network.node(victim).recover(wipe=False)
        dict_walk.audit(vector)
    assert vector.is_file_available("oob-3")

    # ...whereas recovering with a wiped disk loses them for good.
    for victim in victims:
        vector.dht.network.node(victim).recover(wipe=True)
        dict_walk.audit(vector)
    assert not vector.is_file_available("oob-3")

    # Deleting files keeps the aggregate accounting in lockstep.
    assert vector.delete_file("oob-3")
    assert vector.delete_file("oob-5")
    dict_walk.audit(vector)
