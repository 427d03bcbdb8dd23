"""Equivalence oracle: the array-backed placement engine vs the seed algorithms.

The array-backed engine must be a pure optimization: for identical seeds the
batched pipelines (PAST, CFS, Our System) have to produce *identical*
StoreResults, placements, node usage and experiment curves as the seed
one-lookup-per-probe implementations (``tests/reference/seed_placement.py``;
whole-experiment curves are frozen in ``tests/golden/``) -- including on runs
pushed past capacity so that the retry / zero-chunk / rollback paths are
exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import dict_walk
from reference.recorder import current
from reference.golden import jsonable, load_golden
from reference.seed_placement import (
    SeedCfsStore,
    SeedLookupView,
    seed_past_store,
    seed_storage_system,
)

from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.workloads.filetrace import MB, FileTraceConfig, generate_file_trace

# The walks read the blocks each node was handed (``reference/recorder.py``).
pytestmark = pytest.mark.usefixtures("block_recorder")

#: Three population sizes; capacities are chosen so the traces overshoot the
#: contributed space and every scheme hits its failure handling.
POPULATIONS = [(24, 60), (60, 140), (120, 260)]


def _fresh_network(node_count: int, seed: int) -> OverlayNetwork:
    capacities = [int(c) for c in
                  np.random.default_rng(seed).normal(60 * MB, 20 * MB, size=node_count)]
    capacities = [max(c, 8 * MB) for c in capacities]
    return OverlayNetwork.build(
        node_count, np.random.default_rng(seed + 1), capacities=capacities,
    )


def _fresh_view(node_count: int, seed: int) -> DHTView:
    return DHTView(_fresh_network(node_count, seed))


def _trace(file_count: int, seed: int):
    config = FileTraceConfig(
        file_count=file_count, mean_size=12 * MB, std_size=6 * MB, min_size=1 * MB
    )
    return generate_file_trace(config, rng=np.random.default_rng(seed + 2))


def _past_snapshot(store: PastStore):
    return {
        name: (stored, [node.node_id for node in dict_walk.past_holders(store, name)])
        for name, stored in store.files.items()
    }


def _cfs_snapshot(store: CfsStore):
    # block_entries materialises identical structures from the reference's
    # tuple lists and from the columnar ledger, so the snapshot compares the
    # two representations block for block.
    return {
        name: [
            (block, primary.node_id, size, [r.node_id for r in replicas])
            for block, primary, size, replicas in store.block_entries(name)
        ]
        for name in store.files
    }


def _ours_snapshot(store: StorageSystem):
    snapshot = {}
    for name, stored in store.files.items():
        snapshot[name] = (
            stored.size,
            [
                (
                    chunk.chunk_no,
                    chunk.start,
                    chunk.size,
                    [
                        (p.block_name, p.node_id, p.size, tuple(map(int, p.replica_nodes)))
                        for p in chunk.placements
                    ],
                )
                for chunk in stored.chunks
            ],
            [dict_walk.cat_placement(store, name)],
        )
    return snapshot


def _usage_snapshot(view: DHTView):
    return [(n.node_id, n.used, dict(current().blocks(n))) for n in view.state.nodes]


@pytest.mark.parametrize("node_count,file_count", POPULATIONS)
def test_store_pipelines_are_draw_for_draw_equivalent(node_count: int, file_count: int):
    seed = 1000 + node_count
    trace = _trace(file_count, seed)

    codec_policy = dict(
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=3),
    )
    results = {}
    for side in ("seed", "engine"):
        networks = {scheme: _fresh_network(node_count, seed) for scheme in ("past", "cfs", "ours")}
        if side == "seed":
            past = seed_past_store(networks["past"], replication=2, retries=2)
            cfs = SeedCfsStore(SeedLookupView(networks["cfs"]), block_size=2 * MB,
                               replication=1, retries_per_block=2)
            ours = seed_storage_system(networks["ours"], **codec_policy)
        else:
            past = PastStore(DHTView(networks["past"]), replication=2, retries=2)
            cfs = CfsStore(DHTView(networks["cfs"]), block_size=2 * MB, replication=1,
                           retries_per_block=2)
            ours = StorageSystem(DHTView(networks["ours"]), **codec_policy)
        views = {"past": past.dht, "cfs": cfs.dht, "ours": ours.dht}
        store_results = []
        for record in trace:
            store_results.append(past.store_file(record.name, record.size))
            store_results.append(cfs.store_file(record.name, record.size))
            store_results.append(ours.store_file(record.name, record.size))
        results[side] = {
            "store_results": store_results,
            "past": _past_snapshot(past),
            "cfs": _cfs_snapshot(cfs),
            "ours": _ours_snapshot(ours),
            "usage": {scheme: _usage_snapshot(view) for scheme, view in views.items()},
            "lookup_counts": {s: views[s].lookup_count for s in views},
            "total_lookups": (past.total_lookups, cfs.total_lookups, ours.total_lookups),
            "utilization": {s: views[s].utilization() for s in views},
        }
        dict_walk.audit(ours)

    scalar, vectorized = results["seed"], results["engine"]
    assert scalar["store_results"] == vectorized["store_results"]
    assert scalar["past"] == vectorized["past"]
    assert scalar["cfs"] == vectorized["cfs"]
    assert scalar["ours"] == vectorized["ours"]
    assert scalar["usage"] == vectorized["usage"]
    assert scalar["lookup_counts"] == vectorized["lookup_counts"]
    assert scalar["total_lookups"] == vectorized["total_lookups"]
    assert scalar["utilization"] == vectorized["utilization"]


def test_ledger_usage_aggregates_match_dict_scan():
    """O(1) ledger usage accounting equals summing the per-node dicts (PR 2 follow-up).

    ``StorageSystem`` reads stored bytes, live block bytes and counts straight
    from the columnar ledger; the seed recomputed them by scanning
    ``stored_blocks`` (``tests/reference/dict_walk.py``).  Through stores,
    failures and deletions the two must agree.
    """
    seed = 4242
    trace = _trace(140, seed)
    v_view = _fresh_view(40, seed)
    v_ours = StorageSystem(
        v_view,
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=3),
    )
    stored = []
    for record in trace:
        if v_ours.store_file(record.name, record.size).success:
            stored.append(record.name)
        assert v_ours.usage_summary() == dict_walk.usage_summary(v_ours)
    for name in stored[::4]:
        assert v_ours.delete_file(name)
        dict_walk.audit(v_ours)

    assert v_ours.usage_summary() == dict_walk.usage_summary(v_ours)
    assert v_ours.stored_bytes() == dict_walk.stored_bytes(v_ours)
    ledger = v_ours.ledger
    # Independent dict scan: every live tracked copy is in a node dict.
    scan_bytes, scan_count = dict_walk.live_bytes_and_count(v_view.network)
    assert ledger.live_bytes == scan_bytes
    assert ledger.live_rows == scan_count
    assert ledger.stored_data_bytes == sum(f.size for f in v_ours.files.values())
    assert ledger.active_files == len(v_ours.files)
    # Failures flow through the node listeners into the same aggregates.
    victim = v_view.state.nodes[0]
    victim_bytes, victim_blocks = victim.used, len(current().blocks(victim))
    before_bytes, before_rows = ledger.live_bytes, ledger.live_rows
    victim.fail()
    assert ledger.live_bytes == before_bytes - victim_bytes
    assert ledger.live_rows == before_rows - victim_blocks
    dict_walk.audit(v_ours)
    victim.recover(wipe=False)
    assert ledger.live_bytes == before_bytes
    assert ledger.live_rows == before_rows
    dict_walk.audit(v_ours)


def test_empty_view_and_zero_size_edge_paths_match_scalar():
    """Error-path parity: empty views raise without counting; 0-byte files store."""
    for seed_reference in (True, False):
        if seed_reference:
            view = SeedLookupView(_fresh_network(8, seed=77))
            cfs = SeedCfsStore(view, block_size=2 * MB)
        else:
            view = _fresh_view(8, seed=77)
            cfs = CfsStore(view, block_size=2 * MB)
        assert cfs.store_file("empty", 0).success  # no lookups, no placements
        past = PastStore(view)
        for node_id in list(view.state.ids_int):
            view.remove(node_id)
        with pytest.raises(LookupError):
            past.store_file("orphan", 1 * MB)
        with pytest.raises(LookupError):
            cfs.store_file("orphan", 1 * MB)
        assert cfs.store_file("empty-too", 0).success  # still no lookup needed
        assert view.lookup_count == 0, "failed lookups must not be counted"


@pytest.mark.parametrize("node_count,file_count", [(40, 120), (80, 240)])
def test_insertion_experiment_curves_identical_across_engines(node_count, file_count):
    """Same seeds -> same failure-fraction, utilization and chunk-stat curves."""
    config = InsertionConfig(
        node_count=node_count,
        file_count=file_count,
        capacity_mean=400 * MB,
        capacity_std=120 * MB,
        mean_file_size=24 * MB,
        std_file_size=8 * MB,
        min_file_size=4 * MB,
        cfs_block_size=2 * MB,
        sample_points=8,
        seed=5,
    )
    scalar = load_golden("insertion_curves.json")[f"{node_count}x{file_count}"]
    vector = InsertionExperiment(config).run_once(0)

    for scheme in ("PAST", "CFS", "Our System"):
        s_curve, v_curve = scalar[scheme], vector.curves[scheme]
        assert s_curve["failed_stores_pct"] == v_curve.failed_stores_pct.y
        assert s_curve["failed_data_pct"] == v_curve.failed_data_pct.y
        assert s_curve["utilization_pct"] == v_curve.utilization_pct.y
        assert s_curve["chunk_stats"] == jsonable(v_curve.chunk_stats)
        assert s_curve["attempts"] == v_curve.stats.attempts
        assert s_curve["failures"] == v_curve.stats.failures
        assert s_curve["failed_bytes"] == v_curve.stats.failed_bytes
        assert s_curve["lookups"] == v_curve.stats.lookups
        assert s_curve["chunk_counts"] == v_curve.stats.chunk_counts
        assert s_curve["chunk_sizes"] == v_curve.stats.chunk_sizes
