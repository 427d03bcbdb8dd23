"""Wall-clock smoke guards for the placement + churn engines (tier-1, generous budgets).

The real throughput numbers live in ``benchmarks/test_bench_insertion_throughput``
and ``benchmarks/test_bench_churn_failures`` (run with ``-m bench``, written to
``BENCH_insertion.json`` / ``BENCH_churn.json``); these assertions only catch
order-of-magnitude regressions -- e.g. an accidental return to the O(N^2)
population build, to per-key scalar lookups in the batched kernels, to an
O(N) step per boundary patch, or to per-sample placement walks in the
failure sweep, or to per-key Python containers in the ledger's row indexes --
without making tier-1 timing-sensitive.  Budgets are ~10x the observed wall time on the development
machine, so only a >5x throughput regression (the guarded threshold) can trip
them.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.baselines.cfs import CfsStore
from repro.core import naming
from repro.core.block_ledger import BlockLedger
from repro.core.storage import StorageSystem, StoredChunk, StoredFile
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.experiments.failure_sweep import PAPER_TABLE3, FailureSweepConfig, FailureSweepExperiment
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.overlay.dht import DHTView
from repro.overlay.ids import random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState

MB = 1 << 20


def test_vectorized_insertion_within_budget():
    # ~0.6 s on the development machine (400 files across three schemes,
    # including three 500-node fast population builds).
    config = InsertionConfig(node_count=500, file_count=400, seed=3)
    start = time.perf_counter()
    outcome = InsertionExperiment(config).run_once(0)
    elapsed = time.perf_counter() - start
    assert outcome.files_inserted == 400
    assert elapsed < 10.0, f"vectorized insertion took {elapsed:.2f}s for 400 files / 500 nodes"


def test_batched_lookup_kernel_within_budget():
    # 2000-node index, 50 batches x 200 keys: ~60 ms on the development
    # machine.  A fallback to per-key scalar lookups costs >10x.
    network = OverlayNetwork.build(
        2000, np.random.default_rng(5), capacities=[10 ** 9] * 2000)
    view = DHTView(network)
    names = [f"smoke-file/block{i}" for i in range(200)]
    digests = naming.name_digests(names)
    view.resolve_digests(digests)  # warm the boundary arrays
    start = time.perf_counter()
    for _ in range(50):
        view.resolve_digests(digests)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"50x200-key batched lookups took {elapsed:.3f}s"


def test_boundary_patches_within_budget():
    # 1 000 removals + 1 000 re-insertions on a clean 10 000-node ring: ~25 ms
    # on the development machine (two list splices and one S20 column memcpy
    # per change).  Any O(N) Python step per patch costs well over 10x that.
    rng = np.random.default_rng(5)
    nodes = [OverlayNode(node_id=random_node_id(rng), capacity=1) for _ in range(10_000)]
    state = NodeArrayState(nodes)
    state.lookup_index(0)  # clean bounds, so every change below is a patch
    picks = [nodes[int(i)] for i in rng.permutation(len(nodes))[:1000]]
    start = time.perf_counter()
    for node in picks:
        state.remove(node.node_id)
    for node in picks:
        state.add(node)
    elapsed = time.perf_counter() - start
    assert not state._bounds_dirty and len(state) == 10_000
    assert elapsed < 0.25, f"2000 boundary patches took {elapsed:.3f}s at 10 000 nodes"


def test_churn_failure_sweep_within_budget():
    # The full Figure 10 pipeline (3 codings, 250 nodes, 400 files, 25
    # failures each) on the ledger path: ~0.13 s on the development machine.
    # A fall-back to per-sample placement walks or per-failure O(N) boundary
    # rebuilds costs well over the guarded 5x.
    config = FailureSweepConfig(node_count=250, file_count=400, sample_points=8, seed=7)
    start = time.perf_counter()
    series = FailureSweepExperiment(config).run().curves
    elapsed = time.perf_counter() - start
    assert set(series) == {"No error code", "XOR code", "Online code"}
    assert all(len(curve) >= 2 for curve in series.values())
    assert elapsed < 5.0, f"ledger availability sweep took {elapsed:.2f}s at 250 nodes"


def test_churn_recovery_within_budget():
    # Table 3 end-to-end (200 nodes, 300 files, 10 % + 20 % sweeps with
    # regeneration) on the ledger path: ~0.07 s on the development machine.
    config = replace(PAPER_TABLE3, node_count=200, file_count=300, seed=7)
    start = time.perf_counter()
    table = FailureSweepExperiment(config).run().table
    elapsed = time.perf_counter() - start
    assert [row["nodes_failed_pct"] for row in table.rows] == [10.0, 20.0]
    assert elapsed < 4.0, f"ledger churn recovery took {elapsed:.2f}s at 200 nodes"


def test_fast_population_build_within_budget():
    # A 4000-node build without routing state: ~0.4 s on the development
    # machine; the seed O(N^2) build takes minutes at this size.
    start = time.perf_counter()
    network = OverlayNetwork.build(
        4000, np.random.default_rng(6), capacities=[10 ** 9] * 4000)
    view = DHTView(network)
    elapsed = time.perf_counter() - start
    assert len(view) == 4000
    assert elapsed < 8.0, f"fast 4000-node build took {elapsed:.2f}s"


def test_a_stored_file_costs_at_most_three_tracked_objects():
    # Where a block lives is ledger columns and rows, and the CAT is built
    # from the chunk sizes when read, so a one-chunk capacity-mode file keeps
    # its StoredFile, its StoredChunk and the chunk list: 3 GC-tracked objects
    # (11.2 when placements and the CAT were objects of their own).  Few
    # nodes, so the first batch has seen every holder (a holder's first row
    # adds the ledger to its listener tuple, once).
    network = OverlayNetwork.build(50, np.random.default_rng(4), capacities=[10 ** 12] * 50)
    storage = StorageSystem(
        DHTView(network), codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))

    def tracked_after_storing(count: int) -> int:
        for index in range(len(storage.files), count):
            assert storage.store_file(f"file-{index}", 243 * MB).success
        gc.collect()
        return len(gc.get_objects())

    half, full = tracked_after_storing(1000), tracked_after_storing(2000)
    assert all(len(stored.chunks) == 1 for stored in storage.files.values())
    assert (full - half) / 1000 <= 3, f"{(full - half) / 1000:.2f} tracked objects per stored file"


def test_a_stored_cfs_block_costs_columns_and_keeps_no_name():
    """~150 CFS files of 61 blocks on 64 nodes, under ``tracemalloc``.

    A block's name is derived from the ledger's columns, so a stored block
    costs its columns (doubling growth included) and nothing per name: ~77
    traced bytes a block with int32 ids and no digest cache (a row is 29 B and
    its placement 12 B of columns), ~165 with int64 ids and a digest per row,
    ~275 with the per-block name strings, the two name lists and the nodes'
    name dicts.  A CFS-only ledger's columns come to ~44 B per allocated row
    (94 B with int64 ids and a digest per row).  And no string built in the
    store loop outlives ``store_file``: what ``cfs.py`` allocated and still
    holds is under a pointer per block (it was ~66 B per block).
    """
    network = OverlayNetwork.build(64, np.random.default_rng(7), capacities=[20 * 1024 * MB] * 64)
    cfs = CfsStore(DHTView(network), block_size=4 * MB)
    assert cfs.store_file("warm", 244 * MB).success
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(150):
            assert cfs.store_file(f"file-{index:04d}", 244 * MB).success
        gc.collect()
        per_block = (tracemalloc.get_traced_memory()[0] - before) / (150 * 61)
        for index in range(150, 160):
            assert cfs.store_file(f"file-{index:04d}", 244 * MB).success
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, "*baselines/cfs.py")]).statistics("filename"))
    assert per_block < 100, f"{per_block:.0f} traced bytes per stored block"
    assert held < 8 * 10 * 61, f"{held} bytes still held from the store loop's allocations"
    footprint = cfs.ledger.memory_footprint()
    assert footprint["name_bytes"] < 100 * 161  # file names, not block names
    per_row = footprint["column_bytes"] / footprint["allocated_rows"]
    assert per_row <= 48, f"{per_row:.1f} column bytes per allocated row"


def _synthetic_ledger(node_count: int, file_count: int):
    """A ledger shaped like the churn soak's: 5 rows and 3 placements per file.

    Each copy is stored on its holder before it is registered, as a store does.
    """
    network = OverlayNetwork.build(
        node_count, np.random.default_rng(9), capacities=[10 ** 12] * node_count,
    )
    ledger = BlockLedger(network)
    nodes = network.nodes()
    picks = np.random.default_rng(10).integers(0, node_count, size=(file_count, 5)).tolist()
    for index, (a, b, c, d, e) in enumerate(picks):
        name = f"f{index}"
        chunk = StoredChunk(1, 0, 3 * MB, block_size=MB)
        blocks = [(naming.block_name(name, 1, pos + 1), nodes[slot], MB, ())
                  for pos, slot in enumerate((a, b, c))]
        for block_name, node, size, _ in blocks:
            assert node.store_block(block_name, size)
        for node in (nodes[d], nodes[e]):
            assert node.store_block(naming.cat_name(name), 1024)
        ledger.register_file(StoredFile(name, 3 * MB, [chunk]), 2, None, [(chunk, blocks)],
                             (naming.cat_name(name), nodes[d], 1024, (nodes[e],)))
    return network, ledger


def test_compaction_is_column_gathers_and_allocates_no_per_key_containers():
    # 75 000 rows / 45 000 placements with ~3 % released: ~12 ms on the
    # development machine.  The list-of-lists indexes this replaced took
    # ~200 ms here, most of it two generation-2 collections provoked by
    # allocating ~70 000 fresh lists; neither the compaction nor the first
    # lookup after it (which re-sorts an index) may bring those back.
    network, ledger = _synthetic_ledger(2000, 15_000)
    assert ledger.row_count >= 75_000 and ledger.placement_count >= 40_000
    nodes = network.nodes()
    for node in nodes[:60]:
        node.fail()
        node.recover(wipe=True)
    released = ledger.memory_footprint()["released_rows"]
    assert 0.02 * ledger.row_count < released < 0.05 * ledger.row_count
    def collections() -> int:
        return sum(generation["collections"] for generation in gc.get_stats())

    gc.collect()
    tracked, collected = len(gc.get_objects()), collections()
    start = time.perf_counter()
    stats = ledger.compact()
    elapsed = time.perf_counter() - start
    rows = ledger.recovery_rows(nodes[100])
    grown, collected = len(gc.get_objects()) - tracked, collections() - collected
    assert stats["rows_released"] == released and rows
    assert grown < 1000, f"compact() + one lookup left {grown} new tracked objects"
    # Net growth alone misses containers that replace freed ones (the old
    # rebuild: 88 collections here, every 700 allocations; now none).
    assert collected < 3, f"compact() + one lookup triggered {collected} collections"
    assert elapsed < 0.060, f"compact() took {elapsed * 1e3:.1f} ms at 75 000 rows"
    ledger.check_invariants()


def test_ingest_builds_no_row_index():
    # A store loop never asks for "rows of this node / file / placement", so
    # it must not pay for the answer: nothing is written per appended row.
    count = 10_000
    network = OverlayNetwork.build(
        count, np.random.default_rng(11), capacities=[10 ** 9] * count)
    cfs = CfsStore(DHTView(network), block_size=4 * MB, retries_per_block=3)
    for index in range(40):
        assert cfs.store_file(f"file{index}", 243 * MB).success
    ledger = cfs.ledger
    assert ledger.row_count >= 40 * 61
    for index in (ledger._by_owner, ledger._by_file, ledger._by_placement):
        assert index.built == index.seen == 0 and not index.flat and not index.overflow
    assert ledger.memory_footprint()["index_bytes"] == 0
