"""Wall-clock smoke guards for the placement + churn engines (tier-1, generous budgets).

The real throughput numbers live in ``benchmarks/test_bench_insertion_throughput``
and ``benchmarks/test_bench_churn_failures`` (run with ``-m bench``, written to
``BENCH_insertion.json`` / ``BENCH_churn.json``); these assertions only catch
order-of-magnitude regressions -- e.g. an accidental return to the O(N^2)
population build, to per-key scalar lookups in the batched kernels, to an
O(N) step per boundary patch, or to per-sample placement walks in the
failure sweep -- without making tier-1
timing-sensitive.  Budgets are ~10x the observed wall time on the development
machine, so only a >5x throughput regression (the guarded threshold) can trip
them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import naming
from repro.experiments.availability import AvailabilityConfig, AvailabilityExperiment
from repro.experiments.churn import ChurnConfig, ChurnExperiment
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.overlay.dht import DHTView
from repro.overlay.ids import random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState


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
        2000, np.random.default_rng(5), capacities=[10 ** 9] * 2000, routing_state=False
    )
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
        state.remove(int(node.node_id))
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
    config = AvailabilityConfig(node_count=250, file_count=400, sample_points=8, seed=7)
    start = time.perf_counter()
    series = AvailabilityExperiment(config).run()
    elapsed = time.perf_counter() - start
    assert set(series) == {"No error code", "XOR code", "Online code"}
    assert all(len(curve) >= 2 for curve in series.values())
    assert elapsed < 5.0, f"ledger availability sweep took {elapsed:.2f}s at 250 nodes"


def test_churn_recovery_within_budget():
    # Table 3 end-to-end (200 nodes, 300 files, 10 % + 20 % sweeps with
    # regeneration) on the ledger path: ~0.07 s on the development machine.
    config = ChurnConfig(node_count=200, file_count=300, seed=7)
    start = time.perf_counter()
    table = ChurnExperiment(config).run()
    elapsed = time.perf_counter() - start
    assert [row["nodes_failed_pct"] for row in table.rows] == [10.0, 20.0]
    assert elapsed < 4.0, f"ledger churn recovery took {elapsed:.2f}s at 200 nodes"


def test_fast_population_build_within_budget():
    # A 4000-node build without routing state: ~0.4 s on the development
    # machine; the seed O(N^2) build takes minutes at this size.
    start = time.perf_counter()
    network = OverlayNetwork.build(
        4000, np.random.default_rng(6), capacities=[10 ** 9] * 4000, routing_state=False
    )
    view = DHTView(network)
    elapsed = time.perf_counter() - start
    assert len(view) == 4000
    assert elapsed < 8.0, f"fast 4000-node build took {elapsed:.2f}s"
