#!/usr/bin/env python
"""Erasure coding vs replication under sustained participant churn.

The paper argues (Sections 3 and 6.2) that plain k-replication either wastes
space or tolerates too few failures, while per-chunk erasure coding gives
better availability per byte of redundancy.  This example puts the claim to a
head-to-head test on the same overlay: it stores the same workload under

* no redundancy,
* 2x whole-block replication (same 100 % overhead as mirroring),
* a (2,3) XOR code (50 % overhead),
* a (4+2) Reed-Solomon code (50 % overhead), and
* the online code configured to tolerate two losses per chunk,

then fails an increasing fraction of nodes (without repair) and reports how
many files each configuration can still serve, together with the storage
overhead it paid.

Run with:  python examples/churn_resilience.py
"""

from __future__ import annotations

import numpy as np

from repro import ChunkCodec, DHTView, NullCode, OverlayNetwork, ReedSolomonCode, StoragePolicy, StorageSystem, XorParityCode
from repro.erasure.base import CodeSpec
from repro.experiments.failure_sweep import _SpecOnlyCode
from repro.sim.churn import FailureSchedule
from repro.workloads.filetrace import FileTraceConfig, generate_file_trace

MB = 1 << 20
GB = 1 << 30


def build_configurations():
    """Name -> (codec, block replication)."""
    # Spread each 2-block chunk over 4 encoded blocks, any 2 of which suffice:
    # the same 100 % space overhead as mirroring, but it survives *two* losses.
    online_spec = CodeSpec(
        name="online", input_blocks=2, output_blocks=4, loss_tolerance=2, size_overhead=1.0
    )
    return {
        "no redundancy": (ChunkCodec(NullCode(), blocks_per_chunk=1), 1),
        "2x replication": (ChunkCodec(NullCode(), blocks_per_chunk=1), 2),
        "(2,3) XOR code": (ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2), 1),
        "(4+2) Reed-Solomon": (ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=4), 1),
        "online code (2 of 4)": (ChunkCodec(_SpecOnlyCode(online_spec), blocks_per_chunk=2), 1),
    }


def main(seed: int = 17) -> None:
    trace = generate_file_trace(
        FileTraceConfig(file_count=300, mean_size=200 * MB, std_size=60 * MB, min_size=50 * MB),
        seed=seed,
    )
    print(f"workload: {len(trace)} files, {trace.total_bytes / GB:.1f} GB")
    print(f"{'configuration':22s} {'overhead':>9s}  " + "  ".join(f"{p:>6.0%}" for p in (0.1, 0.2, 0.3)))

    for label, (codec, replication) in build_configurations().items():
        rng = np.random.default_rng(seed)
        network = OverlayNetwork.build(120, rng, capacities=[4 * GB] * 120)
        dht = DHTView(network)
        storage = StorageSystem(
            dht, codec=codec, policy=StoragePolicy(block_replication=replication)
        )
        stored = [r.name for r in trace if storage.store_file(r.name, r.size).success]
        raw = sum(r.size for r in trace if r.name in set(stored))
        overhead = dht.total_used() / raw - 1.0 if raw else 0.0

        availability = []
        schedule = FailureSchedule(network.live_ids(), 0.3, rng=np.random.default_rng(seed + 1))
        checkpoints = {int(len(schedule) / 3): 0.1, int(2 * len(schedule) / 3): 0.2, len(schedule): 0.3}
        for index, event in enumerate(schedule, start=1):
            network.fail(event.node_id)
            if index in checkpoints:
                alive = sum(1 for name in stored if storage.is_file_available(name))
                availability.append(alive / len(stored))
        print(
            f"{label:22s} {overhead:8.0%}  "
            + "  ".join(f"{value:6.1%}" for value in availability)
        )

    print(
        "\ntakeaways: any redundancy beats none; at the same 100 % overhead the online code's\n"
        "2-loss tolerance matches or beats plain mirroring; and the erasure codes reach most of\n"
        "that protection at half the space cost -- the trade-off the paper's design exploits."
    )


if __name__ == "__main__":
    main()
