#!/usr/bin/env python
"""The paper's Condor case study as a runnable example (Section 6.4).

A 32-machine Condor pool (each machine contributing 2-15 GB over 100 Mb/s
Ethernet) runs the ``bigCopy`` job for growing file sizes into the three
stores Table 4 compares: the original whole-file scheme, CFS-style
fixed 4 MB chunks, and the proposed variable-size chunks.  The whole-file
scheme stops working once the copy no longer fits on any single machine; the
chunked schemes keep working, and the variable-size chunks pay far fewer p2p
look-ups.

Run with:  python examples/condor_bigcopy.py
"""

from __future__ import annotations

from repro import (
    CfsStore,
    ChunkCodec,
    ClusterSession,
    CondorPool,
    DHTView,
    NullCode,
    StoragePolicy,
    TransferCostModel,
    WholeFileStore,
)
from repro.grid.bigcopy import submit_and_run_bigcopy
from repro.grid.machines import build_condor_pool_nodes

MB = 1 << 20
GB = 1 << 30


def fresh_stores(seed: int):
    """Build one pool per scheme so each run starts from empty disks.

    The varying-chunk store runs as an explicit ``condor`` tenant of a
    multi-tenant block ledger -- the production shape of the paper's archive,
    where the grid's staging traffic is one tenant among several.
    """
    cost = TransferCostModel()

    whole_network, whole_machines = build_condor_pool_nodes(32, seed=seed)
    whole_target = max(whole_network.live_nodes(), key=lambda node: node.capacity)

    fixed_network, fixed_machines = build_condor_pool_nodes(32, seed=seed)
    fixed_store = CfsStore(DHTView(fixed_network), block_size=4 * MB, retries_per_block=64)

    varying_network, varying_machines = build_condor_pool_nodes(32, seed=seed)
    varying_session = ClusterSession.adopt(varying_network)
    varying_client = varying_session.client(
        tenant="condor",
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=64),
    )
    return cost, varying_client, [
        ("whole file", WholeFileStore(whole_target), whole_machines),
        ("fixed 4 MB chunks", fixed_store, fixed_machines),
        ("varying chunks", varying_client.storage, varying_machines),
    ]


def main() -> None:
    print(f"{'size':>8s}  {'whole file':>12s}  {'fixed chunks':>14s}  {'varying chunks':>15s}")
    varying_client = None
    for size_gb in (1, 2, 4, 8, 16, 32):
        row = [f"{size_gb:6d}GB"]
        cost, varying_client, stores = fresh_stores(seed=size_gb)
        for label, store, machines in stores:
            pool = CondorPool(machines=machines)
            try:
                _, copy = submit_and_run_bigcopy(pool, store, size_gb * GB, cost_model=cost)
                cell = f"{copy.elapsed_seconds:9.0f} s ({copy.chunk_count} chunks)"
                if not copy.success:
                    cell = "      N/A"
            except OSError:
                cell = "      N/A"
            row.append(cell)
        print(f"{row[0]:>8s}  {row[1]:>12s}  {row[2]:>14s}  {row[3]:>15s}")
    aggregates = varying_client.aggregates()
    print(
        f"\ncondor tenant ledger (last run): {aggregates['active_files']} files, "
        f"{aggregates['stored_data_bytes'] / GB:.1f} GB on the shared multi-tenant ledger"
    )
    print(
        "\nwhole-file placement stops working once the copy exceeds the largest single\n"
        "contribution (15 GB); variable-size chunks keep the overhead of chunked storage small."
    )


if __name__ == "__main__":
    main()
