#!/usr/bin/env python
"""Quickstart: build a contributory storage pool and store a file bigger than any node.

This walks through the paper's core idea end to end with real bytes:

1. build a Pastry-style overlay of desktop nodes, each contributing a little
   storage;
2. create the striped, erasure-coded storage system on top of it;
3. store a file *larger than any single contribution*;
4. read back a byte range (only the chunks covering it are touched);
5. fail a node, let the recovery manager regenerate the lost blocks, and show
   that the file is still intact.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ChunkCodec,
    DHTView,
    OverlayNetwork,
    RecoveryManager,
    StoragePolicy,
    StorageSystem,
    XorParityCode,
)

MB = 1 << 20


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. Thirty-two desktops, each contributing 24 MB of spare disk.
    network = OverlayNetwork.build(32, rng, capacities=[24 * MB] * 32)
    dht = DHTView(network)
    print(f"overlay: {len(network)} nodes, {dht.total_capacity() / MB:.0f} MB contributed")

    # 2. The storage system: variable-size chunks protected by a (2,3) XOR code.
    storage = StorageSystem(
        dht,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(),
        payload_mode=True,
    )

    # 3. A 100 MB "medical image" -- larger than any single node's 24 MB.
    image = rng.integers(0, 256, size=100 * MB, dtype=np.uint8).tobytes()
    result = storage.store_bytes("brain-scan.img", image)
    print(
        f"stored brain-scan.img: success={result.success}, "
        f"{result.data_chunk_count} chunks, {result.lookups} p2p look-ups"
    )
    cat = storage.files["brain-scan.img"].cat
    print("chunk allocation table:")
    print("  " + cat.serialize().replace("\n", "\n  ").rstrip())

    # 4. Partial access: read 1 MB from the middle of the file.
    window = storage.retrieve_range("brain-scan.img", offset=48 * MB, length=1 * MB)
    assert window.data == image[48 * MB : 49 * MB]
    print(
        f"range read: fetched {window.blocks_fetched} encoded blocks from "
        f"{window.chunks_recovered} chunk(s) to serve 1 MB"
    )

    # 5. Fail a node that holds one of the blocks, recover, and verify.
    victim = storage.files["brain-scan.img"].data_chunks()[0].placements[0].node_id
    print(f"failing node {victim:#042x} and regenerating its blocks...")
    impact = RecoveryManager(storage).handle_failure(victim)
    print(
        f"  regenerated {impact.bytes_regenerated / MB:.1f} MB, "
        f"lost {impact.data_bytes_lost / MB:.1f} MB"
    )
    out = storage.retrieve_file("brain-scan.img")
    assert out.complete and out.data == image
    print("file retrieved intact after the failure — contributory storage works.")


if __name__ == "__main__":
    main()
