#!/usr/bin/env python
"""A departmental medical-image archive on contributed desktop storage.

The paper motivates the system with "multimedia files, high-resolution medical
images, weather forecast data" that no single desktop can hold.  This example
models a radiology department archiving a day's worth of imaging studies onto
the spare disk space of its own desktops, comparing the three placement
schemes the paper evaluates (PAST-style whole files, CFS-style fixed chunks,
and the proposed variable-size striping) on the *same* pool, and then
stress-testing the proposed scheme against overnight churn.

The proposed scheme runs through the client facade: a
:class:`~repro.ClusterSession` adopts the pool and hands out per-department
:class:`~repro.ArchiveClient` handles on one shared multi-tenant ledger.

Run with:  python examples/medical_image_archive.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CfsStore,
    ChunkCodec,
    ClusterSession,
    OverlayNetwork,
    PastStore,
    ReedSolomonCode,
    StoragePolicy,
)
from repro.workloads.capacity import CapacityConfig, generate_capacities
from repro.workloads.filetrace import FileTraceConfig, generate_file_trace

MB = 1 << 20
GB = 1 << 30


def build_pool(seed: int) -> OverlayNetwork:
    """Sixty departmental desktops contributing 2-8 GB each."""
    rng = np.random.default_rng(seed)
    capacities = generate_capacities(
        CapacityConfig(node_count=60, distribution="uniform", low=2 * GB, high=8 * GB),
        rng=rng,
    )
    return OverlayNetwork.build(60, rng, capacities=list(capacities))


def days_studies(seed: int):
    """A day of imaging studies: ~400 files, 50 MB - 2 GB (heavy tailed)."""
    return generate_file_trace(
        FileTraceConfig(
            file_count=400,
            mean_size=300 * MB,
            std_size=400 * MB,
            min_size=50 * MB,
            model="lognormal",
            name_prefix="study",
        ),
        seed=seed,
    )


def compare_placement_schemes(seed: int = 7) -> None:
    trace = days_studies(seed)
    print(f"archiving {len(trace)} studies totalling {trace.total_bytes / GB:.1f} GB")

    results = {}
    for label in ("PAST (whole files)", "CFS (4 MB blocks)", "PeerStripe (this paper)"):
        session = ClusterSession.adopt(build_pool(seed))
        if label.startswith("PAST"):
            store = PastStore(session.dht, retries=3)
        elif label.startswith("CFS"):
            store = CfsStore(session.dht, block_size=4 * MB, retries_per_block=3)
        else:
            archive = session.client(tenant="radiology", policy=StoragePolicy())
            store = archive.storage
        failures = sum(0 if store.store_file(record.name, record.size).success else 1
                       for record in trace)
        results[label] = (failures, session.utilization())

    print("\nplacement scheme comparison (same pool, same studies):")
    for label, (failures, utilization) in results.items():
        print(
            f"  {label:26s} failed stores: {failures:4d} / {len(trace)}   "
            f"pool utilisation: {utilization:6.1%}"
        )


def overnight_churn_drill(seed: int = 8) -> None:
    """Two departments share one pool and one ledger; churn hits both tenants.

    Radiology and cardiology archive onto the same desktops as distinct
    tenants of one session: each department sees only its own namespace and
    repairs only its own rows, while the session's shared ledger works out
    per-tenant availability and footprint in one pass over its columns (its
    global counters stay O(1)).
    """
    session = ClusterSession.adopt(build_pool(seed))
    departments = {
        name: session.client(
            name,
            codec=ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=4),
            policy=StoragePolicy(),
        )
        for name in ("radiology", "cardiology")
    }
    stored = {}
    for offset, (name, archive) in enumerate(departments.items()):
        trace = days_studies(seed + offset).subset(75)
        stored[name] = [record.name for record in trace
                        if archive.store(record.name, record.size).success]
    print(f"\nchurn drill: {sum(map(len, stored.values()))} studies archived by "
          f"{len(departments)} departments with (4+2) Reed-Solomon striping")

    managers = {name: session.recovery(archive)
                for name, archive in departments.items()}
    rng = np.random.default_rng(seed)
    overnight_failures = rng.choice(session.network.live_ids(), size=12, replace=False)
    regenerated = 0
    for node_id in overnight_failures:
        for recovery in managers.values():
            regenerated += recovery.handle_failure(node_id).bytes_regenerated
    for name, archive in departments.items():
        aggregates = archive.aggregates()
        available = sum(1 for file in stored[name] if archive.available(file))
        print(
            f"  {name:10s} {available}/{len(stored[name])} studies fully available; "
            f"tenant footprint {aggregates['stored_data_bytes'] / GB:.2f} GB, "
            f"{aggregates['unavailable_files']} unavailable"
        )
    print(f"  12 desktops failed overnight; {regenerated / GB:.2f} GB regenerated "
          f"across both tenants on the shared ledger")


if __name__ == "__main__":
    compare_placement_schemes()
    overnight_churn_drill()
