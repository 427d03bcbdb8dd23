"""Composable per-tenant workload profiles for the QoS isolation suite.

Each profile schedules one tenant's traffic against its own tenant-scoped
:class:`~repro.core.storage.StorageSystem` (one tenant of the shared ledger)
on the discrete-event clock.  Because the store is attached to the transfer fabric
(:meth:`~repro.core.storage.StorageSystem.attach_transfers`), every store and
push automatically charges tenant-tagged transfers -- the profiles never touch
the scheduler directly except for the distribution profile's fan-out pushes.

Three profiles ground the flagship noisy-neighbor panel:

* :class:`MedicalIngestProfile` -- a medical-image archive pushing per-study
  frame sets into the store (the arcana/pipeline2app-style typed dataset
  ingest: a study arrives as one batch of lognormal-sized frame files);
* :class:`BigCopyBurstProfile` -- Condor-style staging bursts, one
  multi-gigabyte input file per burst (``grid/bigcopy.py``'s workload shape);
* :class:`BulletDistributionProfile` -- steady Bullet-style dissemination of
  a stored payload from its holder to a rotating subscriber set
  (``multicast/bullet.py``'s push pattern as background distribution load).

All profiles start at simulated time 0 and are deterministic given their
RNG stream: batch contents are generated eagerly at schedule time, so two
runs with the same seeds produce identical event timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.filetrace import GB, MB, FileTrace, FileTraceConfig, generate_file_trace


#: The smallest medical-image frame file.
MIN_FRAME_SIZE = 1 * MB


@dataclass
class ProfileRun:
    """Mutable accounting for one scheduled profile (filled as the sim runs)."""

    tenant: str
    profile: str
    stores_attempted: int = 0
    stores_succeeded: int = 0
    bytes_requested: int = 0
    bytes_stored: int = 0
    #: Distribution fan-out pushes submitted (BulletDistributionProfile only).
    pushes: int = 0
    push_bytes: int = 0


def _tenant_label(storage) -> str:
    """The tenant name of a tenant-scoped store (``"-"`` when untagged)."""
    tenant = storage.store_tenant
    return "-" if tenant is None else storage.ledger.tenant_names[tenant]


@dataclass(frozen=True)
class MedicalIngestProfile:
    """Per-study frame-batch ingest of a medical-image archive tenant.

    Studies arrive on a fixed cadence; each study is one batch of
    ``frames_per_study`` lognormal-sized frame files stored back to back
    (one acquisition pushed into the typed dataset store as a unit).
    """

    studies: int = 24
    frames_per_study: int = 16
    mean_frame_size: int = 12 * MB
    std_frame_size: int = 6 * MB
    study_interval_s: float = 30.0
    name_prefix: str = "study"

    def study_trace(self, study: int, rng: np.random.Generator) -> FileTrace:
        """The frame files of one study (lognormal sizes, stable names)."""
        return generate_file_trace(
            FileTraceConfig(
                file_count=self.frames_per_study,
                mean_size=self.mean_frame_size,
                std_size=self.std_frame_size,
                min_size=MIN_FRAME_SIZE,
                model="lognormal",
                name_prefix=f"{self.name_prefix}-{study:04d}.frame",
            ),
            rng=rng,
        )

    def schedule(self, sim, storage, rng: np.random.Generator) -> ProfileRun:
        """Queue every study batch on the sim clock; returns live accounting."""
        run = ProfileRun(tenant=_tenant_label(storage), profile="medical_ingest")

        def ingest(trace: FileTrace) -> None:
            for record in trace:
                run.stores_attempted += 1
                run.bytes_requested += record.size
                if storage.store_file(record.name, record.size).success:
                    run.stores_succeeded += 1
                    run.bytes_stored += record.size

        for study in range(self.studies):
            trace = self.study_trace(study, rng)  # eager: determinism
            sim.schedule(study * self.study_interval_s, lambda t=trace: ingest(t))
        return run


@dataclass(frozen=True)
class BigCopyBurstProfile:
    """Condor-style staging bursts: one large input file per burst.

    The burst sizes cycle through ``sizes_gb`` (the classic 1..32 GB bigcopy
    ladder by default), one store per ``burst_interval_s``.
    """

    bursts: int = 6
    sizes_gb: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    burst_interval_s: float = 120.0
    name_prefix: str = "bigcopy"

    def schedule(self, sim, storage, rng: np.random.Generator) -> ProfileRun:
        """Queue every staging burst on the sim clock; returns live accounting."""
        run = ProfileRun(tenant=_tenant_label(storage), profile="bigcopy_bursts")

        def burst(index: int) -> None:
            size = int(self.sizes_gb[index % len(self.sizes_gb)] * GB)
            run.stores_attempted += 1
            run.bytes_requested += size
            if storage.store_file(f"{self.name_prefix}-{index:03d}", size).success:
                run.stores_succeeded += 1
                run.bytes_stored += size

        for index in range(self.bursts):
            sim.schedule(index * self.burst_interval_s, lambda i=index: burst(i))
        return run


@dataclass(frozen=True)
class BulletDistributionProfile:
    """Steady Bullet-style dissemination as background distribution load.

    A seed payload is stored once at schedule time; every round thereafter
    pushes one ``payload`` worth of bytes from a live holder of the seed
    file's first placement to ``fanout`` stride-rotated live subscribers,
    as tenant-tagged transfers on the shared fabric.
    """

    rounds: int = 40
    payload: int = 16 * MB
    fanout: int = 4
    period_s: float = 15.0
    name_prefix: str = "bullet-seed"

    def schedule(self, sim, storage, transfers, network,
                 rng: np.random.Generator) -> ProfileRun:
        """Store the seed payload, then queue every push round on the clock."""
        run = ProfileRun(tenant=_tenant_label(storage), profile="bullet_distribution")
        tenant = storage.store_tenant
        seed_name = f"{self.name_prefix}-000"
        run.stores_attempted += 1
        run.bytes_requested += self.payload
        if storage.store_file(seed_name, self.payload).success:
            run.stores_succeeded += 1
            run.bytes_stored += self.payload

        def push(round_index: int) -> None:
            source = storage.first_block_source(seed_name)
            if source is None:
                return
            src = source[0]
            live = sorted(network.live_nodes(), key=lambda node: node.node_id)
            if not live:
                return
            share = self.payload / self.fanout
            for leaf in range(self.fanout):
                client = live[(round_index * 31 + leaf * 7 + 1) % len(live)]
                if not client.alive or client.node_id == src:
                    continue
                transfers.submit(share, src=src, dst=client.node_id, tenant=tenant)
                run.pushes += 1
                run.push_bytes += int(share)

        for round_index in range(self.rounds):
            sim.schedule(round_index * self.period_s, lambda i=round_index: push(i))
        return run
