"""Shared experiment configuration and the one deployment path.

Section 6 of the paper runs every measurement on one simulated population
(capacities N(45 GB, 10 GB)) loaded with one file trace (243 MB +- 55 MB).
:class:`DeploymentConfig` owns those fields once and :func:`deploy` builds the
cluster through :class:`~repro.api.ClusterSession`, so ``failure_sweep``
(Figure 10, Table 3 and the repair panels), ``soak`` and ``faults`` share one
construction order and one set of RNG stream labels (``"capacities"``,
``"overlay"``, ``"trace"``), and take their clock, transfer fabric, repair
manager and fault injector from the session.  ``tenants`` and ``serving`` name their corpus
fields differently (several tenants, a lognormal catalog), so they compose the
same pieces -- :func:`open_session`, :func:`claim_client`, :func:`load_trace` --
themselves.  ``faults`` and ``tenants`` time block reads during the storm
with :func:`schedule_block_probes` and count their post-run reads with
:func:`read_census`.

Three experiments deliberately stay off this path: ``storage_insertion``
builds three populations under ``(label, replication_index)`` stream labels
and feeds two baseline stores that are not session clients, and ``routing``
and ``multicast_replicas`` run on bare overlays with no storage at all.
Bending ``ClusterSession`` to them would add options nothing else needs.

Every experiment follows one convention: a frozen config dataclass, ``PAPER_*``
/ ``SMOKE_*`` preset constants, ``Experiment(config).run()``, and a result
whose ``report()`` is what ``python -m repro.cli`` prints.  A config that the
CLI's ``--scale`` applies to says which of its fields scale in ``scaled()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.api import ArchiveClient, ClusterSession
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.node import OverlayNode
from repro.overlay.validation import AT_LEAST_1, POSITIVE, require_fields
from repro.sim.rng import RandomStreams
from repro.workloads.capacity import CapacityConfig
from repro.workloads.filetrace import (
    GB,
    MB,
    FileTrace,
    FileTraceConfig,
    generate_file_trace,
)


def scaled_count(value: int, factor: float, floor: int) -> int:
    """``value x factor`` rounded to an integer, never below ``floor``."""
    return max(floor, int(round(value * factor)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs every experiment shares (subclasses add their own fields)."""

    node_count: int = 200
    seed: int = 1

    #: Numeric fields not in ``[0, inf)`` (:func:`require_fields`); subclasses extend it.
    RANGES: ClassVar[Dict[str, tuple]] = {"node_count": AT_LEAST_1}

    def __post_init__(self) -> None:
        require_fields(self, self.RANGES)


@dataclass(frozen=True)
class DeploymentConfig(ExperimentConfig):
    """Section 6's population and corpus (subclasses re-declare what differs)."""

    capacity_mean: int = 45 * GB
    capacity_std: int = 10 * GB
    file_count: int = 2_000
    mean_file_size: int = 243 * MB
    std_file_size: int = 55 * MB
    min_file_size: int = 50 * MB
    #: Blocks per chunk for the (2,3) XOR protection used during distribution.
    blocks_per_chunk: int = 2
    #: Copies kept of each encoded block (1 = primary only, the paper's
    #: insertion setting).
    block_replication: int = 1

    RANGES: ClassVar[Dict[str, tuple]] = {
        **ExperimentConfig.RANGES, "mean_file_size": POSITIVE, "blocks_per_chunk": AT_LEAST_1,
        "block_replication": AT_LEAST_1}

    def scaled(self, factor: float):
        """The population and the corpus multiplied by ``factor``."""
        return replace(self, node_count=scaled_count(self.node_count, factor, 2),
                       file_count=scaled_count(self.file_count, factor, 1))


def open_session(config, streams: RandomStreams, **session_kwargs) -> ClusterSession:
    """A session over ``config``'s N(capacity_mean, capacity_std) population."""
    return ClusterSession(
        config.node_count,
        streams=streams,
        capacity_config=CapacityConfig(
            node_count=config.node_count,
            distribution="normal",
            mean=config.capacity_mean,
            std=config.capacity_std,
        ),
        **session_kwargs,
    )


def claim_client(session: ClusterSession, config, tenant: Optional[str] = None,
                 codec: Optional[ChunkCodec] = None) -> ArchiveClient:
    """A client storing under ``config``'s chunking and replication target.

    The default codec is the (2,3) XOR code every dynamics experiment
    distributes with.
    """
    return session.client(
        tenant,
        codec=codec or ChunkCodec(XorParityCode(group_size=2),
                                  blocks_per_chunk=config.blocks_per_chunk),
        policy=StoragePolicy(block_replication=config.block_replication),
    )


def load_trace(client: ArchiveClient, trace_config: FileTraceConfig,
               rng: np.random.Generator) -> FileTrace:
    """Generate one file trace and store it through ``client``.

    Stores are instantaneous here: experiments load their corpus before the
    client attaches to the transfer fabric.  Files that did not fit are
    simply absent from ``client.storage.files``.
    """
    trace = generate_file_trace(trace_config, rng=rng)
    for record in trace:
        client.store(record.name, record.size)
    return trace


def deploy(config: DeploymentConfig, streams: RandomStreams, *,
           codec: Optional[ChunkCodec] = None,
           **session_kwargs) -> Tuple[ClusterSession, ArchiveClient]:
    """Build ``config``'s cluster, claim the untagged client, load the trace.

    ``session_kwargs`` are the :class:`~repro.api.ClusterSession` deployment
    arguments an experiment's own fields map to (failure domains, the
    transfer fabric).
    """
    session = open_session(config, streams, **session_kwargs)
    client = claim_client(session, config, codec=codec)
    load_trace(
        client,
        FileTraceConfig(
            file_count=config.file_count,
            mean_size=config.mean_file_size,
            std_size=config.std_file_size,
            min_size=config.min_file_size,
        ),
        streams.fresh("trace"),
    )
    return session, client


def read_census(storage: StorageSystem, sample: int) -> Dict[str, float]:
    """Read the first ``sample`` files in name order; count degraded and failed reads."""
    names = sorted(storage.files)[:sample]
    degraded_before = storage.degraded_reads
    failed_before = storage.failed_reads
    for name in names:
        storage.retrieve_file(name)
    return {
        "reads_sampled": float(len(names)),
        "degraded_reads": float(storage.degraded_reads - degraded_before),
        "failed_reads": float(storage.failed_reads - failed_before),
    }


def schedule_block_probes(
    session: ClusterSession,
    storage: StorageSystem,
    count: int,
    period: float,
    start: float,
    pick_client: Callable[[int], OverlayNode],
    tenant: Optional[int] = None,
) -> List[float]:
    """Schedule ``count`` timed block reads on the session's clock, ``period`` apart.

    Probe ``i`` reads one real stored block -- the first live copy of the
    first placement of the ``i``-th file in name order -- to
    ``pick_client(i)``, as one transfer tagged ``tenant``; it is skipped when
    there is no file, no live copy, or the client is down or holds the copy.
    The returned list fills with completion latencies as the simulation runs.
    """
    sim, transfers = session.sim, session.transfers
    durations: List[float] = []

    def issue(index: int) -> None:
        names = sorted(storage.files)
        if not names:
            return
        source = storage.first_block_source(names[index % len(names)])
        client = pick_client(index)
        if source is None or not client.alive or source[0] == client.node_id:
            return
        src, size = source
        submitted = sim.now
        transfers.submit(
            float(size),
            src=src,
            dst=client.node_id,
            on_complete=lambda t: durations.append(t.finished_at - submitted),
            tenant=tenant,
        )

    for index in range(count):
        sim.schedule(start + index * period, lambda i=index: issue(i))
    return durations
