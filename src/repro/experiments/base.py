"""Shared experiment configuration and the one deployment path.

Section 6 of the paper runs every measurement on one simulated population
(capacities N(45 GB, 10 GB)) loaded with one file trace (243 MB +- 55 MB).
:class:`DeploymentConfig` owns those fields once and :func:`deploy` builds the
cluster through :class:`~repro.api.ClusterSession`, claims the client the
corpus is stored through and loads the corpus.  Every experiment that stores
into one cluster -- ``failure_sweep`` (Figure 10, Table 3 and the repair
panels), ``soak``, ``faults``, ``tenants`` and ``serving`` -- deploys there, so
all share one construction order and one set of RNG stream labels
(``"capacities"``, ``"overlay"``, then the corpus's), and take their clock,
transfer fabric, repair manager and fault injector from the session.
:class:`FabricConfig` adds the failure-domain grid and the transfer fabric
that ``faults``, ``tenants`` and ``serving`` run on.  What their corpora differ
in is a class constant of the config, not an option: ``tenants`` pre-stores
the ``"archive"`` tenant's ``archive-*`` files, ``serving`` a lognormal
``media-*`` catalog drawn from the ``"catalog"`` stream for tenant
``"serve"``.  ``faults`` and ``tenants`` time block reads during the storm
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
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Tuple

from repro.api import ArchiveClient, ClusterSession
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.xor_code import XorParityCode
from repro.overlay.node import OverlayNode
from repro.overlay.validation import AT_LEAST_1, POSITIVE, RATIO, require_fields
from repro.sim.rng import RandomStreams
from repro.workloads.capacity import CapacityConfig
from repro.workloads.filetrace import GB, MB, FileTraceConfig, generate_file_trace


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

    #: What one experiment's corpus differs in from another's: the size model,
    #: the file-name prefix, the RNG stream label the sizes are drawn from and
    #: the tenant that stores it (``None`` = the untagged client).
    TRACE_MODEL: ClassVar[str] = "truncated-normal"
    NAME_PREFIX: ClassVar[str] = "file"
    TRACE_STREAM: ClassVar[str] = "trace"
    TENANT: ClassVar[Optional[str]] = None

    def scaled(self, factor: float):
        """The population and the corpus multiplied by ``factor``."""
        return replace(self, node_count=scaled_count(self.node_count, factor, 2),
                       file_count=scaled_count(self.file_count, factor, 1))

    def session_arguments(self) -> Dict[str, object]:
        """The :class:`~repro.api.ClusterSession` arguments this config's fields map to."""
        return {}


@dataclass(frozen=True)
class FabricConfig(DeploymentConfig):
    """A deployment on a failure-domain grid behind the fair-share transfer fabric."""

    #: Failure-domain grid: ``sites x racks_per_site`` racks, round-robin
    #: striped over the id space (a site outage downs 1/sites of the nodes).
    sites: int = 4
    racks_per_site: int = 4
    #: Per-node symmetric link capacity (MB per simulated second).
    bandwidth_mb_s: float = 8.0
    #: Two-stage core model: when set, rack/site trunks carry the members'
    #: aggregate access bandwidth divided by this ratio (4.0 = the classic
    #: 4:1 oversubscribed aggregation layer); ``None`` = access links only.
    oversubscription: Optional[float] = None

    RANGES: ClassVar[Dict[str, tuple]] = {
        **DeploymentConfig.RANGES, "sites": AT_LEAST_1, "racks_per_site": AT_LEAST_1,
        "bandwidth_mb_s": POSITIVE, "oversubscription": RATIO}

    def session_arguments(self) -> Dict[str, object]:
        """The domain grid and the fabric's links and core."""
        return {"sites": self.sites, "racks_per_site": self.racks_per_site,
                "bandwidth_mb_s": self.bandwidth_mb_s,
                "oversubscription": self.oversubscription}


def deploy(config: DeploymentConfig, streams: RandomStreams, *,
           codec: Optional[ChunkCodec] = None,
           **session_kwargs) -> Tuple[ClusterSession, ArchiveClient]:
    """Build ``config``'s cluster, claim ``config.TENANT``'s client, store the corpus.

    The session gets ``config.session_arguments()`` plus ``session_kwargs``,
    the per-run arguments an experiment works out itself (a failure sweep
    cell's repair bandwidth, the soak's hourly one).  The default codec is
    the (2,3) XOR code every dynamics experiment distributes with.  Stores
    are instantaneous: the corpus is loaded before the client attaches to
    the transfer fabric, and a file that did not fit is simply absent from
    ``client.storage.files``, which keeps the trace's order.
    """
    session = ClusterSession(
        config.node_count,
        streams=streams,
        capacity_config=CapacityConfig(
            node_count=config.node_count,
            distribution="normal",
            mean=config.capacity_mean,
            std=config.capacity_std,
        ),
        **config.session_arguments(),
        **session_kwargs,
    )
    client = session.client(
        config.TENANT,
        codec=codec or ChunkCodec(XorParityCode(group_size=2),
                                  blocks_per_chunk=config.blocks_per_chunk),
        policy=StoragePolicy(block_replication=config.block_replication),
    )
    trace = generate_file_trace(
        FileTraceConfig(
            file_count=config.file_count,
            mean_size=config.mean_file_size,
            std_size=config.std_file_size,
            min_size=config.min_file_size,
            model=config.TRACE_MODEL,
            name_prefix=config.NAME_PREFIX,
        ),
        rng=streams.fresh(config.TRACE_STREAM),
    )
    for record in trace:
        client.store(record.name, record.size)
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


def stride_picker(nodes: Iterable[OverlayNode]) -> Callable[[int], OverlayNode]:
    """Deterministic client nodes: pick ``i`` is the ``(13 i + 1)``-th of ``nodes``
    in id order, wrapping round."""
    ordered = sorted(nodes, key=lambda node: node.node_id)
    return lambda index: ordered[(index * 13 + 1) % len(ordered)]


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
