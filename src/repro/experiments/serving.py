"""The serve-path panels: open-loop Zipf traffic, cache-on vs cache-off.

One deployment per cell (fresh :class:`~repro.api.ClusterSession`, identical
RNG stream labels, so every cell of the sweep serves the *same* catalog and
the *same* request trace), then the cell's knob set:

* ``zipf_s`` sweeps the popularity skew (0.8 mild, 1.1 hot-spotted);
* ``cache`` toggles the serve-path optimizations: per-gateway LRU block
  caches (:class:`~repro.core.cache.CacheManager`) plus popularity-triggered
  hot-file replication (:class:`~repro.multicast.replication.
  MulticastReplicator` with the packet-level push model off -- the push
  bytes are charged on the shared transfer fabric instead).

The flagship claim (recorded in ``BENCH_serving.json``): at 10 000 nodes
under Zipf s=1.1, cache-on sustains the offered request rate with measurably
better p99 read latency and per-holder load balance than cache-off, while
the cache-off path stays bit-identical to direct ``retrieve_file`` calls
(the oracle in ``tests/test_serving.py``).

Run it::

    python -m repro.cli serve            # paper scale (10 000 nodes)
    python -m repro.cli serve --smoke    # CI smoke (seconds)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional

from repro.core.cache import CacheManager
from repro.experiments.base import FabricConfig, deploy
from repro.experiments.results import ScenarioRows, TableResult, render_report, summary_line
from repro.multicast.replication import MulticastReplicator
from repro.overlay.validation import AT_LEAST_1, CLOSED_FRACTION, POSITIVE, OneOf
from repro.sim.rng import RandomStreams
from repro.workloads.filetrace import MB
from repro.workloads.serving import (
    ServeEngine,
    ServingTraceConfig,
    generate_request_trace,
    load_summary,
)


#: Simulated seconds a fully cached read costs.
CACHE_HIT_LATENCY_S = 0.0005


@dataclass(frozen=True)
class ServingConfig(FabricConfig):
    """Defaults for the serving panels (time unit: seconds)."""

    node_count: int = 10_000
    seed: int = 13
    oversubscription: Optional[float] = 4.0
    intra_rack_latency: float = 0.0005
    intra_site_latency: float = 0.002
    inter_site_latency: float = 0.02
    block_replication: int = 2
    #: The served catalog (pre-stored before the fabric attaches).
    file_count: int = 4_000
    mean_file_size: int = 8 * MB
    std_file_size: int = 6 * MB
    min_file_size: int = 1 * MB
    #: Open-loop traffic.  The direct s=1.1 cell is genuinely overloaded
    #: (hot primaries' 8 MB/s uplinks vs ~30 MB/s of demand on the head of
    #: the catalog), so its backlog -- and the fair-share scheduler's cost,
    #: which scales with concurrent flows -- grows for the whole trace;
    #: 45 s keeps the flagship's wall time in minutes while the overload,
    #: the tail blow-up and the cache contrast stay unmistakable.
    request_rate: float = 60.0
    duration_s: float = 45.0
    read_fraction: float = 0.9
    client_count: int = 96
    write_mean_size: int = 8 * MB
    write_std_size: int = 4 * MB
    write_min_size: int = 1 * MB
    #: The sweep: skew values x cache modes (False = direct, True = cached).
    zipf_sweep: tuple = (0.8, 1.1)
    cache_modes: tuple = (False, True)
    #: Per-gateway LRU budget (a full cache hit costs ``CACHE_HIT_LATENCY_S``).
    cache_mb: float = 256.0
    #: Promote a file (push extra replicas) at this many reads (0 = never).
    hot_threshold: int = 24
    hot_replicas: int = 2
    #: Opt-in overlay lookup cost: fabric-touching requests are additionally
    #: charged ``hops * hop_latency_s`` over the routed path from their
    #: gateway to the file key's root on the Pastry engine (0 = off, the
    #: seed latency model).
    hop_latency_s: float = 0.0

    RANGES: ClassVar[Dict[str, tuple]] = {
        **FabricConfig.RANGES, "file_count": AT_LEAST_1, "request_rate": POSITIVE,
        "duration_s": POSITIVE, "read_fraction": CLOSED_FRACTION, "client_count": AT_LEAST_1,
        "write_mean_size": POSITIVE, "cache_mb": POSITIVE, "cache_modes": OneOf((False, True))}

    TRACE_MODEL: ClassVar[str] = "lognormal"
    NAME_PREFIX: ClassVar[str] = "media"
    TRACE_STREAM: ClassVar[str] = "catalog"
    TENANT: ClassVar[Optional[str]] = "serve"

    def session_arguments(self) -> Dict[str, object]:
        """The fabric's, plus the three latency classes of the core."""
        return {**super().session_arguments(), "latency": {
            "intra_rack_latency": self.intra_rack_latency,
            "intra_site_latency": self.intra_site_latency,
            "inter_site_latency": self.inter_site_latency,
        }}


#: The paper-scale flagship: 10 000 nodes behind a 4:1 core.
PAPER_SERVING = ServingConfig()

#: Tier-1 smoke scale: the full sweep in seconds on one core.
SMOKE_SERVING = ServingConfig(
    node_count=200,
    capacity_mean=400 * MB,
    capacity_std=100 * MB,
    file_count=240,
    mean_file_size=2 * MB,
    std_file_size=1 * MB,
    min_file_size=256 * 1024,
    request_rate=30.0,
    duration_s=12.0,
    client_count=12,
    write_mean_size=2 * MB,
    write_std_size=1 * MB,
    write_min_size=256 * 1024,
    cache_mb=24.0,
    hot_threshold=8,
)


@dataclass
class ServingResult(ScenarioRows):
    """One row per (zipf_s, cache mode) cell of the sweep, named ``s<zipf>_<cache|direct>``."""

    config: ServingConfig

    def summary(self) -> Dict[str, float]:
        """The headline numbers the benchmark records and asserts on."""
        out: Dict[str, float] = {}
        for row in self.rows:
            key = row["scenario"]
            out[f"{key}_sustained_req_s"] = row["sustained_req_s"]
            out[f"{key}_read_p99_s"] = row["read_p99_s"]
            out[f"{key}_hit_pct"] = row["cache_hit_pct"]
            out[f"{key}_load_imbalance_x"] = row["load_imbalance_x"]
        return out

    def report(self) -> str:
        """Throughput, tail latency, hit ratio and balance per cell, the headline numbers."""
        config = self.config
        return render_report(TableResult.from_rows(
            f"Serve path — open-loop Zipf traffic "
            f"({config.request_rate:g} req/s offered, "
            f"{config.read_fraction:.0%} reads, "
            f"{config.cache_mb:g} MB/gateway cache)",
            ["scenario", "zipf_s", "cache", "offered_req_s",
             "sustained_req_s", "read_p50_s", "read_p95_s", "read_p99_s",
             "cache_hit_pct", "replica_read_pct", "load_max_mb",
             "load_imbalance_x", "promotions"],
            self.rows)) + "\n" + summary_line("serving", self.summary())


class ServingExperiment:
    """Runs the serving sweep (fresh deployment per cell, shared seed)."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config

    def _run_cell(self, zipf_s: float, cache_on: bool) -> Dict[str, float]:
        config = self.config
        cell_start = time.perf_counter()
        streams = RandomStreams(config.seed)
        session, client = deploy(config, streams)
        catalog = list(client.storage.files)  # the stored catalog, in trace order

        client.attach(client=None)
        cache = None
        replicator = None
        if cache_on:
            cache = client.attach_cache(
                CacheManager(int(config.cache_mb * MB), hit_latency_s=CACHE_HIT_LATENCY_S)
            )
            if config.hot_threshold > 0:
                replicator = MulticastReplicator(
                    client.storage,
                    rng=streams.fresh("replicate"),
                    simulate_push=False,
                )

        trace = generate_request_trace(
            len(catalog),
            ServingTraceConfig(
                request_rate=config.request_rate,
                duration_s=config.duration_s,
                zipf_s=zipf_s,
                read_fraction=config.read_fraction,
                client_count=config.client_count,
                write_mean_size=config.write_mean_size,
                write_std_size=config.write_std_size,
                write_min_size=config.write_min_size,
            ),
            rng=streams.fresh("requests"),
        )
        router = None
        if config.hop_latency_s > 0.0:
            router = session.routing()
        engine = ServeEngine(
            session.sim,
            client,
            session.transfers,
            trace,
            catalog,
            session.gateways(config.client_count),
            cache=cache,
            replicator=replicator,
            hot_threshold=config.hot_threshold,
            hot_replicas=config.hot_replicas,
            router=router,
            hop_latency_s=config.hop_latency_s,
        )
        engine.schedule()
        session.run()

        row: Dict[str, float] = {
            "scenario": f"s{zipf_s:g}_{'cache' if cache_on else 'direct'}",
            "node_count": float(config.node_count),
            "zipf_s": float(zipf_s),
            "cache": 1.0 if cache_on else 0.0,
            "cache_hit_pct": 0.0,
            "replica_read_pct": 0.0,
        }
        row.update(engine.summarize())
        row.update(load_summary(client.storage.read_load))
        if cache is not None:
            row.update(cache.summary())
        row["seconds"] = time.perf_counter() - cell_start
        return row

    def run(self) -> ServingResult:
        """Run every (zipf_s, cache mode) cell of the sweep."""
        result = ServingResult(config=self.config)
        for zipf_s in self.config.zipf_sweep:
            for cache_on in self.config.cache_modes:
                result.rows.append(self._run_cell(zipf_s, cache_on))
        return result
