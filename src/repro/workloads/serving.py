"""Open-loop serving workload: Poisson arrivals, Zipf popularity, serve engine.

A production archive is read-dominated.  This module provides the request
side of the serve path:

* :func:`generate_request_trace` -- an **open-loop** request trace: Poisson
  arrivals at a configurable rate (requests keep arriving regardless of how
  backlogged the system is -- the honest way to measure tail latency),
  Zipf(s)-distributed file popularity over a registered catalog, and a
  configurable read/write mix.  Traces are plain numpy arrays, fully
  determined by the RNG: same seed, same trace, byte for byte.
* :class:`ServeEngine` -- schedules every request on the discrete-event
  clock and drives it through a :class:`~repro.core.storage.StorageSystem`
  as a per-gateway call (``client=``/``observer=`` per request).  Request
  latency is measured from arrival to the last completion of the transfers
  the request charged on the fabric; a fully-cached read completes in the
  cache's hit latency without touching the fabric at all.  Popularity-
  triggered promotion pushes extra replicas of hot files through
  :class:`~repro.multicast.replication.MulticastReplicator`.

SNIPPETS.md's Chord/Pastry lookup harnesses (per-lookup popularity rows,
``summarize()`` with p50/p95) are the exemplar shape for the reporting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.naming import name_digests
from repro.overlay.validation import require_range
from repro.sim.stats import summarize
from repro.workloads.filetrace import MB


@dataclass(frozen=True)
class ServingTraceConfig:
    """Knobs of one open-loop request trace (time unit: seconds)."""

    #: Mean arrival rate of the Poisson process (requests per simulated second).
    request_rate: float = 50.0
    duration_s: float = 60.0
    #: Zipf skew: popularity of the rank-r file is proportional to r^-s.
    zipf_s: float = 1.1
    read_fraction: float = 0.9
    #: Requests round-robin over this many front-end gateway nodes.
    client_count: int = 16
    #: Write sizes (normal, clipped at the minimum).
    write_mean_size: int = 8 * MB
    write_std_size: int = 4 * MB
    write_min_size: int = 1 * MB


@dataclass(frozen=True)
class RequestTrace:
    """One generated request timeline (columnar, deterministic)."""

    #: Arrival times in simulated seconds, ascending.
    arrivals: np.ndarray
    #: True where the request is a read.
    is_read: np.ndarray
    #: Catalog index of the file a read targets (-1 on writes).
    file_index: np.ndarray
    #: Which gateway issues the request (index into the gateway list).
    client_index: np.ndarray
    #: Bytes a write ingests (0 on reads).
    write_sizes: np.ndarray
    duration_s: float

    @property
    def count(self) -> int:
        """Total requests in the trace."""
        return int(self.arrivals.shape[0])

    def fingerprint(self) -> str:
        """A digest over every column (the determinism tests compare these)."""
        digest = hashlib.sha1()
        for column in (self.arrivals, self.is_read, self.file_index,
                       self.client_index, self.write_sizes):
            digest.update(np.ascontiguousarray(column).tobytes())
        return digest.hexdigest()


def zipf_probabilities(catalog_size: int, s: float) -> np.ndarray:
    """Normalized Zipf(s) probabilities over ranks 1..catalog_size."""
    ranks = np.arange(1, catalog_size + 1, dtype=float)
    weights = ranks ** -float(s)
    return weights / weights.sum()


def generate_request_trace(
    catalog_size: int,
    config: ServingTraceConfig,
    rng: np.random.Generator,
) -> RequestTrace:
    """Generate one open-loop request trace over a ``catalog_size``-file catalog.

    The draw order is part of the format (fixed so traces are reproducible
    across refactors): arrival gaps, read/write flags, gateway indices,
    write sizes, popularity ranks, then the rank-to-catalog permutation
    (which file is "rank 1" is itself random, so popularity is not
    correlated with insertion order).
    """
    require_range("catalog_size", catalog_size, 0, ends="()")
    mean_gap = 1.0 / config.request_rate
    gaps: List[np.ndarray] = []
    total = 0.0
    block = max(16, int(config.request_rate * config.duration_s * 1.2) + 8)
    while total <= config.duration_s:
        drawn = rng.exponential(mean_gap, size=block)
        gaps.append(drawn)
        total += float(drawn.sum())
    arrivals = np.cumsum(np.concatenate(gaps))
    arrivals = arrivals[arrivals < config.duration_s]
    n = arrivals.shape[0]

    is_read = rng.random(n) < config.read_fraction
    client_index = rng.integers(0, config.client_count, size=n)
    write_sizes = np.clip(
        rng.normal(config.write_mean_size, config.write_std_size, size=n),
        config.write_min_size, None,
    ).astype(np.int64)
    write_sizes[is_read] = 0

    probs = zipf_probabilities(catalog_size, config.zipf_s)
    ranks = rng.choice(catalog_size, size=n, p=probs)
    permutation = rng.permutation(catalog_size)
    file_index = permutation[ranks]
    file_index[~is_read] = -1

    return RequestTrace(
        arrivals=arrivals,
        is_read=is_read,
        file_index=file_index,
        client_index=client_index,
        write_sizes=write_sizes,
        duration_s=float(config.duration_s),
    )


def load_summary(read_load: Dict[int, float], buckets: int = 10) -> Dict[str, float]:
    """Per-holder read-load aggregates + a coarse histogram (MB units).

    ``read_load`` is :attr:`StorageSystem.read_load`: bytes served per
    holder node.  ``load_imbalance_x`` (max over mean) is the headline
    load-balance number the cache-on/cache-off contrast reports.
    """
    if not read_load:
        return {
            "load_nodes": 0.0,
            "load_mean_mb": 0.0,
            "load_max_mb": 0.0,
            "load_p99_mb": 0.0,
            "load_imbalance_x": 0.0,
            "load_histogram": [0] * buckets,
        }
    values = np.asarray(sorted(read_load.values()), dtype=float) / MB
    stats = summarize(values)
    mean, top = stats["avg"], stats["max"]
    edges = np.linspace(0.0, top if top > 0 else 1.0, buckets + 1)
    histogram, _ = np.histogram(values, bins=edges)
    return {
        "load_nodes": stats["n"],
        "load_mean_mb": mean,
        "load_max_mb": top,
        "load_p99_mb": stats["p99"],
        "load_imbalance_x": top / mean if mean > 0 else 0.0,
        "load_histogram": [int(count) for count in histogram],
    }


@dataclass
class _RequestState:
    """Mutable completion tracking for one in-flight request."""

    arrival: float
    read: bool
    expected: Optional[int] = None
    done: int = 0
    last: float = 0.0
    ok: bool = True
    cached: int = 0
    hop_delay: float = 0.0


class ServeEngine:
    """Drives one request trace through a store on the discrete-event clock.

    Every request issues as a per-gateway call (``client=`` keys the block
    cache and the access link, ``observer=`` counts the request's own
    transfer completions).  The engine is open-loop: requests are scheduled
    at their trace arrival times regardless of backlog, so queueing delay
    shows up honestly in the latency percentiles.

    A request whose gateway is down at its arrival (failed, left, or unknown
    to the attached router) is not issued and counts in ``failed_reads``/
    ``failed_writes`` -- what the fabric does to a downed node's transfers.

    Routed hop counts come from a look-ahead batch: the trace fixes every
    upcoming key and gateway, so the first request needing a count sends a
    window of them through one ``route_many`` and later ones read their entry.
    Entries are exact while the router's ``membership_epoch`` is unchanged (a
    route is a pure function of router state, key and start); a change
    discards the unread rest.  The window doubles when used up and restarts
    at 1 after a discard: ~log2 R router calls for R churn-free requests, one
    per request when churn falls between every two.
    """

    def __init__(
        self,
        sim,
        storage,
        transfers,
        trace: RequestTrace,
        catalog: Sequence[str],
        gateways: Sequence[int],
        cache=None,
        replicator=None,
        hot_threshold: int = 0,
        hot_replicas: int = 1,
        router=None,
        hop_latency_s: float = 0.0,
    ) -> None:
        self.sim = sim
        #: Accept an ArchiveClient or a raw StorageSystem.
        self.storage = getattr(storage, "storage", storage)
        self.transfers = transfers
        self.trace = trace
        self.catalog = list(catalog)
        self.gateways = list(gateways)
        if not self.gateways:
            raise ValueError("the serve engine needs at least one gateway node")
        self.cache = cache
        self.replicator = replicator
        self.hot_threshold = hot_threshold
        self.hot_replicas = hot_replicas
        #: Opt-in routed-hop latency: requests that touch the fabric are
        #: additionally charged ``hops * hop_latency_s`` for the overlay
        #: lookup from their gateway to the file key's root.  Cache hits
        #: never touch the fabric, so they bypass the charge by construction.
        self.router = router
        self.hop_latency_s = float(hop_latency_s)
        self._routed = router is not None and self.hop_latency_s > 0.0
        self.routed_hops = 0
        #: Look-ahead hops of requests ``_hops_from ..``, exact under ``_hops_epoch``.
        self._hops = np.empty(0, dtype=np.int64)
        self._hops_from, self._hops_epoch = 0, None
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        #: chunks served from cache, one entry per completed read, issue order.
        self.hit_sequence: List[int] = []
        self.failed_reads = 0
        self.failed_writes = 0
        self.promotions: List[str] = []
        self.last_completion_s = 0.0
        self._read_counts: Dict[str, int] = {}
        self._promoted = set()

    # -------------------------------------------------------------- scheduling --
    def schedule(self) -> None:
        """Queue every request of the trace on the sim clock."""
        for index in range(self.trace.count):
            self.sim.schedule(float(self.trace.arrivals[index]),
                              lambda i=index: self._issue(i))

    def _gateway(self, index: int) -> int:
        return self.gateways[int(self.trace.client_index[index]) % len(self.gateways)]

    def _filename(self, index: int) -> str:
        if self.trace.is_read[index]:
            return self.catalog[int(self.trace.file_index[index])]
        return f"put-{index:08d}"

    def _can_issue(self, gateway: int) -> bool:
        network = self.storage.dht.network
        if gateway not in network or not network.node(gateway).alive:
            return False
        return not self._routed or gateway in self.router

    def _hops_for(self, index: int) -> int:
        """Routed hops of request ``index``, through the look-ahead window."""
        router = self.router
        unchanged = router.membership_epoch == self._hops_epoch
        if not unchanged or index >= self._hops_from + len(self._hops):
            window = min(2 * len(self._hops) if unchanged else 1, self.trace.count - index)
            starts = [self._gateway(i) for i in range(index, index + window)]
            # Gateways the router cannot route from issue nothing: never read.
            ahead = [k for k, start in enumerate(starts) if start in router]
            self._hops = np.zeros(window, dtype=np.int64)
            self._hops[ahead] = router.route_many(
                name_digests([self._filename(index + k) for k in ahead]),
                [starts[k] for k in ahead]).hops
            self._hops_from, self._hops_epoch = index, router.membership_epoch
        return int(self._hops[index - self._hops_from])

    def _issue(self, index: int) -> None:
        trace = self.trace
        read = bool(trace.is_read[index])
        gateway = self._gateway(index)
        state = _RequestState(arrival=float(trace.arrivals[index]), read=read)
        if not self._can_issue(gateway):
            state.ok = False
            self._finish(state, state.arrival)
            return

        def observe(transfer) -> None:
            state.done += 1
            state.last = max(state.last, transfer.finished_at)
            if state.expected is not None and state.done >= state.expected:
                self._finish(state, state.last)

        before = self.transfers.submitted_count if self.transfers is not None else 0
        name = None
        if read:
            name = self._filename(index)
            result = self.storage.retrieve_file(name, client=gateway,
                                                observer=observe)
            state.ok = result.complete
            state.cached = result.chunks_cached
        else:
            result = self.storage.store_file(self._filename(index),
                                             int(trace.write_sizes[index]),
                                             client=gateway, observer=observe)
            state.ok = result.success
        # Count the request's own transfers before any hot-file promotion:
        # the promotion push rides the shared fabric unobserved, and must
        # not inflate this request's completion target.
        submitted = (self.transfers.submitted_count - before
                     if self.transfers is not None else 0)
        if submitted and self._routed:
            hops = self._hops_for(index)
            self.routed_hops += hops
            state.hop_delay = hops * self.hop_latency_s
        if submitted == 0:
            # Nothing touched the fabric: a pure cache hit costs the hit
            # latency, anything else (failed read, empty write) completes
            # immediately.
            latency = (self.cache.hit_latency_s
                       if self.cache is not None and state.cached else 0.0)
            self._finish(state, state.arrival + latency)
        else:
            state.expected = submitted
        if name is not None:
            self._note_read(name)

    def _note_read(self, name: str) -> None:
        """Count one read; promote the file once it crosses the hot threshold."""
        count = self._read_counts.get(name, 0) + 1
        self._read_counts[name] = count
        if (self.replicator is not None and self.hot_threshold > 0
                and count == self.hot_threshold and name not in self._promoted):
            self._promoted.add(name)
            self.promotions.append(name)
            self.replicator.replicate_file(name, self.hot_replicas)

    def _finish(self, state: _RequestState, finished_at: float) -> None:
        finished_at += state.hop_delay
        latency = max(0.0, finished_at - state.arrival)
        self.last_completion_s = max(self.last_completion_s, finished_at)
        if state.read:
            if state.ok:
                self.read_latencies.append(latency)
                self.hit_sequence.append(state.cached)
            else:
                self.failed_reads += 1
        else:
            if state.ok:
                self.write_latencies.append(latency)
            else:
                self.failed_writes += 1

    # --------------------------------------------------------------- reporting --
    def summarize(self) -> Dict[str, float]:
        """The scenario row: throughput, latency percentiles, failure counts."""
        reads = summarize(self.read_latencies)
        writes = summarize(self.write_latencies)
        completed = reads["n"] + writes["n"]
        makespan = max(self.last_completion_s, self.trace.duration_s)
        return {
            "requests": float(self.trace.count),
            "completed": float(completed),
            "offered_req_s": self.trace.count / self.trace.duration_s,
            "sustained_req_s": completed / makespan if makespan > 0 else 0.0,
            "read_p50_s": reads["median"],
            "read_p95_s": reads["p95"],
            "read_p99_s": reads["p99"],
            "read_mean_s": reads["avg"],
            "write_p95_s": writes["p95"],
            "failed_reads": float(self.failed_reads),
            "failed_writes": float(self.failed_writes),
            "promotions": float(len(self.promotions)),
            "routed_hops": float(self.routed_hops),
            "makespan_s": makespan,
        }
