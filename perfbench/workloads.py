"""The seven benchmark workloads and their registry.

Every workload is a class with the same four steps, run once per cycle by
``perfbench.harness``:

* ``setup()``    -- everything before the measured phase (population build,
  topology, router build, catalog/corpus pre-store, trace generation);
* ``measure()``  -- the measured phase only (may return the measured host
  seconds itself when one public call covers set-up and measurement);
* ``outcome()``  -- model-level op counts, simulated results, the result
  fingerprint and the conservation-law violations found;
* ``counters()`` -- per-layer counters read from public attributes.

All inputs derive from the seed; the simulator is driven through its public
API with default arguments only (``ClusterSession``/``ArchiveClient``,
``PastStore``/``CfsStore``, ``ServeEngine``, ``RecoveryManager``,
``FaultInjector``, ``SoakExperiment``, ``ChunkCodec``, ``session.routing()``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import ClusterSession
from repro.baselines.cfs import CfsStore
from repro.baselines.past import PastStore
from repro.core.cache import CacheManager
from repro.core.policies import StoragePolicy
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.online_code import OnlineCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.soak import SoakConfig, SoakExperiment
from repro.multicast.replication import MulticastReplicator
from repro.sim.rng import RandomStreams
from repro.workloads import serving
from repro.workloads.capacity import CapacityConfig
from repro.workloads.filetrace import GB, MB, FileTraceConfig, generate_file_trace

DEFAULT_SEED = 11


@dataclass
class Outcome:
    """What one cycle produced, on the model's own terms."""

    #: Model-level ops attempted (see each workload's ``op``) and how many of
    #: them the model failed or refused.
    ops: int
    failed_ops: int
    #: Simulated results (the paper's numbers); identical for identical seeds.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Exact-for-counts / 1e-9-for-floats result fingerprint.
    fingerprint: Dict[str, float] = field(default_factory=dict)
    #: Broken conservation laws (empty = outputs are consistent).
    violations: List[str] = field(default_factory=list)


def _expect(violations: List[str], ok: bool, law: str) -> None:
    if not ok:
        violations.append(law)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class _Workload:
    """Shared constructor: the seed, the size knobs, the traced-run op hook."""

    #: Module whose kernel callbacks are the ops (None = the loop calls
    #: ``self.mark_op`` itself).
    op_module: Optional[str] = None
    #: The measured phase starts at the first ``Simulator.run`` inside
    #: ``measure()`` rather than at its call (see ``ChurnSoak``).
    measure_at_run = False

    def __init__(self, seed: int, **size) -> None:
        self.seed = seed
        self.size = size
        self.mark_op: Callable[[int], None] = lambda index: None


# ------------------------------------------------------------------- ingest --
class Ingest(_Workload):
    """Figures 7-9 loop: every file offered to PAST, CFS and the proposed system.

    Each scheme runs on its own identical population (same ids, same
    capacities).  The scheme parameters are the insertion experiment's:
    PAST without salted retries, CFS with 4 MB blocks and 3 retries per
    block, the proposed system with a zero-chunk limit of 5.
    """

    def setup(self) -> None:
        nodes = self.size["nodes"]

        def population() -> ClusterSession:
            return ClusterSession(nodes, streams=RandomStreams(self.seed),
                                  capacity_config=CapacityConfig(node_count=nodes))

        self.sessions = {scheme: population() for scheme in ("past", "cfs", "ours")}
        self.past = PastStore(self.sessions["past"].dht, retries=0)
        self.cfs = CfsStore(self.sessions["cfs"].dht, block_size=4 * MB,
                            retries_per_block=3)
        self.ours = self.sessions["ours"].client(
            policy=StoragePolicy(max_consecutive_zero_chunks=5))
        mean_size = 243 * MB
        # Like the insertion experiment: the nominal capacity sets the file
        # count, so every seed offers the same number of ops.
        files = self.size.get("files") or int(
            round(nodes * 45 * GB * self.size["utilization"] / mean_size))
        self.trace = generate_file_trace(
            FileTraceConfig(file_count=files, mean_size=mean_size,
                            std_size=55 * MB, min_size=50 * MB),
            rng=RandomStreams(self.seed).fresh("trace"),
        )
        self.accepted = {scheme: 0 for scheme in self.sessions}
        self.accepted_bytes = {scheme: 0 for scheme in self.sessions}

    def measure(self) -> None:
        stores = (("past", self.past.store_file), ("cfs", self.cfs.store_file),
                  ("ours", self.ours.store))
        accepted, accepted_bytes = self.accepted, self.accepted_bytes
        for index, record in enumerate(self.trace):
            self.mark_op(index)
            for scheme, store in stores:
                if store(record.name, record.size).success:
                    accepted[scheme] += 1
                    accepted_bytes[scheme] += record.size

    def _ledgers(self):
        return {"past": self.past.ledger, "cfs": self.cfs.ledger,
                "ours": self.ours.storage.ledger}

    def outcome(self) -> Outcome:
        files = len(self.trace)
        ledgers = self._ledgers()
        violations: List[str] = []
        fingerprint: Dict[str, float] = {"files": files}
        for scheme, session in self.sessions.items():
            ledger = ledgers[scheme]
            _expect(violations, session.dht.total_used() == ledger.live_bytes,
                    f"{scheme}: total_used == live ledger bytes")
            _expect(violations, ledger.stored_data_bytes == self.accepted_bytes[scheme],
                    f"{scheme}: ledger user bytes == bytes of accepted files")
            fingerprint[f"{scheme}_accepted"] = self.accepted[scheme]
            fingerprint[f"{scheme}_total_used"] = session.dht.total_used()
            fingerprint[f"{scheme}_lookups"] = session.dht.lookup_count
        live = sum(ledger.live_bytes for ledger in ledgers.values())
        user = sum(ledger.stored_data_bytes for ledger in ledgers.values())
        return Outcome(
            ops=3 * files,
            failed_ops=3 * files - sum(self.accepted.values()),
            sim={"stored_per_user_byte": live / user},
            fingerprint=fingerprint,
            violations=violations,
        )

    def counters(self) -> Dict[str, float]:
        files = len(self.trace)
        footprints = [ledger.memory_footprint() for ledger in self._ledgers().values()]
        return {
            **_storage_delta(self.ours.storage, {}),
            "overlay.dht.lookups": sum(s.dht.lookup_count for s in self.sessions.values()),
            "baselines.past.store_calls": files,
            "baselines.past.failed_stores": files - self.accepted["past"],
            "baselines.cfs.store_calls": files,
            "baselines.cfs.failed_stores": files - self.accepted["cfs"],
            "core.block_ledger.peak_rows": sum(f["row_count"] for f in footprints),
            "core.block_ledger.column_mb": sum(f["column_bytes"] for f in footprints) / MB,
        }


# -------------------------------------------------------------------- serve --
#: The serve cluster: 4 sites x 4 racks, 8 MB/s access links behind the 4:1
#: core with the three latency classes, XOR (2,3), replication 2.
_SERVE_LATENCY = {"intra_rack_latency": 0.0005, "intra_site_latency": 0.002,
                  "inter_site_latency": 0.02}


def _fabric_session(nodes: int, streams: RandomStreams, latency=None) -> ClusterSession:
    return ClusterSession(
        nodes, streams=streams, capacity_config=CapacityConfig(node_count=nodes),
        sites=4, racks_per_site=4, bandwidth_mb_s=8.0, oversubscription=4.0,
        latency=latency,
    )


def _xor_client(session: ClusterSession, tenant: Optional[str] = None,
                max_chunk_size: Optional[int] = None):
    return session.client(
        tenant=tenant,
        codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2),
        policy=StoragePolicy(block_replication=2, max_chunk_size=max_chunk_size),
    )


class Serve(_Workload):
    """Open-loop (in simulated time) Zipf read/write traffic through gateways.

    Poisson arrivals at a fixed offered rate, cut to a fixed request count so
    every seed offers the same number of ops; latency counts from arrival,
    so generator lateness is zero by construction and backlog growth shows
    as makespan minus trace duration.
    """

    op_module = "repro.workloads.serving"

    def setup(self) -> None:
        size = self.size
        streams = RandomStreams(self.seed)
        self.session = session = _fabric_session(size["nodes"], streams, _SERVE_LATENCY)
        chunk_mb = size["chunk_mb"]
        self.client = client = _xor_client(
            session, tenant="serve",
            max_chunk_size=int(chunk_mb * MB) if chunk_mb else None)
        mean = int(size["file_mb"] * MB)
        catalog_trace = generate_file_trace(
            FileTraceConfig(file_count=size["catalog"], mean_size=mean,
                            std_size=mean // 10, min_size=MB // 2,
                            model="lognormal", name_prefix="media"),
            rng=streams.fresh("catalog"),
        )
        for record in catalog_trace:
            client.store(record.name, record.size)
        self.catalog = [record.name for record in catalog_trace
                        if record.name in client.storage.files]
        client.attach(client=None)
        self.cache = None
        replicator = None
        if size["cache_mb"]:
            self.cache = client.attach_cache(
                CacheManager(int(size["cache_mb"] * MB), hit_latency_s=0.0005))
            replicator = MulticastReplicator(
                client.storage, rng=streams.fresh("replicate"), simulate_push=False)
        requests, rate = size["requests"], size["rate"]
        full = serving.generate_request_trace(
            len(self.catalog),
            serving.ServingTraceConfig(
                request_rate=rate, duration_s=1.5 * requests / rate,
                zipf_s=size["zipf_s"], read_fraction=0.9,
                client_count=size["gateways"],
                write_mean_size=mean, write_std_size=mean // 2,
                write_min_size=MB // 2),
            rng=streams.fresh("requests"),
        )
        if full.count < requests:
            raise RuntimeError(f"trace has {full.count} requests, need {requests}")
        self.trace = serving.RequestTrace(
            arrivals=full.arrivals[:requests], is_read=full.is_read[:requests],
            file_index=full.file_index[:requests],
            client_index=full.client_index[:requests],
            write_sizes=full.write_sizes[:requests],
            duration_s=float(full.arrivals[requests - 1]),
        )
        self.router = session.routing() if size["hop_latency_s"] > 0 else None
        self.engine = serving.ServeEngine(
            session.sim, client, session.transfers, self.trace, self.catalog,
            session.gateways(size["gateways"]), cache=self.cache,
            replicator=replicator, hot_threshold=size["hot_threshold"],
            hot_replicas=2, router=self.router,
            hop_latency_s=size["hop_latency_s"],
        )
        self.baseline = _storage_counts(client.storage)

    def measure(self) -> None:
        self.engine.schedule()
        self.session.run()

    def outcome(self) -> Outcome:
        engine, trace, transfers = self.engine, self.trace, self.session.transfers
        reads, writes = engine.read_latencies, engine.write_latencies
        failed = engine.failed_reads + engine.failed_writes
        files = self.client.storage.files
        read_bytes = sum(files[self.catalog[int(i)]].size
                         for i in trace.file_index[trace.is_read])
        user_bytes = read_bytes + int(trace.write_sizes.sum())
        makespan = max(engine.last_completion_s, trace.duration_s)
        violations: List[str] = []
        _expect(violations, len(reads) + len(writes) + failed == trace.count,
                "requests: completed + failed == attempted")
        _expect(violations, _settled(transfers),
                "transfers: completed + failed == submitted")
        _expect(violations, min(reads + writes, default=0.0) >= 0.0,
                "no negative latency")
        sim = {
            "sim_p50_s": _percentile(reads, 50),
            "sim_p99_s": _percentile(reads, 99),
            "sim_goodput_mb_s": user_bytes / MB / makespan,
        }
        fingerprint = {
            "requests": trace.count, "reads_ok": len(reads), "writes_ok": len(writes),
            "failed": failed, "transfers": transfers.submitted_count,
            "bytes_completed": transfers.bytes_completed, "makespan_s": makespan,
            "promotions": len(engine.promotions), "routed_hops": engine.routed_hops,
            "latency_samples": len(reads), **sim,
        }
        if self.cache is not None:
            fingerprint["cache_hits"] = self.cache.chunk_hits
            fingerprint["cache_evictions"] = self.cache.evictions
        return Outcome(ops=trace.count, failed_ops=failed, sim=sim,
                       fingerprint=fingerprint, violations=violations)

    def counters(self) -> Dict[str, float]:
        out = {
            **_storage_delta(self.client.storage, self.baseline),
            **_ledger_counters(self.session.ledger),
            "multicast.replication.promotions": len(self.engine.promotions),
            "overlay.engine.hops": self.engine.routed_hops,
            **_transfer_counters(self.session.transfers),
            "sim.engine.events": self.session.sim.events_processed,
        }
        if self.cache is not None:
            summary = self.cache.summary()
            out.update({
                "core.cache.hits": summary["cache_hits"],
                "core.cache.misses": summary["cache_misses"],
                "core.cache.hit_pct": summary["cache_hit_pct"],
                "core.cache.evictions": summary["cache_evictions"],
                "core.cache.replica_read_pct": summary["replica_read_pct"],
            })
        if self.router is not None:
            out["overlay.engine.table_mb"] = self.router.memory_footprint()["total_bytes"] / MB
        return out


def _storage_counts(storage) -> Dict[str, float]:
    """Cumulative counters of one store; ``_storage_delta`` subtracts set-up's."""
    return {
        "overlay.dht.lookups": storage.dht.lookup_count,
        "core.capacity.probes": storage.probe.total_probes,
        "core.storage.store_calls": storage.store_attempts,
        "core.storage.degraded_reads": storage.degraded_reads,
        "core.storage.failed_reads": storage.failed_reads,
        "store_lookups": storage.total_lookups,
    }


def _storage_delta(storage, baseline: Dict[str, float]) -> Dict[str, float]:
    """The measured phase's share of a store's counters."""
    delta = {name: value - baseline.get(name, 0)
             for name, value in _storage_counts(storage).items()}
    delta["core.storage.store_lookups_mean"] = (
        delta.pop("store_lookups") / max(1, delta["core.storage.store_calls"]))
    return delta


def _ledger_counters(ledger) -> Dict[str, float]:
    footprint = ledger.memory_footprint()
    return {"core.block_ledger.peak_rows": footprint["row_count"],
            "core.block_ledger.column_mb": footprint["column_bytes"] / MB}


def _settled(transfers) -> bool:
    """Every submitted transfer completed or failed, and the fabric is idle."""
    return (transfers.idle and transfers.completed_count + transfers.failed_count
            == transfers.submitted_count)


def _transfer_counters(transfers) -> Dict[str, float]:
    return {
        "core.transfer.submitted": transfers.submitted_count,
        "core.transfer.completed": transfers.completed_count,
        "core.transfer.failed": transfers.failed_count,
        "core.transfer.bytes_gb": transfers.bytes_completed / GB,
    }


# ------------------------------------------------------------- repair storm --
class RepairStorm(_Workload):
    """Whole-site outage behind the 4:1 core, repaired through a paced window.

    Repair flows pass a 64-transfer admission window at half foreground
    weight, one per-node repair pass every 5 simulated seconds, while
    foreground probe reads (one stored block each, weight 1.0) ride through
    the storm.
    """

    op_module = "repro.sim.faults"

    def setup(self) -> None:
        size = self.size
        streams = RandomStreams(self.seed)
        self.session = session = _fabric_session(size["nodes"], streams)
        self.client = client = _xor_client(session)
        trace = generate_file_trace(
            FileTraceConfig(file_count=size["files"], mean_size=243 * MB,
                            std_size=55 * MB, min_size=50 * MB),
            rng=streams.fresh("trace"),
        )
        for record in trace:
            client.store(record.name, record.size)
        self.recovery = session.recovery(client, repair_window=64, repair_weight=0.5)
        self.injector = session.fault_injector(self.recovery, repair_spacing=5.0)
        self.probe_latencies: List[float] = []
        self.probes_issued = 0
        self.probe_bytes = 0.0
        self.baseline = _storage_counts(client.storage)

    def _issue_probe(self, index: int, names: List[str], live: list) -> None:
        """One foreground read of a stored block to a live client node."""
        network, transfers, sim = self.session.network, self.session.transfers, self.session.sim
        stored = self.client.storage.files[names[index % len(names)]]
        placement = stored.chunks[0].placements[0]
        source = next((int(node_id)
                       for node_id in (placement.node_id, *placement.replica_nodes)
                       if node_id in network and network.node(node_id).alive), None)
        reader = live[(index * 13 + 1) % len(live)]
        if source is None or not reader.alive or source == int(reader.node_id):
            return  # every copy died with the site, or the reader did
        issued = sim.now
        self.probes_issued += 1
        self.probe_bytes += float(placement.size)
        transfers.submit(
            float(placement.size), src=source, dst=int(reader.node_id),
            on_complete=lambda t: self.probe_latencies.append(t.finished_at - issued))

    def measure(self) -> None:
        session = self.session
        live = sorted(session.network.live_nodes(), key=lambda node: int(node.node_id))
        names = sorted(self.client.storage.files)
        for index in range(self.size["probes"]):
            session.sim.schedule(index * 2.0,
                                 lambda i=index: self._issue_probe(i, names, live))
        self.event = self.injector.fail_domain(site=0)
        session.run()

    def outcome(self) -> Outcome:
        transfers, impacts = self.session.transfers, self.recovery.impacts
        ttrs = self.recovery.repair_times()
        abandoned = sum(1 for impact in impacts if impact.repair_transfers_failed)
        repair_bytes = transfers.bytes_completed - self.probe_bytes
        makespan = transfers.last_completion_time
        violations: List[str] = []
        _expect(violations, len(impacts) == self.event.nodes_affected,
                "one repair pass per failed node")
        _expect(violations, _settled(transfers),
                "transfers: completed + failed == submitted")
        _expect(violations, len(self.probe_latencies) == self.probes_issued,
                "foreground probes: completed == issued")
        _expect(violations, min(ttrs + self.probe_latencies, default=0.0) >= 0.0,
                "no negative latency")
        _expect(violations,
                self.session.dht.total_used() == self.client.storage.ledger.live_bytes,
                "total_used == live ledger bytes")
        sim = {
            "sim_p50_s": _percentile(ttrs, 50),
            "sim_p99_s": _percentile(ttrs, 99),
            "sim_goodput_mb_s": repair_bytes / MB / makespan,
        }
        fingerprint = {
            "nodes_down": self.event.nodes_affected, "rows_killed": self.event.rows_killed,
            "replicas_restored": self.event.replicas_restored,
            "bytes_regenerated": self.event.bytes_regenerated,
            "data_bytes_lost": self.event.data_bytes_lost,
            "transfers": transfers.submitted_count, "makespan_s": makespan,
            "probes_done": len(self.probe_latencies), "latency_samples": len(ttrs), **sim,
        }
        return Outcome(ops=len(impacts), failed_ops=abandoned, sim=sim,
                       fingerprint=fingerprint, violations=violations)

    def counters(self) -> Dict[str, float]:
        return {
            **_storage_delta(self.client.storage, self.baseline),
            **_ledger_counters(self.client.storage.ledger),
            **_transfer_counters(self.session.transfers),
            "core.transfer.pacer_queue_peak": self.recovery.pacer.peak_queue_depth,
            "sim.engine.events": self.session.sim.events_processed,
            **_recovery_counters(self.recovery.impacts),
            "sim.faults.rows_killed": self.event.rows_killed,
            "sim.faults.nodes_down": self.event.nodes_affected,
        }


def _recovery_counters(impacts) -> Dict[str, float]:
    return {
        "core.recovery.failures_handled": len(impacts),
        "core.recovery.regenerated_gb": sum(i.bytes_regenerated for i in impacts) / GB,
        "core.recovery.rereplicated_rows": sum(i.replicas_restored for i in impacts),
        "core.recovery.lost_gb": sum(i.data_bytes_lost for i in impacts) / GB,
        "core.recovery.retries": sum(i.repair_retries for i in impacts),
    }


# --------------------------------------------------------------- churn soak --
class ChurnSoak(_Workload):
    """The paper-scale session/join/leave model with instantaneous repair.

    ``SoakExperiment.run()`` distributes the corpus and runs the soak in one
    call and reports the split itself, so ``measure()`` returns the soak
    phase's host seconds and the harness books the rest as set-up.
    """

    op_module = "repro.experiments.soak"
    measure_at_run = True

    def setup(self) -> None:
        size = self.size
        scale = size["nodes"] / 10_000
        self.experiment = SoakExperiment(SoakConfig(
            node_count=size["nodes"], file_count=size["files"],
            horizon_hours=size["hours"], mean_uptime_hours=24.0,
            mean_downtime_hours=2.0, join_rate_per_hour=50.0 * scale,
            leave_rate_per_hour=50.0 * scale, sample_every_hours=size["hours"] / 4,
            compact_every_hours=size["hours"] / 4, seed=self.seed,
        ))

    def measure(self) -> float:
        self.result = self.experiment.run()
        return self.result.timings["soak_s"]

    def outcome(self) -> Outcome:
        result, storage = self.result, self.experiment.storage
        counters = result.counters
        violations: List[str] = []
        _expect(violations, counters["returns"] <= counters["failures"],
                "returns <= failures")
        _expect(violations, storage.dht.total_used() == storage.ledger.live_bytes,
                "total_used == live ledger bytes")
        _expect(violations,
                result.live_nodes[-1] == len(storage.dht) and all(
                    0.0 <= pct <= 100.0 for pct in result.unavailable_pct),
                "sampled series within range")
        fingerprint = {
            **{name: counters[name] for name in ("failures", "returns", "joins", "leaves")},
            "files_stored": result.files_stored,
            "final_live_nodes": result.live_nodes[-1],
            "final_unavailable_pct": result.unavailable_pct[-1],
            "regenerated_bytes": result.recovery_totals["total_regenerated_bytes"],
            "lost_bytes": result.recovery_totals["total_data_lost_bytes"],
            "final_ledger_rows": result.ledger_rows[-1],
            "rows_reclaimed": int(sum(e["rows_released"] for e in result.compactions)),
        }
        return Outcome(ops=sum(counters.values()), failed_ops=0,
                       fingerprint=fingerprint, violations=violations)

    def counters(self) -> Dict[str, float]:
        result = self.result
        totals = result.recovery_totals
        return {
            "core.block_ledger.peak_rows": max(result.ledger_rows),
            "core.block_ledger.compactions": len(result.compactions),
            "core.block_ledger.rows_reclaimed": sum(e["rows_released"] for e in result.compactions),
            "core.block_ledger.column_mb": max(result.ledger_column_bytes) / MB,
            "sim.engine.events": result.timings["events"],
            "core.recovery.failures_handled": totals["failures"],
            "core.recovery.regenerated_gb": totals["total_regenerated_bytes"] / GB,
            "core.recovery.lost_gb": totals["total_data_lost_bytes"] / GB,
        }


# -------------------------------------------------------- payload roundtrip --
class PayloadRoundtrip(_Workload):
    """Real bytes through the online code: store, fail holders, retrieve."""

    def setup(self) -> None:
        size = self.size
        streams = RandomStreams(self.seed)
        capacity = int(size["node_mb"] * MB)
        self.session = session = ClusterSession(
            size["nodes"], streams=streams,
            capacity_config=CapacityConfig(node_count=size["nodes"], mean=capacity,
                                           std=0, minimum=capacity))
        self.client = session.client(
            codec=ChunkCodec(OnlineCode(), blocks_per_chunk=size["blocks"]),
            payload_mode=True)
        self.recovery = session.recovery(self.client)
        rng = streams.fresh("payload")
        self.payloads = {f"image-{index:03d}": rng.bytes(int(size["file_mb"] * MB))
                         for index in range(size["files"])}
        self.digests = {name: hashlib.sha1(data).hexdigest()
                        for name, data in self.payloads.items()}
        self.stored = 0
        self.intact = 0
        self.undecodable = 0
        self.corrupt = 0

    def measure(self) -> None:
        client = self.client
        op = 0
        for name, data in self.payloads.items():
            self.mark_op(op)
            op += 1
            self.stored += client.store(name, data=data).success
        # Fail the holders whose block count is closest to the target,
        # regenerating after each: about the same number of lost blocks --
        # decode + re-encode work -- for every seed.
        target = self.size["blocks_per_failure"]
        holders = [node for node in self.session.network.live_nodes() if node.stored_blocks]
        holders.sort(key=lambda node: (abs(len(node.stored_blocks) - target),
                                       int(node.node_id)))
        victims = [node.node_id for node in holders[: self.size["failures"]]]
        for victim in victims:
            self.recovery.handle_failure(victim)
        for name in self.payloads:
            self.mark_op(op)
            op += 1
            result = client.retrieve(name)
            if not result.complete:
                # A stalled peeling decode is a model-level failed op (the
                # online code is probabilistic); wrong bytes never are.
                self.undecodable += 1
                self.corrupt += result.data is not None
            elif hashlib.sha1(result.data).hexdigest() == self.digests[name]:
                self.intact += 1
            else:
                self.corrupt += 1

    def outcome(self) -> Outcome:
        files = len(self.payloads)
        ledger = self.client.storage.ledger
        impacts = self.recovery.impacts
        violations: List[str] = []
        _expect(violations,
                self.corrupt == 0 and self.intact + self.undecodable == files,
                "SHA-1 of every retrieved file equals the stored one")
        _expect(violations, self.session.dht.total_used() == ledger.live_bytes,
                "total_used == live ledger bytes")
        user = sum(len(self.payloads[name]) for name in self.client.storage.files)
        _expect(violations, ledger.stored_data_bytes == user,
                "ledger user bytes == bytes of accepted files")
        sim = {"stored_per_user_byte": ledger.live_bytes / ledger.stored_data_bytes}
        fingerprint = {
            "files": files, "stored": self.stored, "intact": self.intact,
            "undecodable": self.undecodable, "holders_failed": len(impacts),
            "bytes_regenerated": sum(i.bytes_regenerated for i in impacts),
            "live_bytes": ledger.live_bytes,
            "payload_sha1": int(hashlib.sha1(
                "".join(self.digests.values()).encode()).hexdigest()[:12], 16),
            **sim,
        }
        return Outcome(ops=2 * files, failed_ops=2 * files - self.stored - self.intact,
                       sim=sim, fingerprint=fingerprint, violations=violations)

    def counters(self) -> Dict[str, float]:
        return {
            **_storage_delta(self.client.storage, {}),
            **_ledger_counters(self.client.storage.ledger),
            **_recovery_counters(self.recovery.impacts),
        }


# ----------------------------------------------------------------- registry --
@dataclass(frozen=True)
class WorkloadEntry:
    """One registry row: what runs, at which sizes, and why it is here."""

    name: str
    #: ``generator(seed, **size)`` builds one cycle's workload from the seed.
    generator: type
    #: The size the contract command measures, and a size that runs in < 2 s.
    default: Dict[str, float]
    smoke: Dict[str, float]
    #: What one op is (ops are model-level, never kernel events).
    op: str
    why: str


REGISTRY: Dict[str, WorkloadEntry] = {entry.name: entry for entry in (
    WorkloadEntry(
        "ingest_10k", Ingest,
        default={"nodes": 10_000, "files": 4_000},
        smoke={"nodes": 400, "files": 120},
        op="one file offered to one scheme (PAST, CFS, proposed)",
        why="Figures 7-9 placement at the paper's 10k population, <1% fill: DHT lookups, "
            "capacity probes, storage and ledger registration do all the work, fabric and kernel none.",
    ),
    WorkloadEntry(
        "ingest_pressure", Ingest,
        default={"nodes": 64, "utilization": 0.635},
        smoke={"nodes": 12, "utilization": 0.635},
        op="one file offered to one scheme (PAST, CFS, proposed)",
        why="Same loop filled to the paper's 63.5% utilisation: per-block retries, zero-chunk limits "
            "and refused stores; a batching gain on ingest_10k that costs the retry path shows here.",
    ),
    WorkloadEntry(
        "serve_cached", Serve,
        default={"nodes": 10_000, "catalog": 1_000, "file_mb": 4.0, "chunk_mb": 0.0,
                 "gateways": 32, "cache_mb": 64.0, "hot_threshold": 24, "zipf_s": 1.2,
                 "rate": 30.0, "requests": 3_200, "hop_latency_s": 0.0},
        smoke={"nodes": 200, "catalog": 60, "file_mb": 1.0, "chunk_mb": 0.0,
               "gateways": 4, "cache_mb": 8.0, "hot_threshold": 6, "zipf_s": 1.2,
               "rate": 30.0, "requests": 60, "hop_latency_s": 0.0},
        op="one read or write request",
        why="Zipf 1.2 reads through 32 gateway LRU caches with hot-file promotion: core.cache, "
            "miss sourcing and multicast.replication carry the reads; a cache-hit fast path shows here.",
    ),
    WorkloadEntry(
        "serve_direct", Serve,
        default={"nodes": 1_000, "catalog": 1_500, "file_mb": 2.0, "chunk_mb": 1.0,
                 "gateways": 96, "cache_mb": 0.0, "hot_threshold": 0, "zipf_s": 1.1,
                 "rate": 16.0, "requests": 1_150, "hop_latency_s": 0.005},
        smoke={"nodes": 200, "catalog": 120, "file_mb": 1.0, "chunk_mb": 0.5,
               "gateways": 8, "cache_mb": 0.0, "hot_threshold": 0, "zipf_s": 1.1,
               "rate": 30.0, "requests": 60, "hop_latency_s": 0.005},
        op="one read or write request",
        why="No cache, striped reads from busy primaries, one Pastry route per request: core.transfer "
            "progressive filling is the largest share; a cache change must read 'no change' here.",
    ),
    WorkloadEntry(
        "repair_storm", RepairStorm,
        default={"nodes": 10_000, "files": 3_500, "probes": 200},
        smoke={"nodes": 160, "files": 60, "probes": 10},
        op="one failed node whose repair pass completed",
        why="Whole-site outage behind the 4:1 core: thousands of long, paced, half-weight repair "
            "flows plus recovery planning and fail_domain; the fabric used the other way round.",
    ),
    WorkloadEntry(
        "churn_soak", ChurnSoak,
        default={"nodes": 10_000, "files": 15_000, "hours": 4.0},
        smoke={"nodes": 200, "files": 300, "hours": 4.0},
        op="one churn event (fail, return, join, leave)",
        why="Paper-scale session/join/leave churn with instantaneous repair and ledger compaction: "
            "recovery without fabric, DHT boundary patches, overlay join/leave/fail.",
    ),
    WorkloadEntry(
        "payload_roundtrip", PayloadRoundtrip,
        default={"nodes": 200, "node_mb": 256.0, "files": 12, "file_mb": 8.0,
                 "blocks": 64, "failures": 6, "blocks_per_failure": 5},
        smoke={"nodes": 40, "node_mb": 64.0, "files": 3, "file_mb": 0.5,
               "blocks": 16, "failures": 2, "blocks_per_failure": 2},
        op="one file stored or retrieved",
        why="Real bytes through the online code (encode, decode, regeneration re-encode): the only "
            "workload where erasure dominates, and the strongest check (bytes out == bytes in).",
    ),
)}
