"""Serve-path determinism and the cache-off oracle.

The two pins the serving subsystem rests on:

* same seed => byte-identical request trace, identical hit sequence and
  identical latency percentiles, across runs;
* with no cache attached, the engine's reads are *exactly* direct
  ``retrieve_file`` calls -- same per-holder read load, same transfer
  count, same degraded/failed accounting.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import ClusterSession
from repro.core.cache import CacheManager
from repro.experiments.base import deploy
from repro.experiments.serving import ServingConfig, ServingExperiment
from repro.overlay.ids import key_for, random_node_id
from repro.overlay.node import OverlayNode
from repro.sim.rng import RandomStreams
from repro.workloads.filetrace import MB
from repro.workloads.serving import (
    ServeEngine,
    ServingTraceConfig,
    generate_request_trace,
    load_summary,
    zipf_probabilities,
)


def _tiny_config(**overrides) -> ServingConfig:
    base = dict(
        node_count=80, seed=21, capacity_mean=400 * MB, capacity_std=100 * MB,
        sites=2, racks_per_site=2, bandwidth_mb_s=8.0, oversubscription=4.0,
        file_count=60, mean_file_size=2 * MB, std_file_size=1 * MB,
        min_file_size=256 * 1024, request_rate=20.0, duration_s=6.0,
        client_count=8, write_mean_size=1 * MB, write_std_size=512 * 1024,
        write_min_size=256 * 1024, zipf_sweep=(1.1,), cache_modes=(True,),
        cache_mb=16.0, hot_threshold=0,
    )
    base.update(overrides)
    return ServingConfig(**base)


def _deployed(config: ServingConfig):
    """``config``'s deployment as the experiment's cells build it: ``deploy()``
    (the fabric, its three latency classes, the stored catalog), then the
    client attached to the fabric."""
    streams = RandomStreams(config.seed)
    session, client = deploy(config, streams)
    catalog = list(client.storage.files)  # the stored catalog, in trace order
    client.attach(client=None)
    return streams, session, client, catalog


def _serve_cell(seed: int = 21, cache_on: bool = False, zipf: float = 1.1,
                routing=None, prepare=None):
    """One tiny serving cell, wired exactly like the experiment's cells.

    ``routing`` names an array engine to charge 5 ms per routed hop through;
    ``prepare(session, engine)`` runs before the trace is scheduled (churn
    timers, instrumentation).
    """
    config = _tiny_config(seed=seed)
    streams, session, client, catalog = _deployed(config)
    cache = None
    if cache_on:
        cache = client.attach_cache(
            CacheManager(int(config.cache_mb * MB), hit_latency_s=0.0005))
    trace = generate_request_trace(
        len(catalog),
        ServingTraceConfig(
            request_rate=config.request_rate, duration_s=config.duration_s,
            zipf_s=zipf, client_count=config.client_count,
            write_mean_size=config.write_mean_size,
            write_std_size=config.write_std_size,
            write_min_size=config.write_min_size,
        ),
        rng=streams.fresh("requests"),
    )
    engine = ServeEngine(session.sim, client, session.transfers, trace, catalog,
                         session.gateways(config.client_count), cache=cache,
                         router=session.routing(routing) if routing else None,
                         hop_latency_s=0.005 if routing else 0.0)
    if prepare is not None:
        prepare(session, engine)
    engine.schedule()
    session.run()
    return session, client, engine, trace


# ------------------------------------------------------------------- the trace --
def test_trace_is_deterministic_per_seed():
    config = ServingTraceConfig(request_rate=40.0, duration_s=10.0)
    one = generate_request_trace(200, config, np.random.default_rng(5))
    two = generate_request_trace(200, config, np.random.default_rng(5))
    other = generate_request_trace(200, config, np.random.default_rng(6))
    assert one.fingerprint() == two.fingerprint()
    assert one.fingerprint() != other.fingerprint()


def test_trace_columns_are_consistent():
    config = ServingTraceConfig(request_rate=50.0, duration_s=8.0,
                                read_fraction=0.8, client_count=5)
    trace = generate_request_trace(64, config, np.random.default_rng(7))
    assert trace.count > 0
    assert np.all(np.diff(trace.arrivals) >= 0)
    assert float(trace.arrivals[-1]) < config.duration_s
    assert np.all(trace.write_sizes[trace.is_read] == 0)
    assert np.all(trace.file_index[~trace.is_read] == -1)
    reads = trace.file_index[trace.is_read]
    assert np.all((reads >= 0) & (reads < 64))
    assert np.all((trace.client_index >= 0) & (trace.client_index < 5))
    assert 0 < trace.is_read.sum() < trace.count


def test_zipf_probabilities_skew_toward_low_ranks():
    probs = zipf_probabilities(100, 1.1)
    assert np.isclose(probs.sum(), 1.0)
    assert probs[0] > probs[10] > probs[99]
    flat = zipf_probabilities(100, 0.0)
    assert np.allclose(flat, 1.0 / 100)


def test_load_summary_shapes():
    empty = load_summary({})
    assert empty["load_nodes"] == 0.0 and len(empty["load_histogram"]) == 10
    summary = load_summary({1: 10 * MB, 2: 30 * MB, 3: 20 * MB}, buckets=4)
    assert summary["load_nodes"] == 3.0
    assert summary["load_max_mb"] == 30.0
    assert np.isclose(summary["load_imbalance_x"], 30.0 / 20.0)
    assert sum(summary["load_histogram"]) == 3


# ------------------------------------------------------------------ the engine --
def test_engine_runs_are_identical_per_seed():
    _, client_a, engine_a, trace_a = _serve_cell(seed=21, cache_on=True)
    _, client_b, engine_b, trace_b = _serve_cell(seed=21, cache_on=True)
    assert trace_a.fingerprint() == trace_b.fingerprint()
    assert engine_a.hit_sequence == engine_b.hit_sequence
    assert engine_a.read_latencies == engine_b.read_latencies
    assert engine_a.write_latencies == engine_b.write_latencies
    assert engine_a.summarize() == engine_b.summarize()
    assert client_a.storage.read_load == client_b.storage.read_load


def test_experiment_rows_are_identical_per_seed():
    config = _tiny_config()
    rows_a = ServingExperiment(config).run().rows
    rows_b = ServingExperiment(config).run().rows
    for row_a, row_b in zip(rows_a, rows_b):
        keys = set(row_a) - {"seconds"}
        assert keys == set(row_b) - {"seconds"}
        assert {k: row_a[k] for k in keys} == {k: row_b[k] for k in keys}


def test_cache_off_engine_is_oracle_identical_to_direct_retrieval():
    """With no cache, the serve path IS direct per-gateway retrieve_file calls."""
    session, client, engine, trace = _serve_cell(seed=33, cache_on=False)

    # Replay the same trace by hand on an identically-built deployment:
    # plain retrieve_file/store_file scheduled at the arrival times, no
    # engine, no cache, no observers.
    config = _tiny_config(seed=33)
    streams, replay_session, replay_client, catalog = _deployed(config)
    gateways = replay_session.gateways(config.client_count)
    storage = replay_client.storage

    def issue(index: int) -> None:
        gateway = gateways[int(trace.client_index[index]) % len(gateways)]
        if trace.is_read[index]:
            storage.retrieve_file(catalog[int(trace.file_index[index])],
                                  client=gateway)
        else:
            storage.store_file(f"put-{index:08d}",
                               int(trace.write_sizes[index]), client=gateway)

    replay_trace = generate_request_trace(
        len(catalog),
        ServingTraceConfig(
            request_rate=config.request_rate, duration_s=config.duration_s,
            zipf_s=1.1, client_count=config.client_count,
            write_mean_size=config.write_mean_size,
            write_std_size=config.write_std_size,
            write_min_size=config.write_min_size,
        ),
        rng=streams.fresh("requests"),
    )
    assert replay_trace.fingerprint() == trace.fingerprint()
    for index in range(replay_trace.count):
        replay_session.sim.schedule(float(replay_trace.arrivals[index]),
                                    lambda i=index: issue(i))
    replay_session.run()

    assert storage.read_load == client.storage.read_load
    assert (replay_session.transfers.submitted_count
            == session.transfers.submitted_count)
    assert storage.degraded_reads == client.storage.degraded_reads
    assert storage.failed_reads == client.storage.failed_reads
    assert engine.hit_sequence == [0] * len(engine.hit_sequence)


def test_hop_latency_is_opt_in_and_charges_fabric_requests():
    """hop_latency_s=0 keeps the seed latency model; > 0 charges routed hops."""
    base = _tiny_config(cache_modes=(False,))
    charged = _tiny_config(cache_modes=(False,), hop_latency_s=0.005)
    row_base = ServingExperiment(base).run().rows[0]
    row_charged = ServingExperiment(charged).run().rows[0]
    # Off by default: no router is built and nothing is charged.
    assert row_base["routed_hops"] == 0.0
    # Opt-in: the same trace is additionally charged hops * hop_latency_s.
    assert row_charged["routed_hops"] > 0.0
    assert row_charged["completed"] == row_base["completed"]
    assert row_charged["read_p50_s"] >= row_base["read_p50_s"]
    assert row_charged["read_p99_s"] >= row_base["read_p99_s"]


def test_cache_hits_bypass_hop_charging():
    """Full cache hits never touch the fabric, so they charge no hops."""
    direct = _tiny_config(cache_modes=(False,), hop_latency_s=0.005)
    cached = _tiny_config(cache_modes=(True,), hop_latency_s=0.005,
                          cache_mb=64.0)
    row_direct = ServingExperiment(direct).run().rows[0]
    row_cached = ServingExperiment(cached).run().rows[0]
    assert row_cached["cache_hit_pct"] > 0.0
    assert row_cached["routed_hops"] < row_direct["routed_hops"]


def _churn_non_gateways(session, engine, events: int = 24) -> None:
    """Timers that fail, remove and join non-gateway nodes all through the trace."""
    network, dht = session.network, session.dht
    rng = np.random.default_rng(77)
    spare = [node for node in network.live_nodes()
             if node.node_id not in engine.gateways]
    victims = [spare[int(i)] for i in rng.permutation(len(spare))[:events]]
    times = np.sort(rng.uniform(0.0, engine.trace.duration_s, size=events))

    def fail(node):
        network.fail(node.node_id)
        dht.remove(node.node_id)

    def leave(node):
        dht.remove(node.node_id)
        network.leave(node.node_id)

    def join(node):
        newcomer = OverlayNode(node_id=random_node_id(rng), capacity=node.capacity,
                               coordinates=node.coordinates)
        network.join(newcomer)
        dht.add(newcomer)

    for step, (when, node) in enumerate(zip(times, victims)):
        action = (fail, leave, join)[step % 3]
        session.sim.schedule(float(when), lambda action=action, node=node: action(node))


@pytest.mark.parametrize("engine_name", ["pastry", "chord"])
def test_lookahead_hops_equal_per_request_routes_under_churn(engine_name):
    """The batched window charges exactly what one route() per request would."""
    def run(per_request: bool):
        hops = []

        def prepare(session, engine):
            _churn_non_gateways(session, engine)
            batched = engine._hops_for

            def scalar(index):
                key = key_for(engine._filename(index))
                return engine.router.route(key, engine._gateway(index)).hops

            def recording(index):
                hops.append((index, scalar(index) if per_request else batched(index)))
                return hops[-1][1]

            engine._hops_for = recording

        _, _, engine, _ = _serve_cell(routing=engine_name, prepare=prepare)
        return engine, hops

    batched, batched_hops = run(per_request=False)
    replay, replay_hops = run(per_request=True)
    assert len(batched_hops) > 50 and batched_hops == replay_hops
    assert batched.routed_hops == replay.routed_hops == sum(h for _, h in replay_hops)
    assert batched.read_latencies == replay.read_latencies
    assert batched.write_latencies == replay.write_latencies
    assert batched.hit_sequence == replay.hit_sequence
    assert (batched.failed_reads, batched.failed_writes) == (
        replay.failed_reads, replay.failed_writes)


def _count_route_many(engine) -> list:
    """Record the batch size of every ``route_many`` call (timing-free guard)."""
    sizes = []
    route_many = engine.router.route_many

    def counting(keys, starts, collect_paths=False):
        sizes.append(len(keys))
        return route_many(keys, starts, collect_paths=collect_paths)

    engine.router.route_many = counting
    return sizes


def test_lookahead_window_doubles_without_churn():
    """A churn-free trace of R requests makes at most ceil(log2 R) + 1 router calls."""
    box = {}
    _, _, engine, trace = _serve_cell(
        routing="pastry",
        prepare=lambda session, engine: box.update(sizes=_count_route_many(engine)))
    sizes = box["sizes"]
    assert engine.routed_hops > 0
    assert len(sizes) <= math.ceil(math.log2(trace.count)) + 1
    assert sizes[:-1] == [2 ** i for i in range(len(sizes) - 1)]  # the last is cut at the trace end


def test_lookahead_window_restarts_after_a_membership_change():
    box = {}

    def prepare(session, engine):
        box["sizes"] = _count_route_many(engine)
        victim = next(node for node in session.network.live_nodes()
                      if node.node_id not in engine.gateways)

        def fail():
            box["calls_before"] = len(box["sizes"])
            session.network.fail(victim.node_id)
            session.dht.remove(victim.node_id)

        session.sim.schedule(engine.trace.duration_s / 2, fail)

    _serve_cell(routing="pastry", prepare=prepare)
    sizes, cut = box["sizes"], box["calls_before"]
    assert cut >= 3 and sizes[:cut] == [2 ** i for i in range(cut)]
    assert sizes[cut:cut + 3] == [1, 2, 4]


@pytest.mark.parametrize("routing", [None, "pastry"], ids=["unrouted", "routed"])
def test_requests_of_a_failed_gateway_fail_instead_of_crashing_the_run(routing):
    """A gateway that failed since schedule() issues nothing; the run goes on."""
    _, _, baseline, trace = _serve_cell(routing=routing)
    assert baseline.failed_reads + baseline.failed_writes == 0

    def prepare(session, engine):
        dead = engine.gateways[0]
        session.sim.schedule(0.5, lambda: session.network.fail(dead))

    _, _, engine, _ = _serve_cell(routing=routing, prepare=prepare)
    lost = (trace.client_index % len(engine.gateways) == 0) & (trace.arrivals > 0.5)
    assert lost.sum() > 0
    assert engine.failed_reads == int((lost & trace.is_read).sum())
    assert engine.failed_writes == int((lost & ~trace.is_read).sum())
    completed = len(engine.read_latencies) + len(engine.write_latencies)
    assert completed + int(lost.sum()) == trace.count


@pytest.mark.parametrize("routing", ["pastry", "chord"])
def test_restarted_gateway_issues_its_requests_again(routing):
    """A rolling restart re-announces the gateway to the router, so only the
    requests that arrive while it is down fail -- not every one after it."""
    down_at, up_at = 0.5, 2.0

    def prepare(session, engine):
        gateway = engine.gateways[0]
        injector = session.fault_injector(dht=session.dht)
        session.sim.schedule(down_at, lambda: injector.rolling_restart(
            [gateway], interval=0.0, downtime=up_at - down_at))

    session, _, engine, trace = _serve_cell(routing=routing, prepare=prepare)
    assert engine.gateways[0] in session.routing(routing)
    ours = trace.client_index % len(engine.gateways) == 0
    lost = ours & (trace.arrivals > down_at) & (trace.arrivals < up_at)
    assert (ours & (trace.arrivals > up_at)).sum() > 0
    assert engine.failed_reads == int((lost & trace.is_read).sum())
    assert engine.failed_writes == int((lost & ~trace.is_read).sum())
    completed = len(engine.read_latencies) + len(engine.write_latencies)
    assert completed + int(lost.sum()) == trace.count


def test_engine_requires_gateways():
    config = _tiny_config()
    streams = RandomStreams(config.seed)
    session = ClusterSession(40, streams=streams, capacities=[1 << 30] * 40,
                             bandwidth_mb_s=8.0)
    client = session.client()
    trace = generate_request_trace(4, ServingTraceConfig(duration_s=1.0),
                                   np.random.default_rng(1))
    try:
        ServeEngine(session.sim, client, session.transfers, trace,
                    ["a"], gateways=[])
    except ValueError as error:
        assert "gateway" in str(error)
    else:
        raise AssertionError("empty gateway list must be rejected")
