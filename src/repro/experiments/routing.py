"""Routing-fabric panels: hops vs N, Chord vs Pastry under churn.

The DHT oracle view resolves keys fast but knows no hop counts; the array
engines (:mod:`repro.overlay.engine_pastry`,
:mod:`repro.overlay.engine_chord`) route hop by hop at the paper's scale,
and this experiment is their showcase:

* **hops vs N** -- batched ``route_many`` lookups over fresh overlays at
  increasing population sizes, per engine: mean/median/p95 hop counts
  (~log16 N for Pastry, ~(log2 N)/2 for Chord), build time, routes/s and
  the engine's column memory footprint;
* **churn head-to-head** -- the same overlay churned by interleaved
  joins/leaves/failures with both engines attached; each engine's tables
  are patched incrementally, and the panel reports hop distributions
  before and after (the SNIPPETS lookup-harness ``summarize()`` shape).

The Pastry engine's hop-for-hop identity with the seed's per-node router is
pinned path by path in ``tests/test_routing_engine.py``; the last measured
seed-vs-array build and route ratios are on record in ``BENCH_routing.json``.

Run it::

    python -m repro.cli routing            # paper scale (10 000 nodes)
    python -m repro.cli routing --smoke    # CI smoke (seconds)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.base import ExperimentConfig
from repro.experiments.results import TableResult
from repro.overlay.ids import random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.sim.rng import RandomStreams
from repro.sim.stats import summarize


@dataclass(frozen=True)
class RoutingConfig(ExperimentConfig):
    """Defaults for the routing panels (paper scale: 10 000 nodes)."""

    node_count: int = 10_000
    seed: int = 17
    #: Population sizes of the hops-vs-N panel (the largest is the flagship).
    population_sweep: tuple = (1_000, 3_000, 10_000)
    #: Batched lookups per (size, engine) cell.
    lookups: int = 5_000
    #: Engines of the head-to-head.
    engines: tuple = ("pastry", "chord")
    #: Churn panel: overlay size, interleaved events, post-churn lookups.
    churn_nodes: int = 2_000
    churn_events: int = 200
    churn_lookups: int = 2_000
    leaf_set_half_size: int = 8


#: The paper-scale flagship sweep.
PAPER_ROUTING = RoutingConfig()

#: Tier-1 smoke scale: every panel in seconds on one core.
SMOKE_ROUTING = RoutingConfig(
    node_count=400,
    population_sweep=(200, 400),
    lookups=400,
    churn_nodes=250,
    churn_events=60,
    churn_lookups=300,
)


@dataclass
class RoutingResult:
    """The two panels plus the headline flagship numbers."""

    config: RoutingConfig
    panel_rows: List[Dict[str, float]] = field(default_factory=list)
    churn_rows: List[Dict[str, float]] = field(default_factory=list)
    summary_values: Dict[str, float] = field(default_factory=dict)

    def panel_table(self) -> TableResult:
        """Hops vs N: per-engine hop distribution, build time, routes/s."""
        table = TableResult(
            title="Routing fabric — batched lookups vs population size",
            columns=["engine", "nodes", "lookups", "avg_hops", "median_hops",
                     "p95_hops", "max_hops", "build_s", "routes_per_s",
                     "table_mb", "bytes_per_node"],
        )
        for row in self.panel_rows:
            table.add_row(**{column: row[column] for column in table.columns})
        return table

    def churn_table(self) -> TableResult:
        """Chord vs Pastry hop distributions before and after churn."""
        table = TableResult(
            title="Routing under churn — incremental table repair head-to-head",
            columns=["engine", "phase", "nodes", "lookups", "avg_hops",
                     "median_hops", "p95_hops", "max_hops"],
        )
        for row in self.churn_rows:
            table.add_row(**{column: row[column] for column in table.columns})
        return table

    def summary(self) -> Dict[str, float]:
        """The headline numbers the benchmark records and asserts on."""
        return dict(self.summary_values)


class RoutingExperiment:
    """Runs the routing panels."""

    def __init__(self, config: Optional[RoutingConfig] = None) -> None:
        self.config = config or RoutingConfig()

    # ------------------------------------------------------------- workloads --
    def _lookup_workload(self, network: OverlayNetwork, count: int, rng):
        """``count`` random (key, start) pairs over the live population."""
        live = network.live_ids()
        keys = [random_node_id(rng) for _ in range(count)]
        starts = [live[int(index)]
                  for index in rng.integers(len(live), size=count)]
        return keys, starts

    def _build_network(self, nodes: int, rng) -> OverlayNetwork:
        return OverlayNetwork.build(
            nodes, rng, leaf_set_half_size=self.config.leaf_set_half_size)

    # ---------------------------------------------------------------- panels --
    def run_panel(self) -> List[Dict[str, float]]:
        """Hops vs N, per engine, on fresh overlays."""
        config = self.config
        rows: List[Dict[str, float]] = []
        for nodes in config.population_sweep:
            streams = RandomStreams(config.seed)
            network = self._build_network(nodes, streams.fresh("overlay", nodes))
            keys, starts = self._lookup_workload(
                network, config.lookups, streams.fresh("lookups", nodes))
            for engine in config.engines:
                start_time = time.perf_counter()
                router = network.attach_router(engine, dispatch=False)
                build_s = time.perf_counter() - start_time
                start_time = time.perf_counter()
                result = router.route_many(keys, starts)
                route_s = time.perf_counter() - start_time
                stats = summarize(result.hops)
                footprint = router.memory_footprint()
                rows.append({
                    "engine": engine,
                    "nodes": float(nodes),
                    "lookups": stats["n"],
                    "avg_hops": stats["avg"],
                    "median_hops": stats["median"],
                    "p95_hops": stats["p95"],
                    "max_hops": stats["max"],
                    "build_s": build_s,
                    "routes_per_s": stats["n"] / route_s if route_s > 0 else 0.0,
                    "table_mb": footprint["total_bytes"] / 1e6,
                    "bytes_per_node": float(footprint["bytes_per_node"]),
                })
        return rows

    def run_churn(self) -> List[Dict[str, float]]:
        """Chord vs Pastry on one overlay churned under both engines."""
        config = self.config
        streams = RandomStreams(config.seed)
        network = self._build_network(
            config.churn_nodes, streams.fresh("churn-overlay"))
        routers = {engine: network.attach_router(engine, dispatch=False)
                   for engine in config.engines}
        rng = streams.fresh("churn-events")
        rows: List[Dict[str, float]] = []

        def measure(phase: str) -> None:
            keys, starts = self._lookup_workload(
                network, config.churn_lookups, streams.fresh("churn-lookups", phase))
            for engine, router in routers.items():
                stats = summarize(router.route_many(keys, starts).hops)
                rows.append({
                    "engine": engine,
                    "phase": phase,
                    "nodes": float(len(network.live_ids())),
                    "lookups": stats["n"],
                    "avg_hops": stats["avg"],
                    "median_hops": stats["median"],
                    "p95_hops": stats["p95"],
                    "max_hops": stats["max"],
                })

        measure("fresh")
        floor = max(16, config.churn_nodes // 2)
        for event in range(config.churn_events):
            live = network.live_ids()
            kind = int(rng.integers(3))
            if kind == 0 or len(live) <= floor:
                node = OverlayNode(
                    node_id=random_node_id(rng),
                    coordinates=(float(rng.uniform(0.0, 1000.0)),
                                 float(rng.uniform(0.0, 1000.0))),
                )
                network.join(node)
            elif kind == 1:
                network.leave(live[int(rng.integers(len(live)))])
            else:
                network.fail(live[int(rng.integers(len(live)))])
        measure("churned")
        return rows

    def run(self) -> RoutingResult:
        """Run every panel and assemble the headline summary."""
        result = RoutingResult(config=self.config)
        result.panel_rows = self.run_panel()
        result.churn_rows = self.run_churn()

        summary: Dict[str, float] = {}
        flagship = max(self.config.population_sweep)
        for row in result.panel_rows:
            if row["nodes"] == flagship:
                prefix = row["engine"]
                summary[f"{prefix}_avg_hops"] = row["avg_hops"]
                summary[f"{prefix}_routes_per_s"] = row["routes_per_s"]
                summary[f"{prefix}_build_seconds"] = row["build_s"]
                summary[f"{prefix}_bytes_per_node"] = row["bytes_per_node"]
        result.summary_values = summary
        return result
