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
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List

from repro.experiments.base import ExperimentConfig, scaled_count
from repro.experiments.results import TableResult, render_report, summary_line
from repro.overlay.ids import COORDINATE_SPAN, random_node_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.validation import AT_LEAST_1
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

    RANGES: ClassVar[Dict[str, tuple]] = {
        **ExperimentConfig.RANGES, "population_sweep": AT_LEAST_1, "lookups": AT_LEAST_1,
        "churn_nodes": AT_LEAST_1, "churn_lookups": AT_LEAST_1, "leaf_set_half_size": AT_LEAST_1}

    def scaled(self, factor: float) -> "RoutingConfig":
        """Sweep populations and lookup counts multiplied by ``factor``."""
        return replace(
            self,
            population_sweep=tuple(scaled_count(nodes, factor, 16)
                                   for nodes in self.population_sweep),
            churn_nodes=scaled_count(self.churn_nodes, factor, 32),
            lookups=scaled_count(self.lookups, factor, 50),
            churn_lookups=scaled_count(self.churn_lookups, factor, 50),
        )


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

    def report(self) -> str:
        """Hops vs N per engine, Chord vs Pastry under churn, the headline numbers."""
        return render_report(
            TableResult.from_rows(
                "Routing fabric — batched lookups vs population size",
                ["engine", "nodes", "lookups", "avg_hops", "median_hops",
                 "p95_hops", "max_hops", "build_s", "routes_per_s",
                 "table_mb", "bytes_per_node"],
                self.panel_rows),
            TableResult.from_rows(
                "Routing under churn — incremental table repair head-to-head",
                ["engine", "phase", "nodes", "lookups", "avg_hops",
                 "median_hops", "p95_hops", "max_hops"],
                self.churn_rows),
        ) + "\n" + summary_line("routing", self.summary_values)

    def summary(self) -> Dict[str, float]:
        """The headline numbers the benchmark records and asserts on."""
        return dict(self.summary_values)


class RoutingExperiment:
    """Runs the routing panels."""

    def __init__(self, config: RoutingConfig) -> None:
        self.config = config

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
                router = network.attach_router(engine)
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
        routers = {engine: network.attach_router(engine)
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
                    coordinates=(float(rng.uniform(0.0, COORDINATE_SPAN)),
                                 float(rng.uniform(0.0, COORDINATE_SPAN))),
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
