"""Routing-fabric panels: batched Pastry/Chord lookups over array columns.

Two measurements feed ``BENCH_routing.json``:

* the CI-scale panel -- the full hops-vs-N sweep and the Chord-vs-Pastry
  churn head-to-head.  The acceptance checks live here: the engine
  columns keep their declared dtypes (int32 slots, uint8 digits),
  Pastry's prefix routing beats Chord's ring walk on hops, and routing
  survives churn with bounded hop inflation (hop-for-hop identity with
  the seed's per-node router is tier-1's job:
  ``tests/test_routing_engine.py``);
* the paper-scale flagship: batched lookups at 10 000 nodes, with the
  memory-accounting oracle -- the routing columns extrapolate to under
  the 256 MB budget at 100 000 nodes.

The recorded ``speedups`` entries are the flagship's routes/s and build
seconds per engine and the panel wall times -- the cross-PR trajectory of
the routing fabric.  (Records written before PR 18 also held the
seed-vs-array build and route ratios; README.md quotes the last ones.)
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.routing import (
    PAPER_ROUTING,
    SMOKE_ROUTING,
    RoutingExperiment,
)
from repro.overlay.engine_chord import ChordArrayRouter
from repro.overlay.engine_pastry import PastryArrayRouter
from repro.overlay.network import OverlayNetwork
from repro.sim.rng import RandomStreams

#: Extrapolated per-engine column budget at 100 000 nodes.
MEMORY_BUDGET_100K_BYTES = 256 * 1024 * 1024

#: Headroom factor for the extrapolation (Pastry gains ~one table row per
#: 16x population growth, so bytes/node at 100k exceeds bytes/node at 10k).
EXTRAPOLATION_HEADROOM = 1.5


def _record_rows(results: dict, prefix: str, outcome, seconds: float) -> None:
    for row in outcome.panel_rows:
        results["results"].append(
            {**row, "engine": f"{prefix}-{row['engine']}", "seconds": seconds})


def _assert_routing_contrast(outcome) -> None:
    """The acceptance oracles shared by the CI panel and the flagship."""
    # Pastry resolves in ~log16 N prefix hops; Chord walks ~(log2 N)/2
    # ring steps -- the head-to-head must show the expected ordering.
    by_engine = {}
    for row in outcome.panel_rows:
        by_engine.setdefault(row["engine"], []).append(row)
    if "pastry" in by_engine and "chord" in by_engine:
        for pastry_row, chord_row in zip(by_engine["pastry"], by_engine["chord"]):
            assert pastry_row["avg_hops"] < chord_row["avg_hops"]
    # Routing under churn stays functional with bounded hop inflation:
    # incremental table repair, not a rebuild, keeps lookups converging.
    fresh = {row["engine"]: row for row in outcome.churn_rows
             if row["phase"] == "fresh"}
    churned = {row["engine"]: row for row in outcome.churn_rows
               if row["phase"] == "churned"}
    for engine, row in churned.items():
        assert row["avg_hops"] <= fresh[engine]["avg_hops"] + 1.0


def _assert_column_dtypes(network) -> None:
    """The dtype audit: int32 slot columns, uint8 digit views."""
    pastry = network.attach_router("pastry")
    chord = network.attach_router("chord")
    assert isinstance(pastry, PastryArrayRouter)
    assert isinstance(chord, ChordArrayRouter)
    assert pastry._table.dtype == np.int32
    assert pastry._digits.dtype == np.uint8
    assert chord._fingers.dtype == np.int32
    assert chord._succ.dtype == np.int32


def test_bench_routing_contrast_panels(routing_bench_results):
    """The routing oracles at CI scale, recorded into the trajectory."""
    start = time.perf_counter()
    outcome = RoutingExperiment(SMOKE_ROUTING).run()
    seconds = time.perf_counter() - start
    _record_rows(routing_bench_results, "routing", outcome, seconds)
    _assert_routing_contrast(outcome)

    network = OverlayNetwork.build(
        SMOKE_ROUTING.node_count, RandomStreams(SMOKE_ROUTING.seed).fresh("audit"))
    _assert_column_dtypes(network)

    staged = routing_bench_results.setdefault("_staged", {})
    staged["routing_small_seconds"] = seconds
    print(f"\nrouting panels @ {max(SMOKE_ROUTING.population_sweep)} nodes: {seconds:.2f}s")


def test_bench_routing_10000_node_flagship(routing_bench_results):
    """Batched lookups at 10 000 nodes: the paper-scale flagship.

    The headline routing claim: the array-backed tables route thousands
    of lookups per second at 10 000 nodes in ~log16 N hops, Chord rides
    the same harness, and the column footprint extrapolates to under the
    256 MB budget at 100 000 nodes.
    """
    start = time.perf_counter()
    outcome = RoutingExperiment(PAPER_ROUTING).run()
    seconds = time.perf_counter() - start
    _record_rows(routing_bench_results, "routing-paper-scale", outcome, seconds)
    assert seconds < 300.0, "the 10k-node routing panels must stay under ~5 minutes"
    _assert_routing_contrast(outcome)

    summary = outcome.summary()
    flagship = float(max(PAPER_ROUTING.population_sweep))
    for engine in PAPER_ROUTING.engines:
        # ~log16 N for Pastry, ~(log2 N)/2 for Chord, both well under 10.
        assert summary[f"{engine}_avg_hops"] < 10.0
        assert summary[f"{engine}_routes_per_s"] > 1_000.0
        extrapolated = (summary[f"{engine}_bytes_per_node"]
                        * 100_000 * EXTRAPOLATION_HEADROOM)
        assert extrapolated < MEMORY_BUDGET_100K_BYTES, (
            f"{engine} columns extrapolate to {extrapolated / 1e6:.0f} MB "
            f"at 100k nodes")

    staged = routing_bench_results.setdefault("_staged", {})
    staged["routing_flagship_seconds"] = seconds
    for engine in PAPER_ROUTING.engines:
        staged[f"routing_{engine}_routes_per_s"] = summary[f"{engine}_routes_per_s"]
        staged[f"routing_{engine}_build_seconds"] = summary[f"{engine}_build_seconds"]
    print(f"\nrouting @ {flagship:.0f} nodes: {seconds:.1f}s wall; "
          + "; ".join(
              f"{engine} {summary[f'{engine}_routes_per_s']:,.0f} routes/s "
              f"(avg {summary[f'{engine}_avg_hops']:.2f} hops, "
              f"build {summary[f'{engine}_build_seconds']:.1f}s, "
              f"{summary[f'{engine}_bytes_per_node']:.0f} B/node)"
              for engine in PAPER_ROUTING.engines))


def test_bench_routing_speedup_summary(routing_bench_results):
    """Promote the staged figures into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run can never overwrite BENCH_routing.json with a partial record.
    """
    staged = routing_bench_results.pop("_staged", {})
    assert {"routing_small_seconds", "routing_flagship_seconds"} <= set(staged)
    routing_bench_results["speedups"] = staged
