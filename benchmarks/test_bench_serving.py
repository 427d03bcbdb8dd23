"""Serve-path panels: open-loop Zipf traffic, cache-on vs cache-off.

Two measurements feed ``BENCH_serving.json``:

* the serve-path contrast panel at CI scale -- the full (skew x cache)
  sweep on identical deployments and request traces.  The acceptance
  checks live here: under the hot-spotted Zipf s=1.1 trace, the cached
  serve path sustains at least the direct path's throughput with a
  measurably better p99 read latency and per-holder load balance, the
  gateway caches actually hit, and the popularity trigger promotes the
  head of the catalog; under the mild s=0.8 skew the cache still helps
  but the contrast is smaller (the hot set is wider than the budget);
* the paper-scale flagship: the same four cells at 10 000 nodes behind
  the 4:1 core, well under five minutes on one core.

The recorded ``speedups`` entries are the flagship's p99 and
load-imbalance improvements (direct / cached at s=1.1), its sustained
cached throughput, and the panel wall times -- the cross-PR trajectory
of the serving subsystem.
"""

from __future__ import annotations

import time

from repro.experiments.serving import (
    PAPER_SERVING,
    SMOKE_SERVING,
    ServingConfig,
    ServingExperiment,
)

#: CI scale: the tier-1 smoke configuration, which already exhibits the
#: full qualitative contrast (hot-spotted direct reads saturate the head
#: of the catalog's primaries; caches absorb the repeats).
SMALL_SERVING = SMOKE_SERVING

#: The 10k flagship runs the full sweep: both skews, cache on and off.
FLAGSHIP_SERVING = PAPER_SERVING


def _record_rows(results: dict, prefix: str, config: ServingConfig,
                 outcome, seconds: float) -> None:
    for row in outcome.rows:
        # ``**row`` first: its bare "scenario" must not clobber the prefixed
        # one (both row groups share scenario names in the trajectory).
        results["results"].append({
            **row, "scenario": f"{prefix}-{row['scenario']}",
            "node_count": config.node_count, "seconds": seconds,
        })


def _assert_serve_contrast(outcome) -> None:
    """The acceptance oracles shared by the CI panel and the flagship."""
    direct_hot = outcome.cell(1.1, cache_on=False)
    cached_hot = outcome.cell(1.1, cache_on=True)
    direct_mild = outcome.cell(0.8, cache_on=False)
    cached_mild = outcome.cell(0.8, cache_on=True)

    # Every cell completed its whole trace: open-loop, nothing dropped.
    for row in (direct_hot, cached_hot, direct_mild, cached_mild):
        assert row["completed"] == row["requests"]
        assert row["failed_reads"] == 0.0 and row["failed_writes"] == 0.0
    # Direct cells have no cache and no promotions by construction.
    assert direct_hot["cache_hit_pct"] == 0.0
    assert direct_hot["promotions"] == 0.0

    # The flagship claim: under the hot-spotted skew the cached path
    # sustains at least the direct throughput with a measurably better
    # p99 read tail and per-holder load balance...
    assert cached_hot["sustained_req_s"] >= direct_hot["sustained_req_s"]
    assert cached_hot["read_p99_s"] < 0.8 * direct_hot["read_p99_s"]
    assert cached_hot["load_imbalance_x"] < direct_hot["load_imbalance_x"]
    # ...because the gateway caches actually hit and the popularity
    # trigger pushed extra replicas of the head of the catalog.
    assert cached_hot["cache_hit_pct"] > 10.0
    assert cached_hot["promotions"] > 0.0
    # Under the mild skew the hot set is wider than the cache budget, so
    # the p99 contrast is real but smaller than the hot-spotted one.
    assert cached_mild["read_p99_s"] <= direct_mild["read_p99_s"]
    hot_gain = direct_hot["read_p99_s"] / cached_hot["read_p99_s"]
    mild_gain = direct_mild["read_p99_s"] / max(cached_mild["read_p99_s"], 1e-9)
    assert hot_gain > mild_gain


def test_bench_serving_contrast_panels(serving_bench_results):
    """The serve-path oracles at CI scale, recorded into the trajectory."""
    start = time.perf_counter()
    outcome = ServingExperiment(SMALL_SERVING).run()
    seconds = time.perf_counter() - start
    _record_rows(serving_bench_results, "serving", SMALL_SERVING, outcome,
                 seconds)
    _assert_serve_contrast(outcome)

    cached_hot = outcome.cell(1.1, cache_on=True)
    direct_hot = outcome.cell(1.1, cache_on=False)
    staged = serving_bench_results.setdefault("_staged", {})
    staged["serving_small_seconds"] = seconds
    print(f"\nserve panels @ {SMALL_SERVING.node_count} nodes: {seconds:.2f}s; "
          f"s=1.1 p99 {direct_hot['read_p99_s']:.2f}s direct vs "
          f"{cached_hot['read_p99_s']:.2f}s cached, "
          f"hit {cached_hot['cache_hit_pct']:.1f}%, "
          f"imbalance {direct_hot['load_imbalance_x']:.1f}x vs "
          f"{cached_hot['load_imbalance_x']:.1f}x")


def test_bench_serving_paper_scale_flagship(serving_bench_results):
    """The full sweep at 10 000 nodes behind the 4:1 core.

    The headline serve-path claim at paper scale: under Zipf s=1.1 the
    per-gateway caches plus hot-file replication sustain the offered
    load with a measurably better p99 read latency and per-holder load
    balance than the direct path, which the oracle tests pin as exactly
    plain ``retrieve_file`` traffic.
    """
    start = time.perf_counter()
    outcome = ServingExperiment(FLAGSHIP_SERVING).run()
    seconds = time.perf_counter() - start
    _record_rows(serving_bench_results, "serving-paper-scale",
                 FLAGSHIP_SERVING, outcome, seconds)
    assert seconds < 300.0, "the 10k-node serve cells must stay under ~5 minutes"
    _assert_serve_contrast(outcome)

    direct_hot = outcome.cell(1.1, cache_on=False)
    cached_hot = outcome.cell(1.1, cache_on=True)
    staged = serving_bench_results.setdefault("_staged", {})
    staged["serving_flagship_seconds"] = seconds
    staged["serving_flagship_sustained_req_per_s"] = cached_hot["sustained_req_s"]
    staged["serving_flagship_p99_improvement"] = (
        direct_hot["read_p99_s"] / cached_hot["read_p99_s"])
    staged["serving_flagship_balance_improvement"] = (
        direct_hot["load_imbalance_x"] / cached_hot["load_imbalance_x"])
    print(f"\nserve @ 10 000 nodes behind a 4:1 core: {seconds:.1f}s wall; "
          f"s=1.1 sustains {cached_hot['sustained_req_s']:.1f} req/s cached "
          f"(p99 {cached_hot['read_p99_s']:.2f}s vs "
          f"{direct_hot['read_p99_s']:.2f}s direct, "
          f"{staged['serving_flagship_p99_improvement']:.1f}x better; "
          f"hit {cached_hot['cache_hit_pct']:.1f}%, "
          f"{cached_hot['promotions']:.0f} promotions)")


def test_bench_serving_speedup_summary(serving_bench_results):
    """Promote the staged ratios into ``speedups`` -- the write-guard field.

    Only this test fills the field the conftest session hook requires, so a
    filtered run can never overwrite BENCH_serving.json with a partial record.
    """
    staged = serving_bench_results.pop("_staged", {})
    assert {"serving_small_seconds", "serving_flagship_seconds",
            "serving_flagship_sustained_req_per_s",
            "serving_flagship_p99_improvement"} <= set(staged)
    serving_bench_results["speedups"] = staged
