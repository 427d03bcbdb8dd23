"""One benchmark run: cycles of (set-up, measured phase), checks, metrics.

A run is one process and one workload.  It repeats whole cycles -- fresh
set-up, then the measured phase -- with the same seed until the ``--seconds``
budget is spent (at most ``MAX_CYCLES``), so ``setup_s`` and ``wall_s`` are
both medians over identical work.  Host metrics use the host clock
(``time.perf_counter``); everything under ``sim`` is on the simulated clock
and must repeat exactly.
"""

from __future__ import annotations

import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from perfbench import THREAD_ENV
from perfbench.tracing import GLUE, LAYERS, Tracer, format_layer_table
from perfbench.workloads import DEFAULT_SEED, REGISTRY, Outcome, WorkloadEntry

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: More cycles than this add set-up time without steadying the medians.
MAX_CYCLES = 8
FLOAT_TOLERANCE = 1e-9

#: Host seconds are reported at *reference speed*: every phase is bracketed by
#: a fixed pure-Python kernel, and its measured seconds are scaled by
#: ``REFERENCE_KERNEL_S / kernel seconds now``.  The shared box this was built
#: on switches between CPU speed states ~1.3x apart for tens of seconds at a
#: time (see README "Noise"); the kernel tracks that state, the repo's code
#: cannot change it, and the constant is the kernel's time on that box when
#: it is quiet -- so the numbers read as quiet-box seconds.
REFERENCE_KERNEL_S = 0.0041
KERNEL_REPEATS = 7

#: End-to-end host metrics every workload emits: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: Simulated results (deterministic per seed): name -> unit.  ``failed_op_pct``
#: is defined on every workload, the others on the workloads that produce them.
SIM_METRICS = {
    "failed_op_pct": "%", "sim_p50_s": "s", "sim_p99_s": "s",
    "sim_goodput_mb_s": "MB/s", "stored_per_user_byte": "ratio",
}

#: Per-layer counters beyond ``<layer>.calls/total_s/self_s``: name -> unit.
LAYER_EXTRAS = {
    "overlay.network.build_s": "s", "overlay.network.churn_calls": "count",
    "overlay.dht.lookups": "count", "overlay.dht.lookups_per_s": "1/s",
    "overlay.dht.patch_calls": "count",
    "overlay.engine.build_s": "s", "overlay.engine.routes": "count",
    "overlay.engine.hops_mean": "count", "overlay.engine.table_mb": "MB",
    "core.capacity.probes": "count",
    "core.storage.store_calls": "count", "core.storage.retrieve_calls": "count",
    "core.storage.store_lookups_mean": "count",
    "core.storage.degraded_reads": "count", "core.storage.failed_reads": "count",
    "baselines.past.store_calls": "count", "baselines.past.failed_stores": "count",
    "baselines.cfs.store_calls": "count", "baselines.cfs.failed_stores": "count",
    "core.block_ledger.register_calls": "count", "core.block_ledger.peak_rows": "count",
    "core.block_ledger.compactions": "count", "core.block_ledger.rows_reclaimed": "count",
    "core.block_ledger.compact_s": "s", "core.block_ledger.column_mb": "MB",
    "core.cache.hits": "count", "core.cache.misses": "count", "core.cache.hit_pct": "%",
    "core.cache.evictions": "count", "core.cache.replica_read_pct": "%",
    "multicast.replication.promotions": "count", "multicast.replication.push_mb": "MB",
    "core.transfer.submitted": "count", "core.transfer.completed": "count",
    "core.transfer.failed": "count", "core.transfer.bytes_gb": "GB",
    "core.transfer.callback_calls": "count", "core.transfer.callback_self_s": "s",
    "core.transfer.active_peak": "count", "core.transfer.pacer_queue_peak": "count",
    "sim.engine.events": "count", "sim.engine.events_per_s": "1/s",
    "sim.engine.kernel_self_s": "s",
    "workloads.serving.issue_calls": "count", "workloads.serving.issue_self_s": "s",
    "workloads.serving.trace_gen_s": "s",
    "core.recovery.failures_handled": "count", "core.recovery.regenerated_gb": "GB",
    "core.recovery.rereplicated_rows": "count", "core.recovery.lost_gb": "GB",
    "core.recovery.retries": "count",
    "sim.faults.rows_killed": "count", "sim.faults.nodes_down": "count",
    "erasure.encode_calls": "count", "erasure.decode_calls": "count",
    "erasure.encode_mb_s": "MB/s", "erasure.decode_mb_s": "MB/s",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run emits: name -> unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units[f"{GLUE}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    units["trace_overhead_pct"] = "%"
    units.update({f"result.{name}": unit for name, unit in SIM_METRICS.items()})
    return units


# ------------------------------------------------------------------- cycles --
def _kernel() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def kernel_seconds() -> float:
    """Median host seconds of the reference kernel, right now."""
    timings = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def run_cycle(entry: WorkloadEntry, seed: int, size: Dict[str, float],
              tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """One fresh set-up plus one measured phase.

    ``setup_s``/``wall_s`` are host seconds at reference speed (see
    ``REFERENCE_KERNEL_S``); ``raw_setup_s``/``raw_wall_s`` are as clocked.
    """
    gc.collect()
    workload = entry.generator(seed, **size)
    kernel_before = kernel_seconds()
    if tracer is not None:
        workload.mark_op = tracer.set_op
        tracer.begin_phase("setup")
    start = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()
    kernel_between = kernel_seconds()
    if tracer is not None and not tracer.measure_at_run:
        tracer.end_phase()
        tracer.begin_phase("measure")
    measure_start = time.perf_counter()
    reported = workload.measure()
    end = time.perf_counter()
    if tracer is not None:
        wall = tracer.end_phase()
    else:
        wall = end - measure_start if reported is None else reported
    kernel_after = kernel_seconds()
    # What ``measure()`` spent before its measured part is set-up (ChurnSoak).
    setup = (setup_end - start) + (end - measure_start) - wall
    setup_speed = 2.0 * REFERENCE_KERNEL_S / (kernel_before + kernel_between)
    wall_speed = 2.0 * REFERENCE_KERNEL_S / (kernel_between + kernel_after)
    cycle = {"setup_s": setup * setup_speed, "wall_s": wall * wall_speed,
             "raw_setup_s": setup, "raw_wall_s": wall, "host_speed": wall_speed,
             "outcome": workload.outcome()}
    if tracer is not None:
        cycle["counters"] = workload.counters()
    return cycle


def summarize(values: List[float]) -> Dict[str, float]:
    """n / median / quartiles / min / max of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {"n": len(ordered), "median": median, "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1]}


def _sim_metrics(outcome: Outcome) -> Dict[str, float]:
    sim = {"failed_op_pct": 100.0 * outcome.failed_ops / outcome.ops}
    sim.update(outcome.sim)
    return sim


def _fingerprint_diff(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    """Names whose values differ: exact for ints, 1e-9 relative for floats."""
    differing = sorted(set(a) ^ set(b))
    for name in sorted(set(a) & set(b)):
        x, y = a[name], b[name]
        if isinstance(x, float) or isinstance(y, float):
            if abs(x - y) > FLOAT_TOLERANCE * max(abs(x), abs(y)):
                differing.append(name)
        elif x != y:
            differing.append(name)
    return differing


def _plain(values: Dict[str, object]) -> Dict[str, float]:
    """Numpy scalars to plain ints/floats (JSON, exact comparisons)."""
    return {name: (int(value) if isinstance(value, (int, numpy.integer, bool))
                   else float(value))
            for name, value in values.items()}


# ---------------------------------------------------------------- per layer --
def scaled_layer_stats(tracer: Tracer, speed: float) -> Dict[str, Dict[str, float]]:
    """The measured phase's layer table in reference-speed seconds."""
    return {layer: {"calls": row["calls"], "total_s": row["total_s"] * speed,
                    "self_s": row["self_s"] * speed}
            for layer, row in tracer.layer_stats("measure").items()}


def layer_metrics(tracer: Tracer, cycle: Dict[str, object], untraced_wall_s: float,
                  sim: Dict[str, float]) -> Dict[str, float]:
    """Every name of :func:`per_layer_units` for one traced cycle.

    Span times are scaled by the cycle's host speed, like its ``wall_s``.
    """
    wall_s, speed, counters = cycle["wall_s"], cycle["host_speed"], cycle["counters"]
    out = {name: 0.0 for name in per_layer_units()}
    for layer, row in scaled_layer_stats(tracer, speed).items():
        if layer == GLUE:
            out[f"{GLUE}.self_s"] = row["self_s"]
            continue
        for key, value in row.items():
            out[f"{layer}.{key}"] = value
    out.update({name: float(value) for name, value in counters.items() if name in out})

    def calls(*names: str) -> float:
        return sum(tracer.name_stat(name)[0] for name in names)

    def seconds(name: str, phase: str = "measure", own: bool = False) -> float:
        return tracer.name_stat(name, phase)[2 if own else 1] * speed

    out["overlay.network.build_s"] = seconds("OverlayNetwork.build", "setup")
    out["overlay.network.churn_calls"] = calls(
        "OverlayNetwork.join", "OverlayNetwork.leave", "OverlayNetwork.fail")
    out["overlay.dht.lookups_per_s"] = out["overlay.dht.lookups"] / wall_s
    out["overlay.dht.patch_calls"] = calls("DHTView.add", "DHTView.remove")
    out["overlay.engine.build_s"] = seconds("PastryArrayRouter.__init__", "setup")
    out["overlay.engine.routes"] = routes = calls("ArrayRouterBase.route")
    out["overlay.engine.hops_mean"] = counters.get("overlay.engine.hops", 0.0) / max(1.0, routes)
    out["core.storage.retrieve_calls"] = calls("StorageSystem.retrieve_file")
    out["core.block_ledger.register_calls"] = calls(
        "BlockLedger.register_file", "BlockLedger.register_whole_file",
        "BlockLedger.queue_whole_file", "BlockLedger.register_striped_file")
    out["core.block_ledger.compact_s"] = seconds("BlockLedger.compact")
    out["multicast.replication.push_mb"] = (
        tracer.sums.get("multicast.replication.push_bytes", 0.0) / (1 << 20))
    for layer, prefix in (("core.transfer", "callback"), ("workloads.serving", "issue")):
        count, own = tracer.callback_stat(layer)
        out[f"{layer}.{prefix}_calls"], out[f"{layer}.{prefix}_self_s"] = count, own * speed
    out["core.transfer.active_peak"] = tracer.peaks.get("core.transfer.active_peak", 0.0)
    out["sim.engine.events_per_s"] = out["sim.engine.events"] / wall_s
    out["sim.engine.kernel_self_s"] = seconds("Simulator.run", own=True)
    out["workloads.serving.trace_gen_s"] = seconds("generate_request_trace", "setup")
    for kind in ("encode", "decode"):
        total = seconds(f"ChunkCodec.{kind}")
        out[f"erasure.{kind}_calls"] = calls(f"ChunkCodec.{kind}")
        moved = tracer.sums.get(f"erasure.{kind}_bytes", 0.0) / (1 << 20)
        out[f"erasure.{kind}_mb_s"] = moved / total if total > 0 else 0.0
    out["trace_overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
    for name in SIM_METRICS:
        out[f"result.{name}"] = sim.get(name, 0.0)
    return out


# --------------------------------------------------------------- provenance --
def provenance(seed: int, size: Dict[str, float], cycles: int) -> Dict[str, object]:
    """Commit, dirty flag, date, versions, host shape, seed, sizes, repeats."""
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=False).stdout.strip()
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "commit": commit, "dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": seed, "size": size, "cycles": cycles,
    }


# ---------------------------------------------------------------------- run --
def run(workload: str, seed: int = DEFAULT_SEED, seconds: float = 14.0,
        trace: bool = False, smoke: bool = False, out=sys.stdout,
        out_dir: Path = OUT_DIR) -> Dict[str, object]:
    """Run one workload for ``seconds`` and return the full record.

    With ``trace`` the last cycle runs under the tracer (wrappers installed
    for that cycle only) and the record carries the per-layer metrics; the
    untraced cycles before it give ``trace_overhead_pct`` its baseline.
    """
    entry = REGISTRY[workload]
    size = dict(entry.smoke if smoke else entry.default)
    started = time.perf_counter()
    cycles: List[Dict[str, object]] = []
    longest = 0.0
    # Reserve room for the (slower) traced cycle at the end of a traced run.
    reserve = 1.5 if trace else 0.0
    while len(cycles) < MAX_CYCLES:
        cycle_start = time.perf_counter()
        cycles.append(run_cycle(entry, seed, size))
        longest = max(longest, time.perf_counter() - cycle_start)
        if time.perf_counter() - started + (1.0 + reserve) * longest > seconds:
            break

    outcome: Outcome = cycles[0]["outcome"]
    fingerprint = _plain(outcome.fingerprint)
    problems = list(outcome.violations)
    for index, cycle in enumerate(cycles[1:], start=2):
        differing = _fingerprint_diff(fingerprint, _plain(cycle["outcome"].fingerprint))
        if differing:
            problems.append(f"cycle {index} differs from cycle 1 in {differing}")
    golden_checked = False
    if not smoke and seed == DEFAULT_SEED and GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text()).get(workload)
        if golden is not None:
            golden_checked = True
            differing = _fingerprint_diff(fingerprint, golden)
            if differing:
                problems.append(f"fingerprint differs from golden.json in {differing}")

    walls = [cycle["wall_s"] for cycle in cycles]
    samples = {
        "setup_s": [cycle["setup_s"] for cycle in cycles],
        "wall_s": walls,
        "ops_per_s": [outcome.ops / wall for wall in walls],
    }
    raw = {name: [cycle[name] for cycle in cycles]
           for name in ("raw_setup_s", "raw_wall_s", "host_speed")}
    sim = _sim_metrics(outcome)
    record: Dict[str, object] = {
        "workload": workload, "op": entry.op, "ops_per_cycle": outcome.ops,
        "attempted": outcome.ops * len(cycles),
        "failed": 0 if not problems else outcome.ops * len(cycles),
        "correct": not problems, "problems": problems, "golden_checked": golden_checked,
        "samples": samples, "raw": raw, "sim": sim, "fingerprint": fingerprint,
        "provenance": provenance(seed, size, len(cycles)),
    }

    if trace and not problems:
        tracer = Tracer(entry.generator.op_module, entry.generator.measure_at_run)
        tracer.install()
        try:
            traced = run_cycle(entry, seed, size, tracer)
        finally:
            tracer.uninstall()
        differing = _fingerprint_diff(fingerprint, _plain(traced["outcome"].fingerprint))
        if differing:
            problems.append(f"traced cycle differs from cycle 1 in {differing}")
            record["correct"] = False
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace_{workload}.jsonl"
        tracer.write_jsonl(trace_path)
        untraced = statistics.median(walls)
        record["per_layer"] = layer_metrics(tracer, traced, untraced, sim)
        record["traced_wall_s"] = traced["wall_s"]
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["trace_spans"] = len(tracer.spans) + tracer.dropped_spans
        print(f"traced {workload}: wall_s {traced['wall_s']:.4f} (untraced median "
              f"{untraced:.4f}, overhead {record['per_layer']['trace_overhead_pct']:.1f} %), "
              f"{record['trace_spans']} spans -> {record['trace_file']}", file=out)
        print(format_layer_table(scaled_layer_stats(tracer, traced["host_speed"]),
                                 traced["wall_s"]), file=out)

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["metrics"] = {name: summarize(values) for name, values in samples.items()}
    print_record(record, out)
    return record


def print_record(record: Dict[str, object], out=sys.stdout) -> None:
    """Every metric by name with its unit, n and quartiles; checks last."""
    provenance_ = record["provenance"]
    print(f"{record['workload']}: seed {provenance_['seed']}, {provenance_['cycles']} cycles of "
          f"{record['ops_per_cycle']} ops (op = {record['op']})", file=out)
    for name, stats in record["metrics"].items():
        print(f"  {name:<22}{stats['median']:>14.4f} {END_TO_END[name]:<6} host   "
              f"n={stats['n']} q1={stats['q1']:.4f} q3={stats['q3']:.4f}", file=out)
    print(f"  {'peak_rss_mb':<22}{record['peak_rss_mb']:>14.1f} {'MB':<6} host   n=1", file=out)
    raw = record["raw"]
    print(f"  as clocked: wall {statistics.median(raw['raw_wall_s']):.4f} s, set-up "
          f"{statistics.median(raw['raw_setup_s']):.4f} s, host speed "
          f"{statistics.median(raw['host_speed']):.3f} x reference", file=out)
    for name, value in record["sim"].items():
        samples = record["fingerprint"].get("latency_samples")
        note = f"   n={samples}" if name in ("sim_p50_s", "sim_p99_s") and samples else ""
        print(f"  {name:<22}{value:>14.6f} {SIM_METRICS[name]:<6} sim{note}", file=out)
    checks = "ok" if record["correct"] else "FAILED: " + "; ".join(record["problems"])
    golden = "compared" if record["golden_checked"] else "not compared"
    print(f"  output checks: {checks} (golden.json {golden})", file=out)


def contract_line(record: Dict[str, object], trace: bool) -> str:
    """The last stdout line of ``perfbench/run.py`` (the driver's contract)."""
    if not record["correct"]:
        metrics: Dict[str, Dict[str, object]] = {}
    elif trace:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": stats["median"], "unit": END_TO_END[name]}
                   for name, stats in record["metrics"].items()}
        metrics["peak_rss_mb"] = {"value": record["peak_rss_mb"], "unit": "MB"}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})
