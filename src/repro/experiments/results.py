"""Small result containers shared by the experiment harnesses.

Besides the Series/Table containers, this module renders the cross-PR
performance trajectory recorded by the benchmark session hooks:

* ``BENCH_insertion.json`` -- files/s and lookups/s of the array-backed
  placement engine for the large-scale insertion experiment (the committed
  rows keep the historical figures of the retired scalar seed path);
* ``BENCH_coding.json`` -- MB/s of the vectorized erasure-coding kernel;
* ``BENCH_churn.json`` -- failures/s of the columnar block ledger churn
  engine (seed vs ledger) and the end-to-end Figure 10 / Table 3 times,
  including the paper-scale 10 000-node flagship runs;
* ``BENCH_soak.json`` -- events/s and the compaction memory bound of the
  join/leave churn-soak engine (10 000 nodes over simulated weeks);
* ``BENCH_repair.json`` -- time-to-repair and repair-traffic records of the
  bandwidth-aware repair subsystem (fair-share transfer scheduler), including
  the migration-vs-regeneration traffic ratio;
* ``BENCH_faults.json`` -- per-scenario durability records of the
  failure-domain fault-injection panels (site/rack outages, flash crowd,
  rolling restart, degraded links) with availability, data loss,
  time-to-repair and repair traffic;
* ``BENCH_tenants.json`` -- the per-tenant QoS isolation records of the
  noisy-neighbor storm suite: the victim tenant's ingest throughput and
  retrieve p95 with isolation on vs off while the archive tenant's
  site-outage repair drains, plus the per-tenant SLO rows.

``python -m repro.cli bench --summary-only`` prints both via
:func:`benchmark_summary`; the benchmarks themselves are run with
``python -m repro.cli bench`` (or ``pytest benchmarks -m bench``).

Trajectory snapshot (development machine, PR 2):

======================================  ============  ==============
metric                                  scalar seed   vectorized
======================================  ============  ==============
insertion end-to-end, 600 nodes         ~90 files/s   ~2 000 files/s
store loop only, 10 000 nodes (CFS)     ~1.0k files/s ~2.0k files/s
flagship 10 000 nodes x 100k files      impractical   ~1 400 files/s
flagship lookup throughput              --            ~89k lookups/s
online code encode/decode, 4 MiB        (PR 1)        414 / 96 MB/s
Reed-Solomon encode/decode, 4 MiB       (PR 1)        201 / 185 MB/s
======================================  ============  ==============
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence


@dataclass
class Series:
    """A labelled (x, y) series, one line of a paper figure."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def append(self, x: float, y: float) -> None:
        """Add one point to the series."""
        self.x.append(float(x))
        self.y.append(float(y))

    def final(self) -> float:
        """The last y value (the figure's end-of-run number quoted in the text)."""
        if not self.y:
            raise ValueError(f"series {self.label!r} is empty")
        return self.y[-1]

    def as_rows(self) -> List[tuple[float, float]]:
        """The series as (x, y) tuples."""
        return list(zip(self.x, self.y))

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class TableResult:
    """A labelled table: ordered column names plus rows of values."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row; every configured column must be provided."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

    def format(self, float_format: str = "{:.3f}") -> str:
        """Render the table as aligned plain text (used by benches and the CLI)."""
        def render(value: object) -> str:
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        rendered = [[render(row[column]) for column in self.columns] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(line[i]) for line in rendered)) if rendered else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        separator = "  ".join("-" * widths[i] for i in range(len(self.columns)))
        lines = [self.title, header, separator]
        for line in rendered:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(line))))
        return "\n".join(lines)


def load_benchmark_record(path: Path) -> Optional[dict]:
    """Load one ``BENCH_*.json`` trajectory record, or None if absent/corrupt."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def insertion_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_insertion.json rows as a files/s / lookups/s table."""
    table = TableResult(
        title="Insertion throughput (array-backed placement engine)",
        columns=["nodes", "files", "pipeline", "seconds", "files_per_s", "lookups_per_s"],
    )
    for row in record.get("results", []):
        table.add_row(
            nodes=row.get("node_count", 0),
            files=row.get("file_count", 0),
            pipeline=row.get("pipeline", "?"),
            seconds=float(row.get("seconds", 0.0)),
            files_per_s=float(row.get("files_per_s", 0.0)),
            lookups_per_s=float(row.get("lookups_per_s", 0.0)),
        )
    return table


def coding_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_coding.json rows as an encode/decode MB/s table."""
    table = TableResult(
        title="Coding throughput (vectorized erasure kernel)",
        columns=["code", "chunk_bytes", "n_blocks", "encode_MBps", "decode_MBps"],
    )
    for row in record.get("results", []):
        table.add_row(
            code=row.get("code", "?"),
            chunk_bytes=row.get("chunk_bytes", 0),
            n_blocks=row.get("n_blocks", 0),
            encode_MBps=float(row.get("encode_MBps", 0.0)),
            decode_MBps=float(row.get("decode_MBps", 0.0)),
        )
    return table


def soak_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_soak.json rows as an events/s + memory-bound table."""
    table = TableResult(
        title="Churn soak (join/leave engine + ledger compaction)",
        columns=[
            "nodes", "files", "sim_days", "pipeline", "seconds", "events",
            "events_per_s", "peak_rows", "peak_live_rows", "rows_reclaimed",
        ],
    )
    for row in record.get("results", []):
        table.add_row(
            nodes=row.get("node_count", 0),
            files=row.get("file_count", 0),
            sim_days=float(row.get("sim_days", 0.0)),
            pipeline=row.get("pipeline", "?"),
            seconds=float(row.get("seconds", 0.0)),
            events=row.get("events", 0),
            events_per_s=float(row.get("events_per_s", 0.0)),
            peak_rows=row.get("peak_rows", 0),
            peak_live_rows=row.get("peak_live_rows", 0),
            rows_reclaimed=row.get("rows_reclaimed", 0),
        )
    return table


def repair_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_repair.json rows as a time-to-repair/traffic table."""
    table = TableResult(
        title="Bandwidth-aware repair (fair-share transfer scheduler)",
        columns=[
            "scenario", "nodes", "fail_pct", "bandwidth_mb_s", "mode",
            "moved_gb", "traffic_gb", "mean_ttr_s", "makespan_s", "seconds",
        ],
    )
    for row in record.get("results", []):
        table.add_row(
            scenario=row.get("scenario", "?"),
            nodes=row.get("node_count", 0),
            fail_pct=float(row.get("fail_pct", 0.0)),
            bandwidth_mb_s=float(row.get("bandwidth_mb_s", 0.0)),
            mode=row.get("mode", "fail"),
            moved_gb=float(row.get("moved_gb", 0.0)),
            traffic_gb=float(row.get("traffic_gb", 0.0)),
            mean_ttr_s=float(row.get("mean_ttr_s", 0.0)),
            makespan_s=float(row.get("makespan_s", 0.0)),
            seconds=float(row.get("seconds", 0.0)),
        )
    return table


def faults_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_faults.json rows as a per-scenario durability table.

    The topology columns (core oversubscription ratio, peak trunk
    utilization, storm queue depth, foreground p95) are 0 on access-only
    rows and populated on the finite-core and TTR-vs-oversubscription rows.
    """
    table = TableResult(
        title="Fault injection (failure domains + durability-grade repair)",
        columns=[
            "scenario", "nodes", "nodes_down", "lost_gb", "availability_pct",
            "traffic_gb", "mean_ttr_s", "makespan_s", "degraded_reads",
            "failed_reads", "oversub", "trunk_util_pct", "storm_queue_peak",
            "foreground_p95_s", "seconds",
        ],
    )
    for row in record.get("results", []):
        table.add_row(
            scenario=row.get("scenario", "?"),
            nodes=row.get("node_count", 0),
            nodes_down=float(row.get("nodes_down", 0.0)),
            lost_gb=float(row.get("lost_gb", 0.0)),
            availability_pct=float(row.get("availability_pct", 0.0)),
            traffic_gb=float(row.get("traffic_gb", 0.0)),
            mean_ttr_s=float(row.get("mean_ttr_s", 0.0)),
            makespan_s=float(row.get("makespan_s", 0.0)),
            degraded_reads=float(row.get("degraded_reads", 0.0)),
            failed_reads=float(row.get("failed_reads", 0.0)),
            oversub=float(row.get("oversub", 0.0)),
            trunk_util_pct=float(row.get("trunk_util_pct", 0.0)),
            storm_queue_peak=float(row.get("storm_queue_peak", 0.0)),
            foreground_p95_s=float(row.get("foreground_p95_s", 0.0)),
            seconds=float(row.get("seconds", 0.0)),
        )
    return table


def tenants_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_tenants.json rows as a QoS isolation table.

    Flagship rows (tenant ``-``) carry the victim's ingest/probe SLOs and
    the storm's repair totals; the ``*-slo-*`` rows carry each tenant's
    availability and bytes-moved accounting from the shared ledger/fabric.
    """
    table = TableResult(
        title="Tenant QoS isolation (noisy-neighbor storm suite)",
        columns=[
            "scenario", "nodes", "tenant", "ingest_mb_s", "ingest_slowdown_x",
            "probe_p95_s", "repair_gb", "availability_pct", "moved_gb",
            "backlog_gb", "storm_queue_peak", "trunk_util_pct", "seconds",
        ],
    )
    for row in record.get("results", []):
        table.add_row(
            scenario=row.get("scenario", "?"),
            nodes=row.get("node_count", 0),
            tenant=row.get("tenant", "-"),
            ingest_mb_s=float(row.get("ingest_mb_s", 0.0)),
            ingest_slowdown_x=float(row.get("ingest_slowdown_x", 0.0)),
            probe_p95_s=float(row.get("probe_p95_s", 0.0)),
            repair_gb=float(row.get("repair_gb", 0.0)),
            availability_pct=float(row.get("availability_pct", 0.0)),
            moved_gb=float(row.get("moved_gb", 0.0)),
            backlog_gb=float(row.get("backlog_gb", 0.0)),
            storm_queue_peak=float(row.get("storm_queue_peak", 0.0)),
            trunk_util_pct=float(row.get("trunk_util_pct", 0.0)),
            seconds=float(row.get("seconds", 0.0)),
        )
    return table


def churn_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_churn.json rows as a failure-throughput table."""
    table = TableResult(
        title="Churn throughput (columnar block ledger)",
        columns=["scenario", "nodes", "files", "pipeline", "seconds", "failures", "failures_per_s"],
    )
    for row in record.get("results", []):
        table.add_row(
            scenario=row.get("scenario", "?"),
            nodes=row.get("node_count", 0),
            files=row.get("file_count", 0),
            pipeline=row.get("pipeline", "?"),
            seconds=float(row.get("seconds", 0.0)),
            failures=row.get("failures", 0),
            failures_per_s=float(row.get("failures_per_s", 0.0)),
        )
    return table


def serving_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_serving.json rows as a serve-path panel table."""
    table = TableResult(
        title="Serve path (open-loop Zipf traffic, per-gateway block caches)",
        columns=["scenario", "nodes", "zipf_s", "cache", "sustained_req_s",
                 "read_p50_s", "read_p95_s", "read_p99_s", "cache_hit_pct",
                 "load_imbalance_x", "promotions", "seconds"],
    )
    for row in record.get("results", []):
        table.add_row(
            scenario=row.get("scenario", "?"),
            nodes=row.get("node_count", 0),
            zipf_s=float(row.get("zipf_s", 0.0)),
            cache=float(row.get("cache", 0.0)),
            sustained_req_s=float(row.get("sustained_req_s", 0.0)),
            read_p50_s=float(row.get("read_p50_s", 0.0)),
            read_p95_s=float(row.get("read_p95_s", 0.0)),
            read_p99_s=float(row.get("read_p99_s", 0.0)),
            cache_hit_pct=float(row.get("cache_hit_pct", 0.0)),
            load_imbalance_x=float(row.get("load_imbalance_x", 0.0)),
            promotions=float(row.get("promotions", 0.0)),
            seconds=float(row.get("seconds", 0.0)),
        )
    return table


def routing_benchmark_table(record: dict) -> TableResult:
    """Render the BENCH_routing.json rows as a routing-fabric panel table."""
    table = TableResult(
        title="Routing fabric (batched Pastry/Chord lookups, array engines)",
        columns=["engine", "nodes", "lookups", "avg_hops", "p95_hops",
                 "max_hops", "build_s", "routes_per_s", "table_mb",
                 "bytes_per_node"],
    )
    for row in record.get("results", []):
        table.add_row(
            engine=row.get("engine", "?"),
            nodes=float(row.get("nodes", 0.0)),
            lookups=float(row.get("lookups", 0.0)),
            avg_hops=float(row.get("avg_hops", 0.0)),
            p95_hops=float(row.get("p95_hops", 0.0)),
            max_hops=float(row.get("max_hops", 0.0)),
            build_s=float(row.get("build_s", 0.0)),
            routes_per_s=float(row.get("routes_per_s", 0.0)),
            table_mb=float(row.get("table_mb", 0.0)),
            bytes_per_node=float(row.get("bytes_per_node", 0.0)),
        )
    return table


def _benchmark_section(root: Path, filename: str, table_fn, speedup_label: str) -> List[str]:
    """One record's summary: its table plus a rendered speedups line.

    Ratio entries get an ``x`` suffix; absolute entries (throughputs ending
    in ``_per_s``, wall times ending in ``_seconds``) are printed plain.
    """
    record = load_benchmark_record(Path(root) / filename)
    if record is None:
        return [f"{filename} not found - run `python -m repro.cli bench`"]
    sections = [table_fn(record).format(float_format="{:,.1f}")]
    speedups = record.get("speedups", {})
    rendered = [
        f"{key}={value:,.1f}"
        + ("" if key.endswith("_per_s") or key.endswith("_seconds") else "x")
        for key, value in sorted(speedups.items())
        if isinstance(value, (int, float))
    ]
    if rendered:
        sections.append(speedup_label + ": " + ", ".join(rendered))
    return sections


def benchmark_summary(root: Path) -> str:
    """The combined perf-trajectory summary for a repository checkout.

    Lists the insertion engine's files/s and lookups/s next to the coding
    kernel's MB/s, the churn engine's failures/s and the soak engine's
    events/s + compaction bound, so one report tracks every hot layer
    across PRs.
    """
    sections: List[str] = []
    sections += _benchmark_section(
        root, "BENCH_insertion.json", insertion_benchmark_table, "insertion engine"
    )
    sections += _benchmark_section(root, "BENCH_coding.json", coding_benchmark_table, "coding kernel")
    sections += _benchmark_section(
        root, "BENCH_churn.json", churn_benchmark_table, "churn engine"
    )
    sections += _benchmark_section(root, "BENCH_soak.json", soak_benchmark_table, "soak engine")
    sections += _benchmark_section(
        root, "BENCH_repair.json", repair_benchmark_table, "repair subsystem"
    )
    sections += _benchmark_section(
        root, "BENCH_faults.json", faults_benchmark_table, "fault injection"
    )
    sections += _benchmark_section(
        root, "BENCH_tenants.json", tenants_benchmark_table, "tenant QoS isolation"
    )
    sections += _benchmark_section(
        root, "BENCH_serving.json", serving_benchmark_table, "serve path"
    )
    sections += _benchmark_section(
        root, "BENCH_routing.json", routing_benchmark_table, "routing fabric"
    )
    return "\n\n".join(sections)


def format_series_table(series_list: Sequence[Series], x_label: str = "x") -> str:
    """Render several series sharing the same x grid as one text table."""
    if not series_list:
        return "(no series)"
    table = TableResult(
        title="",
        columns=[x_label, *[series.label for series in series_list]],
    )
    length = min(len(series) for series in series_list)
    for index in range(length):
        row = {x_label: series_list[0].x[index]}
        for series in series_list:
            row[series.label] = series.y[index]
        table.add_row(**row)
    return table.format()
