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
from typing import Dict, Iterable, List, Optional, Sequence, Union


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

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class TableResult:
    """A labelled table: ordered column names plus rows of values."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: How :meth:`format` renders floats unless told otherwise.
    float_format: str = "{:.3f}"

    @classmethod
    def from_rows(cls, title: str, columns: List[str],
                  rows: Iterable[Dict[str, object]]) -> "TableResult":
        """The table of ``columns`` picked from each row (rows may carry more keys)."""
        return cls(title, columns, [{column: row[column] for column in columns} for row in rows])

    def add_row(self, **values: object) -> None:
        """Append a row; every configured column must be provided."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def format(self, float_format: Optional[str] = None) -> str:
        """Render the table as aligned plain text (used by benches and the CLI)."""
        float_format = float_format or self.float_format

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

    def report(self) -> str:
        """What the CLI prints for a one-table result."""
        return self.format()


def render_report(*blocks: Union[TableResult, str]) -> str:
    """Tables (floats to two places) and lines of text joined by blank lines: a CLI report."""
    return "\n\n".join(block if isinstance(block, str) else block.format("{:,.2f}")
                       for block in blocks)


def summary_line(name: str, values: Dict[str, float]) -> str:
    """The ``"<name> summary: k=v, ..."`` line of a result's headline numbers."""
    return f"{name} summary: " + ", ".join(f"{key}={value:,.2f}" for key, value in values.items())


def load_benchmark_record(path: Path) -> Optional[dict]:
    """Load one ``BENCH_*.json`` trajectory record, or None if absent/corrupt."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


#: Columns several records share (routing's record keys its ``nodes`` directly).
_NODES = ("nodes", "node_count", 0)
_FILES = ("files", "file_count", 0)
_SCENARIO = ("scenario", "scenario", "?")
_PIPELINE = ("pipeline", "pipeline", "?")

#: One entry per ``BENCH_<name>.json`` record, in summary order:
#: name -> (table title, speed-up line label, columns).  A column is
#: ``(column, record key, default)`` and a float default also coerces the
#: value with ``float``; a bare string is short for ``(name, name, 0.0)``.
#: Faults: the topology columns are 0 on access-only rows.  Tenants: flagship
#: rows carry tenant ``-``, the ``*-slo-*`` rows one tenant's accounting.
BENCHMARK_TABLES = {
    "insertion": (
        "Insertion throughput (array-backed placement engine)", "insertion engine",
        [_NODES, _FILES, _PIPELINE, "seconds", "files_per_s", "lookups_per_s"]),
    "coding": (
        "Coding throughput (vectorized erasure kernel)", "coding kernel",
        [("code", "code", "?"), ("chunk_bytes", "chunk_bytes", 0),
         ("n_blocks", "n_blocks", 0), "encode_MBps", "decode_MBps"]),
    "churn": (
        "Churn throughput (columnar block ledger)", "churn engine",
        [_SCENARIO, _NODES, _FILES, _PIPELINE, "seconds",
         ("failures", "failures", 0), "failures_per_s"]),
    "soak": (
        "Churn soak (join/leave engine + ledger compaction)", "soak engine",
        [_NODES, _FILES, "sim_days", _PIPELINE, "seconds", ("events", "events", 0),
         "events_per_s", ("peak_rows", "peak_rows", 0),
         ("peak_live_rows", "peak_live_rows", 0),
         ("rows_reclaimed", "rows_reclaimed", 0)]),
    "repair": (
        "Bandwidth-aware repair (fair-share transfer scheduler)", "repair subsystem",
        [_SCENARIO, _NODES, "fail_pct", "bandwidth_mb_s", ("mode", "mode", "fail"),
         "moved_gb", "traffic_gb", "mean_ttr_s", "makespan_s", "seconds"]),
    "faults": (
        "Fault injection (failure domains + durability-grade repair)", "fault injection",
        [_SCENARIO, _NODES, "nodes_down", "lost_gb", "availability_pct", "traffic_gb",
         "mean_ttr_s", "makespan_s", "degraded_reads", "failed_reads", "oversub",
         "trunk_util_pct", "storm_queue_peak", "foreground_p95_s", "seconds"]),
    "tenants": (
        "Tenant QoS isolation (noisy-neighbor storm suite)", "tenant QoS isolation",
        [_SCENARIO, _NODES, ("tenant", "tenant", "-"), "ingest_mb_s",
         "ingest_slowdown_x", "probe_p95_s", "repair_gb", "availability_pct",
         "moved_gb", "backlog_gb", "storm_queue_peak", "trunk_util_pct", "seconds"]),
    "serving": (
        "Serve path (open-loop Zipf traffic, per-gateway block caches)", "serve path",
        [_SCENARIO, _NODES, "zipf_s", "cache", "sustained_req_s", "read_p50_s",
         "read_p95_s", "read_p99_s", "cache_hit_pct", "load_imbalance_x",
         "promotions", "seconds"]),
    "routing": (
        "Routing fabric (batched Pastry/Chord lookups, array engines)", "routing fabric",
        [("engine", "engine", "?"), "nodes", "lookups", "avg_hops", "p95_hops",
         "max_hops", "build_s", "routes_per_s", "table_mb", "bytes_per_node"]),
}


def benchmark_table(name: str, record: dict) -> TableResult:
    """Render one ``BENCH_<name>.json`` record's rows as its summary table."""
    title, _, columns = BENCHMARK_TABLES[name]
    columns = [(c, c, 0.0) if isinstance(c, str) else c for c in columns]
    table = TableResult(title=title, columns=[column for column, _, _ in columns])
    for row in record.get("results", []):
        values = {}
        for column, key, default in columns:
            value = row.get(key, default)
            values[column] = float(value) if isinstance(default, float) else value
        table.add_row(**values)
    return table


def _benchmark_section(root: Path, name: str) -> List[str]:
    """One record's summary: its table plus a rendered speedups line.

    Ratio entries get an ``x`` suffix; absolute entries (throughputs ending
    in ``_per_s``, wall times ending in ``_seconds``) are printed plain.
    """
    _, label, _ = BENCHMARK_TABLES[name]
    filename = f"BENCH_{name}.json"
    record = load_benchmark_record(Path(root) / filename)
    if record is None:
        return [f"{filename} not found - run `python -m repro.cli bench`"]
    sections = [benchmark_table(name, record).format(float_format="{:,.1f}")]
    speedups = record.get("speedups", {})
    rendered = [
        f"{key}={value:,.1f}"
        + ("" if key.endswith("_per_s") or key.endswith("_seconds") else "x")
        for key, value in sorted(speedups.items())
        if isinstance(value, (int, float))
    ]
    if rendered:
        sections.append(label + ": " + ", ".join(rendered))
    return sections


def benchmark_summary(root: Path) -> str:
    """The combined perf-trajectory summary for a repository checkout.

    Lists the insertion engine's files/s and lookups/s next to the coding
    kernel's MB/s, the churn engine's failures/s and the soak engine's
    events/s + compaction bound, so one report tracks every hot layer
    across PRs.
    """
    return "\n\n".join(
        section for name in BENCHMARK_TABLES for section in _benchmark_section(root, name)
    )


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
