"""Every number the paper reports beside ours: the claim table and ``reproduce``.

:data:`PAPER_CLAIMS` gives each number of Figures 7-12 and Tables 1-4 one row:
where it is, the paper's value, which of our facts it is (the named numbers
:data:`EXPERIMENTS` reads off each experiment's result) and the bound our facts
meet.  The bounds are the reproduction's claims, not the paper's values: the
scale and the host differ (``REPRODUCTION.md`` explains each gap over 2x).  A
claim that orders schemes also needs the beaten side non-zero, so a run without
capacity pressure fails it.  :class:`ReproduceExperiment` runs each experiment
once per seed; a claim holds only when it holds on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Dict, List, Optional

import numpy as np

from repro.experiments.coding_perf import CodingPerfConfig, CodingPerfExperiment
from repro.experiments.condor_case_study import CondorCaseStudyConfig, CondorCaseStudyExperiment
from repro.experiments.failure_sweep import PAPER_FIG10, PAPER_TABLE3, FailureSweepExperiment
from repro.experiments.multicast_replicas import MulticastConfig, MulticastExperiment
from repro.experiments.results import TableResult
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.overlay.validation import require_range
from repro.sim.stats import summarize
from repro.workloads.filetrace import GB, MB


@dataclass(frozen=True)
class ReproduceConfig:
    """The experiments' configs; each run replaces a config's ``seed`` with one of ``seeds``."""

    seeds: tuple = (1, 2, 3, 4, 5)
    insertion: InsertionConfig = InsertionConfig(node_count=100, sample_points=10)
    multicast: MulticastConfig = MulticastConfig()
    condor: CondorCaseStudyConfig = CondorCaseStudyConfig()
    #: Both presets run these: smaller Figure 10 and Table 3 runs break their claims.
    fig10: ClassVar = replace(PAPER_FIG10, node_count=300, file_count=2_000)
    table3: ClassVar = replace(PAPER_TABLE3, node_count=300, file_count=2_000)
    coding: ClassVar = CodingPerfConfig()

    def __post_init__(self) -> None:
        require_range("len(seeds)", len(self.seeds), 1)
        for seed in self.seeds:
            require_range("seeds", seed, 0)


#: The weekly gate, on seeds 1-5.
PAPER_REPRODUCE = ReproduceConfig()
#: Seconds per seed: insertion at 30 nodes, filled to the paper's utilisation.
SMOKE_REPRODUCE = replace(PAPER_REPRODUCE, seeds=(1, 2, 3),
                          insertion=InsertionConfig(node_count=30, sample_points=6),
                          multicast=MulticastConfig(total_packets=300),
                          condor=CondorCaseStudyConfig(file_sizes=(1 * GB, 4 * GB, 16 * GB)))

#: Whole-file Condor storage is N/A from this size: no machine contributes it.
WHOLE_FILE_LIMIT_GB = 16.0
_SCHEME = {"PAST": "PAST", "CFS": "CFS", "Our System": "ours"}
#: Named numbers read off one experiment's result.
Facts = Dict[str, float]


def _insertion_facts(outcome) -> Facts:
    """Figures 7-9 at the last point, and Table 1."""
    facts = {f"{metric} {_SCHEME[scheme]}": value
             for metric, finals in (("stores", outcome.final_failed_stores()),
                                    ("data", outcome.final_failed_data()),
                                    ("util", outcome.final_utilization()))
             for scheme, value in finals.items()}
    for scheme in ("CFS", "Our System"):
        stats = outcome.curves[scheme].chunk_stats
        facts[f"chunks/file {_SCHEME[scheme]}"] = stats["mean_chunks_per_file"]
        facts[f"chunk MB {_SCHEME[scheme]}"] = stats["mean_chunk_size"] / MB
    return facts


def _coding_facts(table) -> Facts:
    """Table 2, ``"<column> <code>"``."""
    return {f"{column} {row['code']}": row[column] for row in table.rows
            for column in ("size_overhead_pct", "encode_ms", "decode_ms")}


def _fig10_facts(result) -> Facts:
    """Figure 10: unavailable files (%) at the end, and the online code's midpoint."""
    online = result.curves["Online code"].y
    return {"none": result.curves["No error code"].final(),
            "XOR": result.curves["XOR code"].final(),
            "online": online[-1], "online half": online[len(online) // 2]}


def _table3_facts(result) -> Facts:
    """Table 3, ``"<column> <row>"`` with its rows numbered from 1 in run order."""
    facts = {"nodes": result.config.node_count}
    for index, row in enumerate(result.table.rows, 1):
        facts.update({f"{column} {index}": value for column, value in row.items()})
    return facts


def _condor_facts(table) -> Facts:
    """Table 4: where whole-file storage stops, and the chunked schemes' times."""
    rows = {row["file_size_gb"]: row for row in table.rows}
    whole = {size for size, row in rows.items() if math.isfinite(row["whole_file_s"])}
    chunked = {size for size, row in rows.items()
               if math.isfinite(row["fixed_chunks_s"]) and math.isfinite(row["varying_chunks_s"])}
    largest, midsize = rows[max(rows)], max(size for size in rows if size < WHOLE_FILE_LIMIT_GB)
    return {"whole largest": max(whole, default=-math.inf),
            "whole N/A from": min(set(rows) - whole, default=math.inf),
            "chunked largest": max(chunked, default=math.nan),
            "chunked unstored": len(rows) - len(chunked),
            "varying % mid": rows[midsize]["varying_overhead_pct"],
            "varying % smallest": rows[min(rows)]["varying_overhead_pct"],
            "fixed s largest": largest["fixed_chunks_s"],
            "varying s largest": largest["varying_chunks_s"],
            "varying slower from 2 GB": sum(row["varying_chunks_s"] > row["fixed_chunks_s"]
                                            for size, row in rows.items() if size >= 2.0)}


def _multicast_facts(result) -> Facts:
    """Figure 11's epochs per RanSub size, and Figure 12's saturation run."""
    minimum, average, maximum = result.saturation
    growth = np.diff(average.y)
    bulk = growth[: max(1, int(len(growth) * 0.8))]
    return {**{f"epochs {fraction:.0%}": len(series) for fraction, series in result.sweep.items()},
            "falling steps": sum(b < a for series in result.sweep.values()
                                 for a, b in zip(series.y, series.y[1:])),
            "packets": result.config.total_packets, "max": maximum.final(),
            "avg": average.final(),
            "spread": float(np.mean(np.asarray(maximum.y) - np.asarray(minimum.y))),
            "growth std": bulk.std(), "growth mean": bulk.mean()}


#: ``ReproduceConfig`` field -> (its experiment, its facts, the scale and model it runs).
EXPERIMENTS: Dict[str, tuple] = {
    "insertion": (InsertionExperiment, _insertion_facts,
                  lambda c: f"{c.node_count} nodes, {c.resolved_file_count():,} files"),
    "fig10": (FailureSweepExperiment, _fig10_facts,
              lambda c: f"{c.node_count} nodes, {c.file_count:,} files, no repair"),
    "table3": (FailureSweepExperiment, _table3_facts,
               lambda c: f"{c.node_count} nodes, {c.file_count:,} files, instant repair"),
    "coding": (CodingPerfExperiment, _coding_facts,
               lambda c: f"{c.chunk_size / MB:g} MB chunk, {c.blocks_per_chunk} blocks"),
    "multicast": (MulticastExperiment, _multicast_facts,
                  lambda c: f"63-node tree, {c.total_packets} packets"),
    "condor": (CondorCaseStudyExperiment, _condor_facts,
               lambda c: f"{min(c.file_sizes) / GB:g}-{max(c.file_sizes) / GB:g} GB files"),
}


@dataclass(frozen=True)
class Claim:
    """One paper number: where it is, its value, ours (``value`` of the ``experiment``'s
    facts) and the bound ours meets (``holds``; ``None`` reports the number unbounded)."""

    figure: str
    quantity: str
    paper: str
    experiment: str
    value: Callable[[Facts], float]
    check: str = "-"
    holds: Optional[Callable[[Facts], bool]] = None


def _fact(name: str) -> Callable[[Facts], float]:
    return lambda f: f[name]


def _beats(metric: str, other: str) -> Callable[[Facts], bool]:
    """Ours fails less than ``other`` (Figures 7, 8), and ``other`` fails at all."""
    return lambda f: 0 < f[f"{metric} {other}"] and f[f"{metric} ours"] < f[f"{metric} {other}"]


def _fills(other: str) -> Callable[[Facts], bool]:
    """Ours fills at least as much as ``other`` (Figure 9), and ``other`` failed data."""
    return lambda f: 0 < f[f"data {other}"] and f["util ours"] >= f[f"util {other}"]


def _vs_none(coding: str) -> Callable[[Facts], float]:
    """Figure 10: unavailable files against no coding, % change."""
    return lambda f: 100 * (f[coding] / f["none"] - 1) if f["none"] else math.nan


PAPER_CLAIMS = (
    Claim("Fig 7", "failed stores, PAST (%)", "36.0", "insertion", _fact("stores PAST"),
          "ours < PAST, PAST > 0", _beats("stores", "PAST")),
    Claim("Fig 7", "failed stores, CFS (%)", "15.2", "insertion", _fact("stores CFS"),
          "ours < CFS, CFS > 0", _beats("stores", "CFS")),
    Claim("Fig 7", "failed stores, ours (%)", "5.2", "insertion", _fact("stores ours"),
          "< 0.5 x min(PAST, CFS)",
          lambda f: f["stores ours"] < 0.5 * min(f["stores CFS"], f["stores PAST"])),
    Claim("Fig 8", "failed data, PAST (%)", "39.2", "insertion", _fact("data PAST"),
          "ours < PAST, PAST > 0", _beats("data", "PAST")),
    Claim("Fig 8", "failed data, CFS (%)", "22.0", "insertion", _fact("data CFS"),
          "ours < CFS, CFS > 0", _beats("data", "CFS")),
    Claim("Fig 8", "failed data, ours (%)", "12.7", "insertion", _fact("data ours")),
    Claim("Fig 9", "PAST under-utilises vs ours (%)", "30.4", "insertion",
          lambda f: 100 * (1 - f["util PAST"] / f["util ours"]), "ours >= PAST, PAST data > 0",
          _fills("PAST")),
    Claim("Fig 9", "CFS under-utilises vs ours (%)", "10.7", "insertion",
          lambda f: 100 * (1 - f["util CFS"] / f["util ours"]), "ours >= CFS, CFS data > 0",
          _fills("CFS")),
    Claim("Table 1", "CFS mean chunk size (MB)", "4", "insertion", _fact("chunk MB CFS"),
          "within 0.5 of 4", lambda f: abs(f["chunk MB CFS"] - 4.0) < 0.5),
    Claim("Table 1", "CFS chunks per file", "61.25", "insertion", _fact("chunks/file CFS"),
          "> 50", lambda f: f["chunks/file CFS"] > 50),
    Claim("Table 1", "ours chunks per file", "3.72", "insertion", _fact("chunks/file ours"),
          "< CFS / 10, CFS > 0",
          lambda f: 0 < f["chunks/file CFS"] and f["chunks/file ours"] < f["chunks/file CFS"] / 10),
    Claim("Table 1", "ours mean chunk size (MB)", "81.28", "insertion", _fact("chunk MB ours"),
          "> 10 x CFS, CFS > 0",
          lambda f: 0 < f["chunk MB CFS"] and f["chunk MB ours"] > 10 * f["chunk MB CFS"]),
    Claim("Table 2", "NULL size overhead (%)", "0 (4 MB of 4)", "coding",
          _fact("size_overhead_pct Null"), "|x| < 1",
          lambda f: abs(f["size_overhead_pct Null"]) < 1.0),
    Claim("Table 2", "XOR size overhead (%)", "50 (6 MB of 4)", "coding",
          _fact("size_overhead_pct XOR"), "|x - 50| < 2",
          lambda f: abs(f["size_overhead_pct XOR"] - 50.0) < 2.0),
    Claim("Table 2", "online size overhead (%)", "3 (4.12 MB of 4)", "coding",
          _fact("size_overhead_pct Online"), "< 25",
          lambda f: f["size_overhead_pct Online"] < 25.0),
    Claim("Table 2", "XOR encode time (x NULL)", "~7", "coding",
          lambda f: f["encode_ms XOR"] / f["encode_ms Null"], "NULL <= 1.25 x XOR, NULL > 0",
          lambda f: 0 < f["encode_ms Null"] <= 1.25 * f["encode_ms XOR"]),
    Claim("Table 2", "online encode time (x NULL)", "~24", "coding",
          lambda f: f["encode_ms Online"] / f["encode_ms Null"],
          "XOR < online, XOR > 0; decode NULL <= online",
          lambda f: 0 < f["encode_ms XOR"] < f["encode_ms Online"]
          and f["decode_ms Null"] <= f["decode_ms Online"]),
    Claim("Fig 10", "XOR vs no coding, unavailable (%)", "-23", "fig10", _vs_none("XOR"),
          "XOR < none, none > 0", lambda f: 0 < f["none"] and f["XOR"] < f["none"]),
    Claim("Fig 10", "online vs no coding, unavailable (%)", "-32", "fig10", _vs_none("online"),
          "online <= XOR, XOR > 0", lambda f: 0 < f["XOR"] and f["online"] <= f["XOR"]),
    Claim("Fig 10", "online, unavailable files (%)", "1.48", "fig10", _fact("online"),
          "< 3", lambda f: f["online"] < 3.0),
    Claim("Fig 10", "online, unavailable at half the failures (%)", "~0 (to 866 of 1 000)",
          "fig10", _fact("online half"), "<= 1", lambda f: f["online half"] <= 1.0),
    Claim("Table 3", "data lost, 10 % failed (GB)", "0", "table3", _fact("data_lost_gb 1"),
          "<= 5 % of regenerated; rows 10 %, 20 %",
          lambda f: (f["nodes_failed_pct 1"], f["nodes_failed_pct 2"]) == (10.0, 20.0)
          and f["data_lost_gb 1"] <= 0.05 * f["data_regenerated_gb 1"] + 1e-9),
    Claim("Table 3", "data lost, 20 % failed (GB)", "142", "table3", _fact("data_lost_gb 2"),
          "< 25 % of regenerated", lambda f: f["data_lost_gb 2"] < 0.25 * f["data_regenerated_gb 2"]),
    Claim("Table 3", "regenerated per failure, 20 % (GB)", "~29", "table3",
          _fact("regenerated_per_failure_gb_mean 2"), "regenerated at 20 % > at 10 %",
          lambda f: f["data_regenerated_gb 2"] > f["data_regenerated_gb 1"]),
    Claim("Table 3", "regenerated per failure, 20 % (% of data)", "~0.01", "table3",
          _fact("regenerated_per_failure_pct_of_total 2"), "< 500 / nodes",
          lambda f: f["regenerated_per_failure_pct_of_total 2"] < 100.0 / f["nodes"] * 5),
    Claim("Table 4", "whole-file storage N/A from (GB)", "16", "condor", _fact("whole N/A from"),
          "stored below 16 GB, N/A from 16 GB",
          lambda f: f["whole largest"] < WHOLE_FILE_LIMIT_GB <= f["whole N/A from"]),
    Claim("Table 4", "largest size both chunked schemes store (GB)", "128", "condor",
          _fact("chunked largest"), "both store every size", lambda f: f["chunked unstored"] == 0),
    Claim("Table 4", "varying-chunk overhead below 16 GB (%)", "2.4 (8 GB)", "condor",
          _fact("varying % mid"), "< 5, <= at the smallest size",
          lambda f: f["varying % mid"] < 5.0 and f["varying % mid"] <= f["varying % smallest"] + 1e-9),
    Claim("Table 4", "fixed-chunk time, largest size (x varying)", "1.27 (128 GB)", "condor",
          lambda f: f["fixed s largest"] / f["varying s largest"], "> 1.10; varying <= fixed from 2 GB",
          lambda f: f["fixed s largest"] > 1.10 * f["varying s largest"]
          and f["varying slower from 2 GB"] == 0),
    Claim("Fig 11", "epochs at 3 % RanSub (x 16 %)", "> 1", "multicast",
          lambda f: f["epochs 3%"] / f["epochs 16%"], ">= 1; every average curve rises",
          lambda f: f["epochs 3%"] >= f["epochs 16%"] and f["falling steps"] == 0),
    Claim("Fig 11", "epochs saved 3->8 % minus 8->16 %", "> 0 (flat past ~8 %)", "multicast",
          lambda f: (f["epochs 3%"] - f["epochs 8%"]) - (f["epochs 8%"] - f["epochs 16%"]), ">= 0",
          lambda f: f["epochs 3%"] - f["epochs 8%"] >= f["epochs 8%"] - f["epochs 16%"]),
    Claim("Fig 12", "final average packets (% of chunk)", "100", "multicast",
          lambda f: 100 * f["avg"] / f["packets"], ">= 99; max = 100",
          lambda f: f["max"] == f["packets"] and f["avg"] >= 0.99 * f["packets"]),
    Claim("Fig 12", "mean min-max spread (% of chunk)", "small (even)", "multicast",
          lambda f: 100 * f["spread"] / f["packets"], "< 35",
          lambda f: f["spread"] < 0.35 * f["packets"]),
    Claim("Fig 12", "average growth per epoch (CV)", "~0 (close to linear)", "multicast",
          lambda f: f["growth std"] / f["growth mean"], "<= 0.5",
          lambda f: f["growth std"] <= 0.5 * f["growth mean"]),
)


@dataclass
class ClaimOutcome:
    """One claim's value and verdict on each seed, in seed order."""

    claim: Claim
    values: List[float] = field(default_factory=list)
    held: List[bool] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """The claim held on every seed (an unbounded row always holds)."""
        return all(self.held)


@dataclass
class ReproduceResult:
    """Every claim's outcome, in :data:`PAPER_CLAIMS` order."""

    config: ReproduceConfig
    outcomes: List[ClaimOutcome]

    @property
    def holds(self) -> bool:
        """Every claim held on every seed (``repro.cli`` exits 1 otherwise)."""
        return all(outcome.holds for outcome in self.outcomes)

    def report(self) -> str:
        seeds = self.config.seeds
        table = TableResult(f"Paper vs reproduction, seeds {', '.join(map(str, seeds))}",
                            ["figure", "quantity", "paper", "ours: median [min, max]", "scale",
                             "claim", "holds"])
        for outcome in self.outcomes:
            claim, stats = outcome.claim, summarize(outcome.values)
            table.add_row(**{
                "figure": claim.figure, "quantity": claim.quantity, "paper": claim.paper,
                "ours: median [min, max]":
                    f"{stats['median']:,.2f} [{stats['min']:,.2f}, {stats['max']:,.2f}]",
                "scale": EXPERIMENTS[claim.experiment][2](getattr(self.config, claim.experiment)),
                "claim": claim.check,
                "holds": "-" if claim.holds is None else f"{sum(outcome.held)}/{len(seeds)}"})
        checked = [outcome for outcome in self.outcomes if outcome.claim.holds is not None]
        failed = [f"{o.claim.figure} {o.claim.quantity}" for o in checked if not o.holds]
        return (f"{table.format()}\n\n{len(checked) - len(failed)} of {len(checked)} claims "
                "hold on every seed" + (f"; FAILED: {'; '.join(failed)}" if failed else ""))


class ReproduceExperiment:
    """Runs each experiment once per seed and tests every claim on its facts."""

    def __init__(self, config: ReproduceConfig) -> None:
        self.config = config

    def run(self) -> ReproduceResult:
        outcomes = [ClaimOutcome(claim) for claim in PAPER_CLAIMS]
        for seed in self.config.seeds:
            for name, (experiment, read_facts, _) in EXPERIMENTS.items():
                facts = read_facts(experiment(replace(getattr(self.config, name), seed=seed)).run())
                for outcome in (o for o in outcomes if o.claim.experiment == name):
                    outcome.values.append(float(outcome.claim.value(facts)))
                    if outcome.claim.holds is not None:
                        outcome.held.append(bool(outcome.claim.holds(facts)))
        return ReproduceResult(self.config, outcomes)
