"""Command-line entry point: run any of the paper's experiments.

Examples
--------
Run the insertion comparison (Figures 7-9, Table 1) at the default scale::

    python -m repro.cli insertion

Run the coding-performance measurement (Table 2) at the paper's parameters::

    python -m repro.cli coding --chunk-mb 4 --blocks 4096

Run the serve-path panels (open-loop Zipf traffic, cache on/off)::

    python -m repro.cli serve --smoke

List everything::

    python -m repro.cli --list

Subcommands are declared in the :data:`COMMANDS` table -- one
:class:`Command` per experiment, with the shared ``--scale``/``--smoke``/
``--oversub``/``--seed`` flags attached declaratively instead of another
copy-pasted ``add_parser`` block per command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.experiments.availability import PAPER_FIG10, AvailabilityExperiment
from repro.experiments.churn import PAPER_TABLE3, ChurnExperiment
from repro.experiments.coding_perf import CodingPerfConfig, run_coding_performance
from repro.experiments.condor_case_study import CondorCaseStudyConfig, run_condor_case_study
from repro.experiments.faults import (
    FINITE_CORE_FAULTS,
    PAPER_FAULTS,
    SMOKE_FAULTS,
    SMOKE_FINITE_CORE,
    FaultsExperiment,
)
from repro.experiments.multicast_replicas import MulticastConfig, MulticastExperiment
from repro.experiments.regeneration import PAPER_REPAIR, RepairExperiment
from repro.experiments.results import benchmark_summary, format_series_table
from repro.experiments.routing import PAPER_ROUTING, SMOKE_ROUTING, RoutingExperiment
from repro.experiments.serving import PAPER_SERVING, SMOKE_SERVING, ServingExperiment
from repro.experiments.soak import PAPER_SOAK, SoakExperiment
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.experiments.tenants import PAPER_TENANTS, SMOKE_TENANTS, TenantsExperiment
from repro.overlay.engine import ROUTER_ENGINES
from repro.workloads.filetrace import GB, MB


def _scaled(value: float, scale: float, floor: int) -> int:
    """``value x scale`` rounded to an integer, never below ``floor``."""
    return max(floor, int(round(value * scale)))


def _timed_run(experiment) -> Tuple[object, str]:
    """``experiment.run()`` plus the ``wall time: ...s`` line of its host seconds."""
    start = time.perf_counter()
    result = experiment.run()
    return result, f"wall time: {time.perf_counter() - start:.1f}s"


def _run_insertion(args: argparse.Namespace) -> int:
    config = InsertionConfig(
        node_count=args.nodes,
        file_count=args.files,
        seed=args.seed,
    )
    outcome = InsertionExperiment(config).run()
    print("Figure 7 — failed stores (%, final):", outcome.final_failed_stores())
    print("Figure 8 — failed data (%, final):  ", outcome.final_failed_data())
    print("Figure 9 — utilisation (%, final):  ", outcome.final_utilization())
    print()
    print("Table 1 — chunk statistics")
    for scheme in ("CFS", "Our System"):
        stats = outcome.curves[scheme].chunk_stats
        print(
            f"  {scheme:12s} chunks/file {stats.get('mean_chunks_per_file', 0):7.2f} "
            f"(sd {stats.get('std_chunks_per_file', 0):6.2f})   "
            f"chunk size {stats.get('mean_chunk_size', 0) / MB:8.2f} MB "
            f"(sd {stats.get('std_chunk_size', 0) / MB:7.2f} MB)"
        )
    return 0


def _run_fig10(args: argparse.Namespace) -> int:
    """Figure 10 at the paper's scale (10 000 nodes, 1 000 failures) by default."""
    config = replace(
        PAPER_FIG10,
        node_count=_scaled(args.nodes, args.scale, 2),
        file_count=_scaled(args.files, args.scale, 1),
        fail_fraction=args.fail_pct / 100.0,
        seed=args.seed,
    )
    series, wall = _timed_run(AvailabilityExperiment(config))
    print(
        f"Figure 10 — unavailable files (%) vs failed nodes "
        f"({config.node_count} nodes, {config.file_count} files, "
        f"{config.fail_fraction:.0%} failed, columnar ledger)"
    )
    print(format_series_table(list(series.values()), x_label="failed_nodes"))
    print(wall)
    return 0


def _run_table3(args: argparse.Namespace) -> int:
    """Table 3 at the paper's scale (10 000 nodes, 10 % and 20 % failed) by default."""
    fractions = tuple(pct / 100.0 for pct in args.fractions)
    config = replace(
        PAPER_TABLE3,
        node_count=_scaled(args.nodes, args.scale, 2),
        file_count=_scaled(args.files, args.scale, 1),
        fail_fractions=fractions,
        seed=args.seed,
    )
    table, wall = _timed_run(ChurnExperiment(config))
    print(table.format())
    print(f"{wall} ({config.node_count} nodes, {config.file_count} files, "
          "columnar ledger)")
    return 0


def _run_soak(args: argparse.Namespace) -> int:
    """Join/leave churn soak at the paper's scale (10 000 nodes, one week) by default."""
    config = replace(
        PAPER_SOAK,
        node_count=_scaled(args.nodes, args.scale, 2),
        file_count=_scaled(args.files, args.scale, 1),
        horizon_hours=args.days * 24.0,
        join_rate_per_hour=args.join_rate * args.scale,
        leave_rate_per_hour=args.leave_rate * args.scale,
        compaction=not args.no_compaction,
        leave_mode=args.leave_mode,
        bandwidth_gb_per_hour=args.bandwidth_gb_hour,
        seed=args.seed,
    )
    result, wall = _timed_run(SoakExperiment(config))
    print(result.series_table().format(float_format="{:,.2f}"))
    print()
    summary = result.summary()
    print("soak summary: " + ", ".join(f"{key}={value:,.2f}" for key, value in summary.items()))
    print(f"{wall} ({config.node_count} nodes, {config.file_count} files, "
          f"{config.horizon_hours / 24:.1f} simulated days, columnar ledger + compaction)")
    return 0


def _run_repair(args: argparse.Namespace) -> int:
    """Bandwidth-aware repair at the paper's scale (10 000 nodes) by default."""
    config = replace(
        PAPER_REPAIR,
        node_count=_scaled(args.nodes, args.scale, 2),
        file_count=_scaled(args.files, args.scale, 1),
        fail_fractions=tuple(pct / 100.0 for pct in args.fractions),
        bandwidth_mb_s=args.bandwidth,
        bandwidth_sweep_mb_s=args.bandwidth_sweep,
        failure_spacing_s=args.spacing,
        seed=args.seed,
    )
    result, wall = _timed_run(RepairExperiment(config))
    print(result.fraction_table().format(float_format="{:,.2f}"))
    print()
    print(result.bandwidth_table().format(float_format="{:,.2f}"))
    print()
    print(result.ablation_table().format(float_format="{:,.2f}"))
    print(f"{wall} ({config.node_count} nodes, {config.file_count} files, "
          "columnar ledger, fair-share transfer scheduler)")
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    """Failure-domain fault panels at the paper's scale (10 000 nodes) by default."""
    if args.smoke:
        config = replace(SMOKE_FINITE_CORE if args.oversub else SMOKE_FAULTS,
                         seed=args.seed)
    else:
        config = replace(
            FINITE_CORE_FAULTS if args.oversub else PAPER_FAULTS,
            node_count=_scaled(args.nodes, args.scale, 2),
            file_count=_scaled(args.files, args.scale, 1),
            flash_fraction=args.flash_pct / 100.0,
            bandwidth_mb_s=args.bandwidth,
            sites=args.sites,
            racks_per_site=args.racks_per_site,
            seed=args.seed,
        )
    if args.oversub:
        config = replace(config, oversubscription=args.oversub)
    result, wall = _timed_run(FaultsExperiment(config))
    print(result.durability_table().format(float_format="{:,.2f}"))
    print()
    print(result.repair_table().format(float_format="{:,.2f}"))
    if args.oversub:
        print()
        print(result.topology_table().format(float_format="{:,.2f}"))
    core = (f"{args.oversub:g}:1 oversubscribed core" if args.oversub
            else "access links only")
    print(f"{wall} ({config.node_count} nodes, {config.file_count} files, "
          f"{config.sites}x{config.racks_per_site} racks, "
          f"{config.block_replication}-copy target, {core})")
    return 0


def _run_tenants(args: argparse.Namespace) -> int:
    """Per-tenant QoS isolation panels at the paper's scale (10 000 nodes) by default."""
    if args.smoke:
        config = replace(SMOKE_TENANTS, seed=args.seed)
    else:
        config = replace(
            PAPER_TENANTS,
            node_count=_scaled(args.nodes, args.scale, 2),
            archive_files=_scaled(args.files, args.scale, 1),
            bandwidth_mb_s=args.bandwidth,
            seed=args.seed,
        )
    if args.oversub is not None:
        config = replace(config, oversubscription=args.oversub or None)
    if args.no_isolation:
        config = replace(config, storm_tenant_weight=1.0, storm_tenant_cap_mb_s=None)
    result, wall = _timed_run(TenantsExperiment(config))
    print(result.isolation_table().format(float_format="{:,.2f}"))
    print()
    print(result.slo_table().format(float_format="{:,.2f}"))
    summary = result.isolation_summary()
    print("isolation summary: "
          + ", ".join(f"{key}={value:,.2f}" for key, value in summary.items()))
    print(f"{wall} ({config.node_count} nodes, "
          f"{config.archive_files} archive files, "
          f"{config.oversubscription or 0:g}:1 core, "
          f"storm weight {config.storm_tenant_weight:g})")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve-path panels at the paper's scale (10 000 nodes) by default."""
    config = SMOKE_SERVING if args.smoke else PAPER_SERVING
    if not args.smoke:
        config = replace(
            config,
            node_count=_scaled(args.nodes, args.scale, 2),
            catalog_files=_scaled(args.files, args.scale, 1),
            request_rate=args.rate,
            duration_s=args.duration,
            client_count=args.clients,
            cache_mb=args.cache_mb,
        )
    config = replace(config, seed=args.seed)
    if args.zipf:
        config = replace(config,
                         zipf_sweep=tuple(float(value) for value in args.zipf.split(",")))
    if args.no_cache:
        config = replace(config, cache_modes=(False,))
    if args.oversub is not None:
        config = replace(config, oversubscription=args.oversub or None)
    result, wall = _timed_run(ServingExperiment(config))
    print(result.table().format(float_format="{:,.2f}"))
    summary = result.summary()
    print("serving summary: "
          + ", ".join(f"{key}={value:,.2f}" for key, value in summary.items()))
    print(f"{wall} ({config.node_count} nodes, "
          f"{config.catalog_files} catalog files, "
          f"{config.oversubscription or 0:g}:1 core, "
          f"{config.cache_mb:g} MB/gateway cache)")
    return 0


def _run_coding(args: argparse.Namespace) -> int:
    config = CodingPerfConfig(chunk_size=int(args.chunk_mb * MB), blocks_per_chunk=args.blocks)
    print(run_coding_performance(config).format())
    return 0


def _run_multicast(args: argparse.Namespace) -> int:
    config = MulticastConfig(seed=args.seed, node_count=args.nodes,
                             replica_count=args.replicas)
    experiment = MulticastExperiment(config)
    if config.node_count > 0:
        tree = experiment._build_tree()
        print(f"dissemination tree routed over {config.node_count} overlay nodes: "
              f"{len(tree)} vertices, height {tree.height()}, "
              f"{len(tree.leaves())} leaves")
    sweep = experiment.run_ransub_sweep()
    print("Figure 11 — epochs to full dissemination per RanSub size")
    for fraction, series in sorted(sweep.items()):
        print(f"  RanSub {fraction:5.0%}: {len(series):4d} epochs")
    minimum, average, maximum = experiment.run_saturation()
    print("Figure 12 — final min/avg/max packets per node:",
          minimum.final(), average.final(), maximum.final())
    return 0


def _run_routing(args: argparse.Namespace) -> int:
    """Routing-fabric panels at the paper's scale (10 000 nodes) by default."""
    config = SMOKE_ROUTING if args.smoke else PAPER_ROUTING
    if not args.smoke and args.scale != 1.0:
        config = replace(
            config,
            population_sweep=tuple(
                _scaled(nodes, args.scale, 16)
                for nodes in config.population_sweep),
            churn_nodes=_scaled(config.churn_nodes, args.scale, 32),
            lookups=_scaled(config.lookups, args.scale, 50),
            churn_lookups=_scaled(config.churn_lookups, args.scale, 50),
        )
    config = replace(config, seed=args.seed)
    if args.engines:
        config = replace(config, engines=args.engines)
    if args.lookups is not None:
        config = replace(config, lookups=args.lookups)
    result, wall = _timed_run(RoutingExperiment(config))
    print(result.panel_table().format(float_format="{:,.2f}"))
    print()
    print(result.churn_table().format(float_format="{:,.2f}"))
    summary = result.summary()
    print("routing summary: "
          + ", ".join(f"{key}={value:,.2f}" for key, value in summary.items()))
    print(f"{wall} (sweep {config.population_sweep}, "
          f"{config.lookups} lookups/cell, engines {', '.join(config.engines)})")
    return 0


def _run_condor(args: argparse.Namespace) -> int:
    sizes = tuple(int(size * GB) for size in args.sizes)
    config = CondorCaseStudyConfig(file_sizes=sizes, seed=args.seed)
    print(run_condor_case_study(config).format(float_format="{:.1f}"))
    return 0


def _repo_root() -> Path:
    """The repository checkout containing the ``benchmarks/`` suite."""
    return Path(__file__).resolve().parents[2]


def _run_bench(args: argparse.Namespace) -> int:
    """Run the ``-m bench`` suite and merge/refresh the BENCH_*.json records.

    The benchmark session hooks (``benchmarks/conftest.py``) rewrite each
    ``BENCH_*.json`` only from a clean, complete run of its own module, so a
    filtered (``--select``) or failed run never clobbers the other records.
    """
    root = _repo_root()
    if not (root / "benchmarks").is_dir():
        print(f"benchmarks/ suite not found under {root}", file=sys.stderr)
        return 2
    if not args.summary_only:
        command = [sys.executable, "-m", "pytest", "benchmarks", "-m", "bench", "-q"]
        if args.select:
            command += ["-k", args.select]
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = subprocess.call(command, cwd=root, env=env)
        if code != 0:
            return code
    print()
    print(benchmark_summary(root))
    return 0


# --------------------------------------------------------------- registration --
@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call: positional flags plus keyword options."""

    flags: Tuple[str, ...]
    options: dict


def _arg(*flags: str, **options) -> Arg:
    return Arg(flags=flags, options=options)


def _checked(cast: Callable, accept: Callable[..., bool], what: str) -> Callable:
    """An argparse ``type=``: ``cast`` the text, then reject what ``accept`` refuses.

    Bad input is then argparse's usage error (exit 2), not a traceback from
    deep inside an experiment.
    """

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _comma_list(item: Callable) -> Callable:
    """An argparse ``type=`` for a comma-separated list, ``item`` applied to each entry."""
    return lambda text: tuple(item(part) for part in text.split(","))


_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
_positive_float = _checked(float, lambda value: value > 0, "a positive number")
_percent = _checked(float, lambda value: 0 <= value <= 100, "a percentage in [0, 100]")
_oversub_ratio = _checked(float, lambda value: value == 0 or value >= 1,
                          "0 (access links only) or a ratio >= 1")
_engine_name = _checked(str.strip, ROUTER_ENGINES.__contains__,
                        "one of " + ", ".join(sorted(ROUTER_ENGINES)))
_size_gb = _checked(float, lambda value: value >= 0, "a size in GB >= 0")


_DEFAULT_SCALE_HELP = "multiply nodes and files by this factor (e.g. 0.1)"
_SMOKE_HELP = "run the fixed tier-1 smoke configuration (seconds)"


@dataclass(frozen=True)
class Command:
    """One subcommand: handler, per-command args, shared-flag opt-ins.

    ``scale``/``oversub`` carry the flag's help text when the command takes
    it (``None`` omits the flag); ``smoke`` opts into the shared ``--smoke``
    flag; ``seed`` is the command's default seed (``None`` omits ``--seed``).
    """

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    args: Tuple[Arg, ...] = ()
    scale: Optional[str] = None
    smoke: bool = False
    oversub: Optional[str] = None
    seed: Optional[int] = None


COMMANDS: Tuple[Command, ...] = (
    Command(
        "insertion", "Figures 7-9 and Table 1", _run_insertion,
        args=(_arg("--nodes", type=_positive_int, default=200),
              _arg("--files", type=int, default=None)),
        seed=1,
    ),
    Command(
        "fig10", "Figure 10 at paper scale (10 000 nodes / 1 000 failures)",
        _run_fig10,
        args=(_arg("--nodes", type=int, default=PAPER_FIG10.node_count),
              _arg("--files", type=int, default=PAPER_FIG10.file_count),
              _arg("--fail-pct", type=_percent, default=10.0,
                   help="percent of the population failed one by one")),
        scale=_DEFAULT_SCALE_HELP,
        seed=PAPER_FIG10.seed,
    ),
    Command(
        "table3", "Table 3 at paper scale (10 000 nodes, 10 %% and 20 %% failed)",
        _run_table3,
        args=(_arg("--nodes", type=int, default=PAPER_TABLE3.node_count),
              _arg("--files", type=int, default=PAPER_TABLE3.file_count),
              _arg("--fractions", type=_comma_list(_percent), default="10,20",
                   help="comma-separated failure percentages")),
        scale=_DEFAULT_SCALE_HELP,
        seed=PAPER_TABLE3.seed,
    ),
    Command(
        "soak",
        "join/leave churn soak (paper scale: 10 000 nodes, one simulated week)",
        _run_soak,
        args=(_arg("--nodes", type=int, default=PAPER_SOAK.node_count),
              _arg("--files", type=int, default=PAPER_SOAK.file_count),
              _arg("--days", type=float, default=PAPER_SOAK.horizon_hours / 24.0,
                   help="simulated soak length in days"),
              _arg("--join-rate", type=float, default=PAPER_SOAK.join_rate_per_hour,
                   help="fresh-node joins per simulated hour (before --scale)"),
              _arg("--leave-rate", type=float, default=PAPER_SOAK.leave_rate_per_hour,
                   help="graceful departures per simulated hour (before --scale)"),
              _arg("--no-compaction", action="store_true",
                   help="disable the periodic ledger compaction pass"),
              _arg("--leave-mode", type=str, default=PAPER_SOAK.leave_mode,
                   choices=("regenerate", "migrate"),
                   help="graceful departures regenerate from redundancy or "
                        "migrate their blocks out over their uplink"),
              _arg("--bandwidth-gb-hour", type=float, default=None,
                   help="per-node link capacity in GB per simulated hour "
                        "(default: unconstrained, instantaneous repair)")),
        scale="multiply nodes, files and churn rates by this factor (e.g. 0.1)",
        seed=PAPER_SOAK.seed,
    ),
    Command(
        "repair",
        "bandwidth-aware repair: time-to-repair and traffic curves, "
        "migration-vs-regeneration ablation (paper scale: 10 000 nodes)",
        _run_repair,
        args=(_arg("--nodes", type=int, default=PAPER_REPAIR.node_count),
              _arg("--files", type=int, default=PAPER_REPAIR.file_count),
              _arg("--fractions", type=_comma_list(_percent), default="2,5,10",
                   help="comma-separated failure percentages for the sweep"),
              _arg("--bandwidth", type=_positive_float, default=PAPER_REPAIR.bandwidth_mb_s,
                   help="per-node link capacity in MB per simulated second"),
              _arg("--bandwidth-sweep", type=_comma_list(_positive_float), default="4,8,16",
                   help="comma-separated bandwidths for the bandwidth panel"),
              _arg("--spacing", type=float, default=PAPER_REPAIR.failure_spacing_s,
                   help="simulated seconds between consecutive failures")),
        scale=_DEFAULT_SCALE_HELP,
        seed=PAPER_REPAIR.seed,
    ),
    Command(
        "faults",
        "failure-domain fault panels: site/rack outages, flash crowd, "
        "rolling restart, degraded links (paper scale: 10 000 nodes)",
        _run_faults,
        args=(_arg("--nodes", type=int, default=PAPER_FAULTS.node_count),
              _arg("--files", type=int, default=PAPER_FAULTS.file_count),
              _arg("--flash-pct", type=float,
                   default=100.0 * PAPER_FAULTS.flash_fraction,
                   help="percent of the population downed by the flash crowd"),
              _arg("--bandwidth", type=_positive_float, default=PAPER_FAULTS.bandwidth_mb_s,
                   help="per-node link capacity in MB per simulated second"),
              _arg("--sites", type=int, default=PAPER_FAULTS.sites,
                   help="failure-domain sites in the grid"),
              _arg("--racks-per-site", type=int, default=PAPER_FAULTS.racks_per_site)),
        scale=_DEFAULT_SCALE_HELP,
        smoke=True,
        oversub="finite two-stage core: trunks carry the members' "
                "aggregate access bandwidth / RATIO (adds the "
                "recovery-storm panel and the topology table)",
        seed=PAPER_FAULTS.seed,
    ),
    Command(
        "tenants",
        "per-tenant QoS isolation: the noisy-neighbor storm suite "
        "(paper scale: 10 000 nodes, 4 tenants, 4:1 core)",
        _run_tenants,
        args=(_arg("--nodes", type=int, default=PAPER_TENANTS.node_count),
              _arg("--files", type=int, default=PAPER_TENANTS.archive_files,
                   help="archive-tenant corpus size (files)"),
              _arg("--bandwidth", type=_positive_float, default=PAPER_TENANTS.bandwidth_mb_s,
                   help="per-node link capacity in MB per simulated second"),
              _arg("--no-isolation", action="store_true",
                   help="drop the storm tenant's weight/cap in every "
                        "scenario (storm_isolated degenerates to open)")),
        scale="multiply nodes and archive files by this factor",
        smoke=True,
        oversub="two-stage core oversubscription ratio "
                "(default 4:1; 0 = access links only)",
        seed=PAPER_TENANTS.seed,
    ),
    Command(
        "serve",
        "serve path: open-loop Zipf traffic, per-gateway block caches, "
        "hot-file replication (paper scale: 10 000 nodes)",
        _run_serve,
        args=(_arg("--nodes", type=int, default=PAPER_SERVING.node_count),
              _arg("--files", type=int, default=PAPER_SERVING.catalog_files,
                   help="served catalog size (files)"),
              _arg("--rate", type=float, default=PAPER_SERVING.request_rate,
                   help="offered request rate (requests per simulated second)"),
              _arg("--duration", type=float, default=PAPER_SERVING.duration_s,
                   help="open-loop arrival window in simulated seconds"),
              _arg("--zipf", type=str, default=None,
                   help="comma-separated Zipf skew values (default 0.8,1.1)"),
              _arg("--clients", type=int, default=PAPER_SERVING.client_count,
                   help="front-end gateway nodes requests fan out over"),
              _arg("--cache-mb", type=float, default=PAPER_SERVING.cache_mb,
                   help="per-gateway LRU block-cache budget in MB"),
              _arg("--no-cache", action="store_true",
                   help="run only the direct (cache-off) cells")),
        scale="multiply nodes and catalog files by this factor",
        smoke=True,
        oversub="two-stage core oversubscription ratio "
                "(default 4:1; 0 = access links only)",
        seed=PAPER_SERVING.seed,
    ),
    Command(
        "coding", "Table 2", _run_coding,
        args=(_arg("--chunk-mb", type=_positive_float, default=1.0),
              _arg("--blocks", type=_positive_int, default=512)),
    ),
    Command(
        "multicast", "Figures 11 and 12", _run_multicast,
        args=(_arg("--nodes", type=int, default=0,
                   help="overlay size to route the dissemination tree over "
                        "(0 = the paper's synthetic binary tree)"),
              _arg("--replicas", type=int, default=32,
                   help="replica holders reached through the overlay "
                        "(only with --nodes > 0)")),
        seed=5,
    ),
    Command(
        "routing",
        "routing fabric: batched Pastry/Chord lookups, hops vs N, churn "
        "head-to-head (paper scale: 10 000 nodes)",
        _run_routing,
        args=(_arg("--engines", type=_comma_list(_engine_name), default=None,
                   help="comma-separated engines (default pastry,chord)"),
              _arg("--lookups", type=int, default=None,
                   help="batched lookups per (size, engine) cell")),
        scale="multiply sweep populations and lookup counts by this factor",
        smoke=True,
        seed=PAPER_ROUTING.seed,
    ),
    Command(
        "condor", "Table 4", _run_condor,
        args=(_arg("--sizes", type=_comma_list(_size_gb), default="1,2,4,8,16,32,64,128",
                   help="comma-separated file sizes in GB"),),
        seed=6,
    ),
    Command(
        "bench",
        "run the -m bench suite and update the BENCH_*.json trajectory",
        _run_bench,
        args=(_arg("--select", type=str, default=None,
                   help="pytest -k expression to run a subset of the benchmarks"),
              _arg("--summary-only", action="store_true",
                   help="skip running; just print the recorded BENCH_*.json summary")),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from the :data:`COMMANDS` table."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    subparsers = parser.add_subparsers(dest="experiment")
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        for arg in command.args:
            sub.add_argument(*arg.flags, **arg.options)
        if command.scale is not None:
            sub.add_argument("--scale", type=float, default=1.0, help=command.scale)
        if command.smoke:
            sub.add_argument("--smoke", action="store_true", help=_SMOKE_HELP)
        if command.oversub is not None:
            sub.add_argument("--oversub", type=_oversub_ratio, default=None, metavar="RATIO",
                            help=command.oversub)
        if command.seed is not None:
            sub.add_argument("--seed", type=int, default=command.seed)
        sub.set_defaults(func=command.handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        names = ", ".join(command.name for command in COMMANDS)
        print(f"Available experiments: {names}")
        return 0
    handler: Callable[[argparse.Namespace], int] = args.func
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
