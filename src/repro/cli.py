"""Command-line entry point: run any of the paper's experiments.

    python -m repro.cli --list                   # every subcommand
    python -m repro.cli fig10 --scale 0.05       # Figure 10 at 500 nodes
    python -m repro.cli coding --chunk-mb 4 --blocks 4096   # Table 2, paper size
    python -m repro.cli serve --smoke            # the serve panels in seconds
    python -m repro.cli reproduce                # every paper claim, seeds 1-5

Every subcommand is one :class:`Command` of the :data:`COMMANDS` table and
runs through :func:`_run`: the command's preset (``SMOKE_*`` under
``--smoke``, else ``PAPER_*``) is the only source of defaults, each flag the
user gives sets the config field it names, ``--scale`` goes through the
config's ``scaled()``, and the result prints its own ``report()``.  A result
with a ``holds`` verdict (``reproduce``'s) exits 1 when it is false.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.experiments.coding_perf import CodingPerfConfig, CodingPerfExperiment
from repro.experiments.condor_case_study import CondorCaseStudyConfig, CondorCaseStudyExperiment
from repro.experiments.failure_sweep import (
    PAPER_FIG10,
    PAPER_REPAIR,
    PAPER_TABLE3,
    FailureSweepExperiment,
)
from repro.experiments.faults import (
    FINITE_CORE_FAULTS,
    PAPER_FAULTS,
    SMOKE_FAULTS,
    SMOKE_FINITE_CORE,
    FaultsExperiment,
)
from repro.experiments.multicast_replicas import MulticastConfig, MulticastExperiment
from repro.experiments.paper import PAPER_REPRODUCE, SMOKE_REPRODUCE, ReproduceExperiment
from repro.experiments.routing import PAPER_ROUTING, SMOKE_ROUTING, RoutingExperiment
from repro.experiments.serving import PAPER_SERVING, SMOKE_SERVING, ServingExperiment
from repro.experiments.soak import PAPER_SOAK, SoakExperiment
from repro.experiments.storage_insertion import InsertionConfig, InsertionExperiment
from repro.experiments.tenants import PAPER_TENANTS, SMOKE_TENANTS, TenantsExperiment
from repro.overlay.engine import ROUTER_ENGINES
from repro.workloads.filetrace import GB, MB


# ---------------------------------------------------------------- flag types --
def _checked(cast: Callable, accept: Callable[..., bool], what: str) -> Callable:
    """An argparse ``type=``: ``cast`` the text, then reject what ``accept`` refuses.

    Bad input (non-finite numbers included) is then argparse's usage error
    (exit 2), not a traceback from deep inside an experiment.
    """

    def parse(text: str):
        try:
            value = cast(text)
            ok = (not isinstance(value, float) or math.isfinite(value)) and accept(value)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _comma_list(item: Callable) -> Callable:
    """An argparse ``type=`` for a comma-separated list, ``item`` applied to each entry."""
    return lambda text: tuple(item(part) for part in text.split(","))


_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
_count = _checked(int, lambda value: value >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda value: value > 0, "a positive number")
_non_negative = _checked(float, lambda value: value >= 0, "a number >= 0")
#: A percentage on the command line, the fraction it stands for in the config.
_percent = _checked(lambda text: float(text) / 100.0, lambda value: 0 <= value <= 1,
                    "a percentage in [0, 100]")
_positive_percent = _checked(lambda text: float(text) / 100.0, lambda value: 0 < value <= 1,
                             "a percentage in (0, 100]")
_days_as_hours = _checked(lambda text: float(text) * 24.0, lambda value: value > 0,
                          "a positive number of days")
_mb_as_bytes = _checked(lambda text: int(float(text) * MB), lambda value: value > 0,
                        "a positive size in MB")
_gb_as_bytes = _checked(lambda text: int(float(text) * GB), lambda value: value >= 0,
                        "a size in GB >= 0")
#: ``0`` (access links only) is the config's ``None``.
_oversub_ratio = _checked(lambda text: float(text) or None,
                          lambda value: value is None or value >= 1,
                          "0 (access links only) or a ratio >= 1")
_engine_name = _checked(str.strip, ROUTER_ENGINES.__contains__,
                        "one of " + ", ".join(sorted(ROUTER_ENGINES)))


def _seeds(text: str) -> tuple:
    """``3``, or the inclusive range ``1-5``, as the seeds it names."""
    first, _, last = text.partition("-")
    return tuple(range(int(first), int(last or first) + 1))


_seed_range = _checked(_seeds, lambda seeds: len(seeds) > 0 and seeds[0] >= 0,
                       "a seed or a range of seeds like 1-5")


class _StoreFields(argparse.Action):
    """A switch that sets several config fields at once."""

    def __init__(self, option_strings, dest, fields, **kwargs) -> None:
        super().__init__(option_strings, dest, nargs=0, **kwargs)
        self.fields = fields

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        for name, value in self.fields.items():
            setattr(namespace, name, value)


# -------------------------------------------------------------- registration --
def _arg(flag: str, dest: str, **options) -> Tuple[str, str, dict]:
    """One ``add_argument`` call: the flag, the config field it sets, options."""
    return flag, dest, options


@dataclass(frozen=True)
class Command:
    """One subcommand: its experiment, presets, flags and shared-flag opt-ins.

    ``paper`` is the config run when no flag is given; ``smoke`` (the
    ``--smoke`` preset) opts into that flag; ``finite_core`` is the
    ``(paper, smoke)`` pair used instead when ``--oversub`` gives a ratio.
    ``scale``/``oversub`` carry the flag's help text when the command takes
    it, ``note`` words the run after its wall time.
    """

    name: str
    help: str
    experiment: Optional[Callable] = None
    paper: object = None
    args: Tuple[tuple, ...] = ()
    smoke: object = None
    finite_core: Optional[Tuple[object, object]] = None
    scale: Optional[str] = None
    oversub: Optional[str] = None
    seed: bool = True
    note: Optional[Callable[[object], str]] = None

    def shared_args(self) -> Tuple[tuple, ...]:
        """The ``--scale``/``--smoke``/``--oversub``/``--seed`` flags it opts into."""
        shared = []
        if self.scale is not None:
            shared.append(_arg("--scale", "scale", type=_positive_float, help=self.scale))
        if self.smoke is not None:
            shared.append(_arg("--smoke", "smoke", action="store_true",
                               help="run the fixed tier-1 smoke configuration (seconds)"))
        if self.oversub is not None:
            shared.append(_arg("--oversub", "oversubscription", type=_oversub_ratio,
                               metavar="RATIO", help=self.oversub))
        if self.seed:
            shared.append(_arg("--seed", "seed", type=_count))
        return tuple(shared)


# ------------------------------------------------------------------- drivers --
def _run(command: Command, args: argparse.Namespace) -> int:
    """Preset, the given flags, ``--scale``; run; print the report and wall time."""
    fields = {name: value for name, value in vars(args).items()
              if name not in ("list", "experiment", "func", "scale", "smoke")}
    presets = (command.finite_core if command.finite_core and fields.get("oversubscription")
               else (command.paper, command.smoke))
    config = replace(presets[getattr(args, "smoke", False)], **fields)
    if hasattr(args, "scale"):
        config = config.scaled(args.scale)
    start = time.perf_counter()
    result = command.experiment(config).run()
    seconds = time.perf_counter() - start
    print(result.report())
    print(f"wall time: {seconds:.1f}s" + (f" ({command.note(config)})" if command.note else ""))
    return 0 if getattr(result, "holds", True) else 1


_NODES = _arg("--nodes", "node_count", type=_positive_int)
_FILES = _arg("--files", "file_count", type=_positive_int)
_BANDWIDTH = _arg("--bandwidth", "bandwidth_mb_s", type=_positive_float,
                  help="per-node link capacity in MB per simulated second")
_SCALE_HELP = "multiply nodes and files by this factor (e.g. 0.1)"
_CORE_HELP = "two-stage core oversubscription ratio (default 4:1; 0 = access links only)"

COMMANDS: Tuple[Command, ...] = (
    Command(
        "insertion", "Figures 7-9 and Table 1", InsertionExperiment, InsertionConfig(),
        args=(_NODES, _FILES),
    ),
    Command(
        "fig10", "Figure 10 at paper scale (10 000 nodes / 1 000 failures)",
        FailureSweepExperiment, PAPER_FIG10,
        args=(_NODES, _FILES,
              _arg("--fail-pct", "fail_fractions", type=_comma_list(_percent),
                   help="percent of the population failed one by one "
                        "(of a comma-separated list, the largest)")),
        scale=_SCALE_HELP,
    ),
    Command(
        "table3", "Table 3 at paper scale (10 000 nodes, 10 %% and 20 %% failed)",
        FailureSweepExperiment, PAPER_TABLE3,
        args=(_NODES, _FILES,
              _arg("--fractions", "fail_fractions", type=_comma_list(_percent),
                   help="comma-separated failure percentages")),
        scale=_SCALE_HELP,
        note=lambda c: f"{c.node_count} nodes, {c.file_count} files, columnar ledger",
    ),
    Command(
        "soak",
        "join/leave churn soak (paper scale: 10 000 nodes, one simulated week)",
        SoakExperiment, PAPER_SOAK,
        args=(_NODES, _FILES,
              _arg("--days", "horizon_hours", type=_days_as_hours,
                   help="simulated soak length in days"),
              _arg("--join-rate", "join_rate_per_hour", type=_non_negative,
                   help="fresh-node joins per simulated hour (before --scale)"),
              _arg("--leave-rate", "leave_rate_per_hour", type=_non_negative,
                   help="graceful departures per simulated hour (before --scale)"),
              _arg("--no-compaction", "compaction", action="store_false",
                   help="disable the periodic ledger compaction pass"),
              _arg("--leave-mode", "leave_mode", choices=("regenerate", "migrate"),
                   help="graceful departures regenerate from redundancy or "
                        "migrate their blocks out over their uplink"),
              _arg("--bandwidth-gb-hour", "bandwidth_gb_per_hour", type=_positive_float,
                   help="per-node link capacity in GB per simulated hour "
                        "(default: unconstrained, instantaneous repair)")),
        scale="multiply nodes, files and churn rates by this factor (e.g. 0.1)",
        note=lambda c: (f"{c.node_count} nodes, {c.file_count} files, {c.horizon_hours / 24:.1f} "
                        "simulated days, columnar ledger + compaction"),
    ),
    Command(
        "repair",
        "bandwidth-aware repair: time-to-repair and traffic curves, "
        "migration-vs-regeneration ablation (paper scale: 10 000 nodes)",
        FailureSweepExperiment, PAPER_REPAIR,
        args=(_NODES, _FILES,
              _arg("--fractions", "fail_fractions", type=_comma_list(_percent),
                   help="comma-separated failure percentages for the sweep"),
              _BANDWIDTH,
              _arg("--bandwidth-sweep", "bandwidth_sweep_mb_s",
                   type=_comma_list(_positive_float),
                   help="comma-separated bandwidths for the bandwidth panel"),
              _arg("--spacing", "failure_spacing_s", type=_positive_float,
                   help="simulated seconds between consecutive failures")),
        scale=_SCALE_HELP,
        note=lambda c: (f"{c.node_count} nodes, {c.file_count} files, columnar ledger, "
                        "fair-share transfer scheduler"),
    ),
    Command(
        "faults",
        "failure-domain fault panels: site/rack outages, flash crowd, "
        "rolling restart, degraded links (paper scale: 10 000 nodes)",
        FaultsExperiment, PAPER_FAULTS,
        args=(_NODES, _FILES,
              _arg("--flash-pct", "flash_fraction", type=_positive_percent,
                   help="percent of the population downed by the flash crowd"),
              _BANDWIDTH,
              _arg("--sites", "sites", type=_positive_int,
                   help="failure-domain sites in the grid"),
              _arg("--racks-per-site", "racks_per_site", type=_positive_int)),
        smoke=SMOKE_FAULTS,
        finite_core=(FINITE_CORE_FAULTS, SMOKE_FINITE_CORE),
        scale=_SCALE_HELP,
        oversub="finite two-stage core: trunks carry the members' "
                "aggregate access bandwidth / RATIO (adds the "
                "recovery-storm panel and the topology table)",
        note=lambda c: (f"{c.node_count} nodes, {c.file_count} files, {c.sites}x{c.racks_per_site} "
                        f"racks, {c.block_replication}-copy target, "
                        + (f"{c.oversubscription:g}:1 oversubscribed core"
                           if c.oversubscription else "access links only")),
    ),
    Command(
        "tenants",
        "per-tenant QoS isolation: the noisy-neighbor storm suite "
        "(paper scale: 10 000 nodes, 4 tenants, 4:1 core)",
        TenantsExperiment, PAPER_TENANTS,
        args=(_NODES,
              _arg("--files", "archive_files", type=_positive_int,
                   help="archive-tenant corpus size (files)"),
              _BANDWIDTH,
              _arg("--no-isolation", "storm_tenant_weight", action=_StoreFields,
                   fields={"storm_tenant_weight": 1.0, "storm_tenant_cap_mb_s": None},
                   help="drop the storm tenant's weight/cap in every "
                        "scenario (storm_isolated degenerates to open)")),
        smoke=SMOKE_TENANTS,
        scale="multiply nodes and archive files by this factor",
        oversub=_CORE_HELP,
        note=lambda c: (f"{c.node_count} nodes, {c.archive_files} archive files, "
                        f"{c.oversubscription or 0:g}:1 core, "
                        f"storm weight {c.storm_tenant_weight:g}"),
    ),
    Command(
        "serve",
        "serve path: open-loop Zipf traffic, per-gateway block caches, "
        "hot-file replication (paper scale: 10 000 nodes)",
        ServingExperiment, PAPER_SERVING,
        args=(_NODES,
              _arg("--files", "catalog_files", type=_positive_int,
                   help="served catalog size (files)"),
              _arg("--rate", "request_rate", type=_positive_float,
                   help="offered request rate (requests per simulated second)"),
              _arg("--duration", "duration_s", type=_positive_float,
                   help="open-loop arrival window in simulated seconds"),
              _arg("--zipf", "zipf_sweep", type=_comma_list(_non_negative),
                   help="comma-separated Zipf skew values"),
              _arg("--clients", "client_count", type=_positive_int,
                   help="front-end gateway nodes requests fan out over"),
              _arg("--cache-mb", "cache_mb", type=_positive_float,
                   help="per-gateway LRU block-cache budget in MB"),
              _arg("--no-cache", "cache_modes", action="store_const", const=(False,),
                   help="run only the direct (cache-off) cells")),
        smoke=SMOKE_SERVING,
        scale="multiply nodes and catalog files by this factor",
        oversub=_CORE_HELP,
        note=lambda c: (f"{c.node_count} nodes, {c.catalog_files} catalog files, "
                        f"{c.oversubscription or 0:g}:1 core, {c.cache_mb:g} MB/gateway cache"),
    ),
    Command(
        "coding", "Table 2", CodingPerfExperiment, CodingPerfConfig(),
        args=(_arg("--chunk-mb", "chunk_size", type=_mb_as_bytes),
              _arg("--blocks", "blocks_per_chunk", type=_positive_int)),
        seed=False,
    ),
    Command(
        "multicast", "Figures 11 and 12", MulticastExperiment, MulticastConfig(),
        args=(_arg("--nodes", "node_count", type=_count,
                   help="overlay size to route the dissemination tree over "
                        "(0 = the paper's synthetic binary tree)"),
              _arg("--replicas", "replica_count", type=_positive_int,
                   help="replica holders reached through the overlay "
                        "(only with --nodes > 0)")),
    ),
    Command(
        "routing",
        "routing fabric: batched Pastry/Chord lookups, hops vs N, churn "
        "head-to-head (paper scale: 10 000 nodes)",
        RoutingExperiment, PAPER_ROUTING,
        args=(_arg("--engines", "engines", type=_comma_list(_engine_name),
                   help="comma-separated engines"),
              _arg("--lookups", "lookups", type=_positive_int,
                   help="batched lookups per (size, engine) cell")),
        smoke=SMOKE_ROUTING,
        scale="multiply sweep populations and lookup counts by this factor",
        note=lambda c: (f"sweep {c.population_sweep}, {c.lookups} lookups/cell, "
                        f"engines {', '.join(c.engines)}"),
    ),
    Command(
        "condor", "Table 4", CondorCaseStudyExperiment, CondorCaseStudyConfig(),
        args=(_arg("--sizes", "file_sizes", type=_comma_list(_gb_as_bytes),
                   help="comma-separated file sizes in GB"),),
    ),
    Command(
        "reproduce",
        "every number of the paper's Figures 7-12 and Tables 1-4 beside ours, "
        "per seed (exit 1 if a claim fails on any seed)",
        ReproduceExperiment, PAPER_REPRODUCE,
        args=(_arg("--seeds", "seeds", type=_seed_range,
                   help="run every experiment once per seed, e.g. 1-5"),),
        smoke=SMOKE_REPRODUCE,
        seed=False,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`: absent flags set nothing; ``--help`` shows presets."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    subparsers = parser.add_subparsers(dest="experiment")
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        for flag, dest, options in command.args + command.shared_args():
            options = dict({"default": argparse.SUPPRESS}, **options)
            if "action" not in options and "choices" not in options:
                options.setdefault("metavar", flag[2:].upper().replace("-", "_"))
            if hasattr(command.paper, dest):
                preset = f"{dest} = {getattr(command.paper, dest)!r}".replace("%", "%%")
                options["help"] = f"{options.get('help', '')} [preset: {preset}]".lstrip()
            sub.add_argument(flag, dest=dest, **options)
        sub.set_defaults(func=partial(_run, command))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list or args.experiment is None:
        names = ", ".join(command.name for command in COMMANDS)
        print(f"Available experiments: {names}")
        return 0
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
