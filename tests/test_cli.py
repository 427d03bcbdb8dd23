"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_list_option_exits_cleanly(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "insertion" in out and "condor" in out


def test_no_arguments_prints_help_list(capsys):
    assert main([]) == 0
    assert "Available experiments" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[]] + [[command.name] for command in COMMANDS])
def test_help_renders_for_every_command(argv, capsys):
    """argparse %-formats help strings: a bare ``%`` in any of them crashes here."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_parser_knows_all_experiments():
    parser = build_parser()
    for name in ("insertion", "availability", "coding", "churn", "soak", "faults",
                 "tenants", "serve", "routing", "multicast", "condor"):
        args = parser.parse_args([name])
        assert args.experiment == name
        assert callable(args.func)


def test_parser_knows_bench_subcommand():
    parser = build_parser()
    args = parser.parse_args(["bench", "--select", "insertion", "--summary-only"])
    assert args.experiment == "bench"
    assert args.select == "insertion"
    assert args.summary_only
    assert callable(args.func)


def test_bench_summary_only_prints_trajectory(capsys):
    # --summary-only must not launch pytest; it renders whatever BENCH_*.json
    # records exist (or says how to create them).
    assert main(["bench", "--summary-only"]) == 0
    out = capsys.readouterr().out
    assert "BENCH" in out or "throughput" in out


def test_coding_command_runs(capsys):
    assert main(["coding", "--chunk-mb", "0.25", "--blocks", "64"]) == 0
    out = capsys.readouterr().out
    assert "Null" in out and "Online" in out


@pytest.mark.parametrize("argv", [["--blocks", "0"], ["--blocks", "-3"],
                                  ["--chunk-mb", "0"], ["--chunk-mb", "-1.5"]])
def test_coding_rejects_non_positive_sizes_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["coding"] + argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be a positive" in err


def test_multicast_command_runs(capsys):
    assert main(["multicast", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out and "Figure 12" in out


def test_availability_command_runs_small(capsys):
    assert main(["availability", "--nodes", "60", "--files", "150", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10" in out and "Online code" in out


def test_condor_command_runs_small(capsys):
    assert main(["condor", "--sizes", "1,16", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "bigCopy" in out


def test_churn_command_runs_small(capsys):
    assert main(["churn", "--nodes", "50", "--files", "120", "--seed", "4"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_soak_command_runs_small(capsys):
    assert main([
        "soak", "--scale", "0.01", "--days", "1", "--seed", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "churn soak" in out and "soak summary" in out and "ledger_rows" in out


def test_soak_scalar_flag_is_rejected(capsys):
    """The seed path is gone from the CLI: ``--scalar`` is a usage error."""
    with pytest.raises(SystemExit) as excinfo:
        main(["soak", "--scale", "0.01", "--days", "0.5", "--scalar", "--seed", "6"])
    assert excinfo.value.code == 2
    assert "--scalar" in capsys.readouterr().err


def test_faults_smoke_runs_every_scenario(capsys):
    """The tier-1 smoke: every fault scenario end to end in seconds."""
    assert main(["faults", "--smoke"]) == 0
    out = capsys.readouterr().out
    for scenario in ("site_outage", "rack_outage", "flash_crowd",
                     "flash_crowd_unrepaired", "rolling_restart",
                     "degraded_rack_outage"):
        assert scenario in out
    assert "durability" in out and "read census" in out
    # The loss-free rack-outage oracle survives the CLI path end to end.
    assert "wall time" in out


def test_tenants_smoke_runs_every_scenario(capsys):
    """The tier-1 smoke: all three QoS scenarios end to end in seconds."""
    assert main(["tenants", "--smoke"]) == 0
    out = capsys.readouterr().out
    for scenario in ("baseline", "storm_isolated", "storm_open"):
        assert scenario in out
    for tenant in ("archive", "medimg", "grid", "cdn"):
        assert tenant in out
    assert "Noisy-neighbor storm" in out and "Per-tenant SLOs" in out
    assert "isolation summary" in out and "wall time" in out


def test_parser_knows_serve_flags():
    parser = build_parser()
    args = parser.parse_args(["serve", "--smoke", "--zipf", "0.9,1.2",
                              "--no-cache", "--oversub", "2", "--seed", "3"])
    assert args.experiment == "serve"
    assert args.smoke and args.no_cache
    assert args.zipf == "0.9,1.2"
    assert args.oversub == 2.0
    assert args.seed == 3
    assert callable(args.func)


def test_serve_smoke_runs_every_cell(capsys):
    """The tier-1 smoke: the full (skew x cache) sweep end to end in seconds."""
    assert main(["serve", "--smoke"]) == 0
    out = capsys.readouterr().out
    for scenario in ("s0.8_direct", "s0.8_cache", "s1.1_direct", "s1.1_cache"):
        assert scenario in out
    assert "Serve path" in out and "serving summary" in out
    assert "cache_hit_pct" in out and "wall time" in out


def test_serve_no_cache_runs_direct_cells_only(capsys):
    assert main(["serve", "--smoke", "--no-cache", "--zipf", "1.1"]) == 0
    out = capsys.readouterr().out
    assert "s1.1_direct" in out
    assert "s1.1_cache" not in out and "s0.8" not in out


def test_parser_knows_routing_flags():
    parser = build_parser()
    args = parser.parse_args(["routing", "--smoke", "--engines", "pastry",
                              "--lookups", "100", "--seed", "9"])
    assert args.experiment == "routing"
    assert args.smoke
    assert args.engines == "pastry"
    assert args.lookups == 100
    assert args.seed == 9
    assert callable(args.func)


def test_routing_smoke_runs_every_panel(capsys):
    """The tier-1 smoke: both routing panels end to end in seconds."""
    assert main(["routing", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "Routing fabric" in out and "Routing under churn" in out
    assert "pastry" in out and "chord" in out
    assert "pastry_avg_hops=" in out and "chord_avg_hops=" in out
    assert "routing summary" in out and "wall time" in out


def test_multicast_overlay_mode_routes_the_tree(capsys):
    assert main(["multicast", "--nodes", "300", "--replicas", "8",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "dissemination tree routed over 300 overlay nodes" in out
    assert "Figure 11" in out and "Figure 12" in out


def test_insertion_command_runs_small(capsys):
    assert main(["insertion", "--nodes", "25", "--files", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out and "Table 1" in out


def _cli_stdout(argv, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return "\n".join(line for line in done.stdout.splitlines()
                     if not line.startswith("wall time:"))


@pytest.mark.parametrize("argv", [
    ["serve", "--smoke"],
    ["soak", "--scale", "0.01", "--days", "0.5", "--seed", "6"],
    ["fig10", "--scale", "0.02"],
])
def test_output_is_identical_across_hash_seeds(argv):
    """Results must not depend on set/dict iteration order of hashed strings."""
    first = _cli_stdout(argv, "1")
    assert first.strip()
    assert first == _cli_stdout(argv, "2")
