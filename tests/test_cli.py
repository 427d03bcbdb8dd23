"""Unit tests for the command-line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.experiments.failure_sweep import PAPER_FIG10
from repro.experiments.routing import PAPER_ROUTING
from repro.experiments.serving import PAPER_SERVING
from repro.experiments.soak import PAPER_SOAK
from repro.experiments.tenants import PAPER_TENANTS

_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")
_GOLDEN = _ROOT / "tests" / "golden" / "cli_stdout.json"
_EXAMPLES_GOLDEN = _ROOT / "tests" / "golden" / "examples_stdout.json"


def _census():
    spec = importlib.util.spec_from_file_location("census", _ROOT / "tests" / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The census's CLI runs whose stdout has no host-time column (``coding``,
#: ``routing`` and ``reproduce``, whose Table 2 rows are host milliseconds,
#: print measured timings).
GOLDEN_RUNS = [argv for argv in _census().CLI_RUNS
               if argv[0] not in ("coding", "routing", "reproduce")]


def without_host_seconds(stdout: str) -> str:
    """``stdout`` with the seconds of each ``wall time: X.Ys`` line masked.

    The rest of the line -- the population, corpus or horizon the run
    describes -- stays, so the golden pins it too; a bare wall-time line goes.
    """
    stdout = re.sub(r"^wall time: [0-9.]+s\n", "", stdout, flags=re.MULTILINE)
    return re.sub(r"^wall time: [0-9.]+s", "wall time: -", stdout, flags=re.MULTILINE)


def run_cli(argv) -> str:
    """``repro.cli`` stdout for ``argv``, host seconds masked."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return without_host_seconds(buffer.getvalue())


def test_every_golden_run_has_a_frozen_stdout():
    assert sorted(json.loads(_GOLDEN.read_text())) == sorted(" ".join(argv) for argv in GOLDEN_RUNS)


@pytest.mark.parametrize("argv", GOLDEN_RUNS, ids=" ".join)
def test_stdout_matches_the_golden(argv):
    """Byte-identical to the frozen stdout apart from the wall-time seconds."""
    assert run_cli(argv) == json.loads(_GOLDEN.read_text())[" ".join(argv)]


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
    for name in ("insertion", "fig10", "table3", "coding", "soak", "faults",
                 "tenants", "serve", "routing", "multicast", "condor", "reproduce"):
        args = parser.parse_args([name])
        assert args.experiment == name
        assert callable(args.func)


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


@pytest.mark.parametrize("argv", [
    ["fig10", "--fail-pct", "150"],
    ["table3", "--fractions", "120"],
    ["table3", "--fractions", "10,abc"],
    ["repair", "--bandwidth", "0"],
    ["insertion", "--nodes", "0"],
    ["routing", "--engines", "kademlia"],
    ["tenants", "--oversub", "-2"],
    ["serve", "--oversub", "0.5"],
    ["condor", "--sizes", "1,-2"],
    ["serve", "--zipf", "abc"],
    ["serve", "--clients", "0"],
    ["faults", "--sites", "0"],
    ["faults", "--flash-pct", "150"],
    ["repair", "--spacing", "-1"],
    # Values each experiment refuses only after it has started.
    ["repair", "--scale", "0.02", "--spacing", "0"],
    ["serve", "--smoke", "--cache-mb", "0"],
    ["faults", "--smoke", "--flash-pct", "0"],
    ["soak", "--days", "-1"],
    ["soak", "--join-rate", "-1"],
    ["routing", "--lookups", "0"],
    ["multicast", "--nodes", "-5"],
    ["coding", "--chunk-mb", "inf"],
    ["condor", "--sizes", "inf"],
    ["soak", "--days", "inf"],
    ["serve", "--rate", "nan"],
    ["reproduce", "--seeds", "5-1"],
    ["reproduce", "--seeds", "x"],
    ["availability"],
    ["churn"],
], ids=" ".join)
def test_bad_input_is_a_usage_error_not_a_traceback(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_soak_scalar_flag_is_rejected(capsys):
    """The seed path is gone from the CLI: ``--scalar`` is a usage error."""
    with pytest.raises(SystemExit) as excinfo:
        main(["soak", "--scale", "0.01", "--days", "0.5", "--scalar", "--seed", "6"])
    assert excinfo.value.code == 2
    assert "--scalar" in capsys.readouterr().err


def test_parser_knows_serve_flags():
    parser = build_parser()
    args = parser.parse_args(["serve", "--smoke", "--zipf", "0.9,1.2",
                              "--no-cache", "--oversub", "2", "--seed", "3"])
    assert args.experiment == "serve"
    assert args.smoke
    assert args.cache_modes == (False,)
    assert args.zipf_sweep == (0.9, 1.2)
    assert args.oversubscription == 2.0
    assert args.seed == 3
    assert callable(args.func)


def test_absent_flags_leave_the_preset_alone():
    """Only given flags reach the namespace; ``--no-isolation`` sets two fields."""
    args = vars(build_parser().parse_args(["tenants", "--no-isolation"]))
    assert {name: args[name] for name in args if name not in ("list", "experiment", "func")} == {
        "storm_tenant_weight": 1.0, "storm_tenant_cap_mb_s": None}


@pytest.mark.parametrize("preset, fields", [
    (PAPER_FIG10, {"node_count", "file_count"}),
    (PAPER_SOAK, {"node_count", "file_count", "join_rate_per_hour", "leave_rate_per_hour"}),
    (PAPER_TENANTS, {"node_count", "file_count"}),
    (PAPER_SERVING, {"node_count", "file_count"}),
    (PAPER_ROUTING, {"population_sweep", "churn_nodes", "lookups", "churn_lookups"}),
], ids=lambda value: type(value).__name__ if dataclasses.is_dataclass(value) else "")
def test_scale_multiplies_the_fields_each_config_names(preset, fields):
    """``--scale`` is ``config.scaled(factor)``: each config says what grows with it."""
    half = preset.scaled(0.5)
    assert {field.name for field in dataclasses.fields(preset)
            if getattr(half, field.name) != getattr(preset, field.name)} == fields
    assert half.node_count <= preset.node_count and preset.scaled(1.0) == preset


def test_flags_apply_on_top_of_the_smoke_preset(capsys):
    assert main(["faults", "--smoke", "--sites", "2"]) == 0
    assert "2x4 racks" in capsys.readouterr().out


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
    assert args.engines == ("pastry",)
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
    assert "routing summary" in out
    assert "(sweep (200, 400), 400 lookups/cell, engines pastry, chord)\n" in out


def _python_stdout(args, hashseed: str) -> str:
    """stdout of ``python *args`` in a fresh process with ``src/`` importable."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


#: Table columns and summary keys that ``routing`` fills with host timings.
_HOST_TIMED = ("build_s", "routes_per_s", "build_seconds")


def without_host_timings(stdout: str) -> str:
    """:func:`without_host_seconds`, and every host-timed column and ``key=value`` dropped."""
    lines, drop = [], []
    for line in without_host_seconds(stdout).splitlines():
        cells = line.split()
        if any(cell in _HOST_TIMED for cell in cells):  # a table header
            drop = [index for index, cell in enumerate(cells) if cell in _HOST_TIMED]
        elif not cells:  # a blank line ends the table
            drop = []
        if drop:
            line = " ".join(cell for index, cell in enumerate(cells) if index not in drop)
        lines.append(re.sub(r"\w*(%s)=[0-9.,]+(, )?" % "|".join(_HOST_TIMED), "", line))
    return "\n".join(lines)


def _cli_stdout(argv, hashseed: str) -> str:
    return without_host_timings(_python_stdout(["-m", "repro.cli", *argv], hashseed))


@pytest.mark.parametrize("argv", [
    ["serve", "--smoke"],
    ["soak", "--scale", "0.01", "--days", "0.5", "--seed", "6"],
    ["fig10", "--scale", "0.02"],
    ["table3", "--scale", "0.02"],
    ["repair", "--scale", "0.01"],
    ["faults", "--smoke"],
    ["tenants", "--smoke"],
    ["routing", "--smoke"],
])
def test_output_is_identical_across_hash_seeds(argv):
    """Results must not depend on set/dict iteration order of hashed strings."""
    first = _cli_stdout(argv, "1")
    assert first.strip()
    assert first == _cli_stdout(argv, "2")


def test_every_example_is_pinned():
    pinned = json.loads(_EXAMPLES_GOLDEN.read_text())
    assert sorted(pinned) == sorted(path.name for path in (_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", sorted(json.loads(_EXAMPLES_GOLDEN.read_text())))
def test_example_stdout_matches_the_golden(example):
    """Each example prints byte for byte its frozen stdout (``quickstart.py``
    runs payload mode end to end: store bytes, fail a holder, read them back)."""
    stdout = _python_stdout([str(_ROOT / "examples" / example)], "1")
    assert stdout == json.loads(_EXAMPLES_GOLDEN.read_text())[example]
