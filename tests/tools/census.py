#!/usr/bin/env python3
"""Call census: which ``src/`` functions does anything actually run?

    python tests/tools/census.py              # run every entry point, then report

Every entry point -- tier-1, the perfbench workloads (``--smoke --trace 1``),
the example scripts and every CLI subcommand at a tiny scale -- runs in its own
subprocess with ``tests/tools/census_hook`` on ``PYTHONPATH``.  That hook is a
``sitecustomize`` that records every code object a process enters (child
processes too: ``perfbench/run.py`` re-executes itself, tier-1 starts CLI
subprocesses).  Every function in ``src/`` is enumerated with ``ast`` and keyed
by file, first line (decorators included, as ``co_firstlineno`` counts them)
and name, then classified as

* **never run** -- no entry point entered it;
* **reached only from tier-1** -- only the test suite entered it;
* **live** -- some other entry point entered it.

``benchmarks/`` is not run (its ``-m bench`` session rewrites the root
``BENCH_*.json`` records); a function it names is counted live and listed in a
section of its own, since a static name match cannot tell owners apart.

:data:`KEEP` holds every deliberate keep with its reason, keyed by qualified
name (a class or module name covers everything inside it); the report prints
the reason beside each function it explains and ``UNEXPLAINED`` beside a
never-run or tier-1-only function it does not.  Such a function is either
deleted (a second implementation of a live path, or a capability no product
path, paper figure or table, or named extension calls) or given a reason.

Exit status: 1 when a never-run or tier-1-only function is not explained in
:data:`KEEP`, 2 when an entry point failed (the census is then incomplete),
0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "census_hook"
TIER1 = "tier-1"

#: Every CLI subcommand at a tiny scale (seconds each); ``main`` checks that
#: each subcommand in ``repro.cli.COMMANDS`` has at least one run here, and
#: ``tests/test_cli.py`` compares the stdout of each run whose output has no
#: host-time column against ``tests/golden/cli_stdout.json``.
CLI_RUNS = (
    ("--list",),
    ("insertion", "--nodes", "25", "--files", "300", "--seed", "5"),
    ("fig10", "--scale", "0.02"),
    ("fig10", "--nodes", "60", "--files", "150", "--seed", "3"),
    ("table3", "--scale", "0.02"),
    ("table3", "--nodes", "50", "--files", "120", "--seed", "4"),
    ("soak", "--scale", "0.01", "--days", "1", "--seed", "6"),
    ("repair", "--scale", "0.01"),
    ("faults", "--smoke"),
    ("faults", "--smoke", "--oversub", "4"),
    ("tenants", "--smoke"),
    ("serve", "--smoke"),
    ("coding", "--chunk-mb", "0.25", "--blocks", "64"),
    ("multicast", "--seed", "1"),
    ("multicast", "--nodes", "300", "--replicas", "8", "--seed", "1"),
    ("routing", "--smoke"),
    ("condor", "--sizes", "0,1,16", "--seed", "2"),
    ("reproduce", "--smoke"),
)

_TRACED = "perfbench/tracing.py wraps it by name (its _targets() table)"
_STUB = "interface stub: the array engines implement it"
_ORACLE = "a tests/reference oracle calls it"
_CAT = "CAT recovery, paper section 4.4"
_DELETE = "file deletion: repro.api ArchiveClient.delete and the store contract"
_CFS_REPLICAS = "CFS successor replication (replication > 1), the scheme the baseline models"
_DEGRADE = "degrade_trunk (README-named fault scenario) calls it"
_TRANSFER_FAILURE = "transfer failure: dead links, partitioned trunks, timeouts"
_GROW = "joins past the preallocated table capacity"
_SCALED = "the CLI's --scale applies it; no CLI_RUNS row scales this command"

#: Deliberate keeps of functions no product entry point runs:
#: qualified name (function, class or module) -> why it stays.
KEEP: dict[str, str] = {
    # Never run.
    "repro.erasure.gf2.popcount": "NumPy < 2 fallback for np.bitwise_count",
    "repro.overlay.engine.OverlayRouting": _STUB,
    # Reached only from tier-1 (or named only in benchmarks/): traced, oracles, invariants.
    "repro.overlay.dht.DHTView.lookup": "the per-key oracle of the batched lookups; " + _TRACED,
    "repro.overlay.dht.DHTView.lookup_many": _TRACED,
    "repro.overlay.node_state.digest_array": "packs the keys DHTView.lookup_many resolves",
    "repro.overlay.node_state.NodeArrayState.position": "DHTView.lookup resolves its answer with it",
    "repro.core.capacity.CapacityProbe.probe_chunk": _TRACED,
    "repro.core.capacity.CapacityProbe.probe_names": _TRACED,
    "repro.core.naming.key_for_name": "probe_chunk / probe_names hash names with it",
    "repro.overlay.ids.key_for": "key_for_name's SHA-1",
    "repro.core.block_ledger.BlockLedger.register_whole_file": _TRACED,
    "repro.core.block_ledger.BlockLedger.flush_registrations": _TRACED,
    "repro.overlay.engine.ArrayRouterBase.route": "scalar routing for tests; " + _TRACED,
    "repro.overlay.engine.BatchRouteResult.root_ids": "the seed-router comparison reads it",
    "repro.overlay.network.OverlayNetwork.responsible_node": "brute-force oracle of every lookup",
    "repro.overlay.network.OverlayNetwork.proximity": _ORACLE,
    "repro.overlay.ids.NodeId.digit": _ORACLE,
    "repro.overlay.ids.NodeId.shared_prefix_length": _ORACLE,
    "repro.overlay.ids._as_int": _ORACLE,
    "repro.overlay.ids.distance": _ORACLE,
    "repro.overlay.ids.clockwise_distance": _ORACLE,
    "repro.baselines.cfs.CfsStore.block_entries": _ORACLE,
    "repro.core.block_ledger.BlockLedger.baseline_entries": _ORACLE,
    "repro.baselines.cfs.CfsStore.is_file_available": "O(1) availability, checked against dict_walk",
    "repro.baselines.past.PastStore.is_file_available": "O(1) availability, checked against dict_walk",
    "repro.core.storage.StorageSystem.usage_summary": _ORACLE,
    "repro.core.block_ledger.BlockLedger.check_invariants": "the ledger's invariant call",
    "repro.overlay.node_state.NodeArrayState.check_invariants": "the node state's invariant call",
    "repro.overlay.engine_chord.ChordArrayRouter.successor_list_ids": "a Chord invariant surface",
    "repro.overlay.engine_chord.ChordArrayRouter.finger_ids": "a Chord invariant surface",
    "repro.core.block_ledger.BlockLedger.placements_below": "durability query the repair oracles assert",
    "repro.core.block_ledger.BlockLedger.placement_live_copies": "durability query the repair oracles assert",
    # Reached only from tier-1: public surface and named extensions.
    "repro.api": "the client facade tests/golden/public_surface.json pins",
    "repro.erasure.chunk_codec.get_code": "public package export (repro.__all__)",
    "repro.cli._StoreFields.__call__": "the tenants --no-isolation switch; no CLI_RUNS row passes it",
    "repro.cli._seeds": "the reproduce --seeds flag; no CLI_RUNS row passes it",
    "repro.experiments.routing.RoutingConfig.scaled": _SCALED,
    "repro.experiments.serving.ServingConfig.scaled": _SCALED,
    "repro.experiments.tenants.TenantsConfig.scaled": _SCALED,
    "repro.erasure.reed_solomon": "Reed-Solomon: two examples stripe with its (4+2) spec in "
        "capacity mode; only tier-1 codes bytes with it",
    "repro.erasure.gf2._xor_reduce_grouped": "the narrow-row XOR kernel gf2 selects by size",
    "repro.erasure.chunk_codec.clear_coding_caches": "cold-cache coding measurements (measure(cold=True))",
    "repro.erasure.online_code.clear_code_graph_cache": "cold-cache coding measurements (measure(cold=True))",
    "repro.core.recovery.RecoveryManager.rebuild_cat": _CAT,
    "repro.core.cat.ChunkAllocationTable.deserialize": _CAT,
    "repro.core.cat.ChunkAllocationTable.__eq__": _CAT + " (a rebuilt CAT is compared by value)",
    "repro.core.cat.ChunkAllocationTable.__getitem__": _CAT + " (rows of a rebuilt CAT)",
    "repro.core.cat.ChunkAllocationTable.chunk_sizes": _CAT + " (chunk sizes of a rebuilt CAT)",
    "repro.core.recovery.RecoveryManager._replan_source": "retry re-plan of a failed repair transfer",
    "repro.core.recovery.RecoveryManager._finish.<locals>.submit_spec.<locals>.on_failed":
        "retry re-plan of a failed repair transfer",
    "repro.core.block_ledger.BlockLedger.migrate_group_row":
        "graceful departure of baseline group rows (handle_leave; no perfbench workload departs)",
    "repro.core.block_ledger.BlockLedger.refresh_domains":
        "failure domains re-laid over a population the ledger already tracks",
    "repro.core.storage.StorageSystem.delete_file": _DELETE,
    "repro.core.storage.StorageSystem._release_chunk": _DELETE + "; failed-store rollback",
    "repro.core.storage.StorageSystem._release_placement": _DELETE + "; failed-store rollback",
    "repro.core.block_ledger.BlockLedger.remove_file": _DELETE,
    "repro.core.block_ledger.BlockLedger.file_rows": _DELETE,
    "repro.core.block_ledger.BlockLedger.row_owner": _DELETE,
    "repro.baselines.cfs.CfsStore.delete_file": _DELETE,
    "repro.baselines.past.PastStore.delete_file": _DELETE,
    "repro.grid.iolib.WholeFileStore.delete_file": _DELETE,
    "repro.grid.iolib.InterposedIO.read": "the Table 4 interposed read",
    "repro.grid.iolib.InterposedIO.seek": "the Table 4 interposed seek",
    "repro.grid.condor.CondorPool._advance_to_next_completion":
        "the Condor queue waiting for a busy machine",
    "repro.core.cache.CacheManager.lookup_block": "the payload-mode cache path",
    "repro.core.cache.CacheManager.fill_block": "the payload-mode cache path",
    "repro.core.cache.NodeBlockCache.__contains__": "container protocol the cache tests read",
    "repro.core.cache.NodeBlockCache.__len__": "container protocol the cache tests read",
    "repro.baselines.cfs.CfsStore._replicate": _CFS_REPLICAS,
    "repro.overlay.dht.DHTView.successors": _CFS_REPLICAS,
    "repro.overlay.node_state.NodeArrayState.successor_indices": _CFS_REPLICAS,
    "repro.multicast.tree.build_locality_tree":
        "the section 4.4.1 locality tree MulticastReplicator(simulate_push=True) builds",
    "repro.sim.faults.FaultInjector.degrade_trunk": "README-named fault scenario, oracle-tested",
    "repro.core.transfer.TransferScheduler.set_trunk_bandwidth": _DEGRADE,
    "repro.core.transfer.TransferScheduler._fail_transfer": _TRANSFER_FAILURE,
    "repro.core.transfer.Transfer": _TRANSFER_FAILURE + " (status properties)",
    "repro.core.transfer.TransferScheduler.active_transfers": "per-flow rates the fair-share tests assert",
    "repro.core.transfer.TransferPacer.queue_depth": "backlog gauge the admission tests assert",
    "repro.core.transfer.TransferPacer.idle": "drain check the admission tests assert",
    "repro.overlay.engine.ArrayRouterBase._grow_capacity": _GROW,
    "repro.overlay.engine_chord.ChordArrayRouter._grow_capacity": _GROW,
    "repro.overlay.engine_pastry.PastryArrayRouter._grow_capacity": _GROW,
    "repro.overlay.node.OverlayNode.__repr__": "debugging repr (the generated one lists every block)",
    "repro.workloads.serving.RequestTrace.fingerprint": "trace determinism digest the serving tests compare",
    "repro.experiments.faults.FaultsResult.row": "benchmarks/ reads it",
    "repro.experiments.faults.FaultsExperiment.oversubscription_sweep": "benchmarks/ runs it",
    "repro.experiments.serving.ServingResult.cell": "benchmarks/ reads it",
    "repro.experiments.tenants.TenantsResult.tenant_row": "benchmarks/ reads it",
}


def entry_points() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` per entry point, run from the repository root."""
    python = sys.executable
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    points = [(TIER1, [python, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"])]
    points += [(f"perfbench {name}",
                [python, "perfbench/run.py", "--workload", name, "--smoke", "--trace", "1"])
               for name in workloads]
    points += [(f"example {path.name}", [python, str(path.relative_to(ROOT))])
               for path in sorted((ROOT / "examples").glob("*.py"))]
    points += [("cli " + " ".join(args), [python, "-m", "repro.cli", *args]) for args in CLI_RUNS]
    return points


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


def run_entry_points(data: Path) -> list[str]:
    """Run every entry point under the hook; returns the labels that failed."""
    failed = []
    for label, argv in entry_points():
        env = dict(os.environ, REPRO_CENSUS_OUT=str(data / _slug(label)))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        print(f"  {label:<48} exit {done.returncode}  {time.perf_counter() - start:6.1f}s",
              flush=True)
        if done.returncode != 0:
            failed.append(label)
            print(done.stdout[-4000:])
    return failed


# ------------------------------------------------------------------ functions --
class _Collector(ast.NodeVisitor):
    """Every ``def`` of one module: ``(first line, name) -> (qualname, lines)``."""

    def __init__(self) -> None:
        self.functions: dict[tuple[int, str], tuple[str, int]] = {}
        self._scope: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node) -> None:
        first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
        qualname = ".".join(self._scope + [node.name])
        self.functions[(first, node.name)] = (qualname, node.end_lineno - first + 1)
        self._scope += [node.name, "<locals>"]
        self.generic_visit(node)
        del self._scope[-2:]

    visit_AsyncFunctionDef = visit_FunctionDef


def src_functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(path under src/, first line, name) -> (qualified name, lines)``."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        collector = _Collector()
        collector.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for (first, name), (qualname, lines) in collector.functions.items():
            functions[(rel.as_posix(), first, name)] = (f"{module}.{qualname}", lines)
    return functions


def benchmark_names() -> set[str]:
    """Every attribute, name and imported name ``benchmarks/`` mentions."""
    names = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def recorded(data: Path) -> dict[str, set[tuple[str, int, str]]]:
    """Per entry-point directory: the ``src/`` code objects its processes entered."""
    src = os.path.realpath(SRC) + os.sep
    seen: dict[str, set] = defaultdict(set)
    for directory in sorted(p for p in data.iterdir() if p.is_dir()):
        for record in directory.glob("*.json"):
            for filename, first, name in json.loads(record.read_text()):
                path = os.path.realpath(filename)
                if path.startswith(src):
                    seen[directory.name].add((Path(path[len(src):]).as_posix(), first, name))
    return seen


# ------------------------------------------------------------------- report --
def classify(data: Path):
    functions = src_functions()
    seen = recorded(data)
    tier1 = seen.pop(_slug(TIER1), set())
    live = set().union(*seen.values()) if seen else set()
    named = benchmark_names()
    groups = defaultdict(list)
    for key, (qualname, lines) in sorted(functions.items()):
        if key in live:
            groups["live"].append((key, qualname, lines))
        elif key[2] in named:
            groups["benchmarks"].append((key, qualname, lines))
        elif key in tier1:
            groups["tier-1"].append((key, qualname, lines))
        else:
            groups["never"].append((key, qualname, lines))
    return functions, groups


def keep_reason(qualname: str):
    """The :data:`KEEP` reason for a function, its class or its module (``None``: none)."""
    parts = qualname.split(".")
    for end in range(len(parts), 1, -1):
        reason = KEEP.get(".".join(parts[:end]))
        if reason is not None:
            return reason
    return None


def _line(key, qualname, lines, note="") -> str:
    where = f"{key[0]}:{key[1]}"
    return f"  {where:<40} {qualname:<64} {lines:>4} lines{note}"


def report(data: Path) -> int:
    functions, groups = classify(data)
    total = sum(lines for _, lines in functions.values())
    print(f"\n{len(functions)} functions in src/ ({total} lines of function bodies)")
    sections = [("never", "never run"), ("tier-1", "reached only from tier-1"),
                ("benchmarks", "not run outside tier-1, but named in benchmarks/ (counted live)")]
    unexplained = kept_tier1 = 0
    for group, title in sections:
        rows = groups[group]
        print(f"\n{title}: {len(rows)} functions, {sum(lines for *_, lines in rows)} lines")
        for key, qualname, lines in rows:
            reason = keep_reason(qualname)
            if reason is None and group in ("never", "tier-1"):
                unexplained += 1
                note = "  UNEXPLAINED"
            else:
                kept_tier1 += reason is not None and group == "tier-1"
                note = f"  KEEP: {reason}" if reason else ""
            print(_line(key, qualname, lines, note))
    print(f"\nlive: {len(groups['live'])} functions, "
          f"{sum(lines for *_, lines in groups['live'])} lines")
    explained = [qualname for group in ("never", "tier-1", "benchmarks")
                 for _, qualname, _ in groups[group]]
    stale = sorted(name for name in KEEP
                   if not any(q == name or q.startswith(name + ".") for q in explained))
    if stale:
        print("\nKEEP entries that explain nothing (the function runs, was renamed or is gone):")
        for name in stale:
            print(f"  {name}")
    print(f"\nKEEP: {len(KEEP)} entries; tier-1-only functions kept: {kept_tier1}; "
          f"unexplained never-run or tier-1-only functions: {unexplained}")
    return 1 if unexplained else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.cli import COMMANDS

    missing = {command.name for command in COMMANDS} - {run[0] for run in CLI_RUNS}
    if missing:
        parser.error(f"CLI_RUNS has no run for: {', '.join(sorted(missing))}")
    data = Path(tempfile.mkdtemp(prefix="census-"))
    try:
        print(f"running {len(entry_points())} entry points")
        failed = run_entry_points(data)
        status = report(data)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if failed:
        print(f"\nentry points that failed (census incomplete): {', '.join(failed)}")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
