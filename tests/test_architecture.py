"""The architecture as tests: the package import graph and the retired names.

``src/repro`` is layered -- ``overlay`` at the bottom (it imports no other
package), ``sim`` on it (the fault injector fails overlay nodes), ``erasure``
on ``sim`` (``derive_seed``), then ``core``, its users (baselines,
workloads, multicast), ``grid`` on the overlay and the workloads alone (the
stores it measures are passed in), ``experiments`` on top of all of them, and
``api`` / ``cli`` as the entry points.  :data:`IMPORT_EDGES` pins which package
imports which (found with ``ast``, function-level imports included); a change
to the layering has to change the table in the same diff.

:data:`RETIRED` lists names that left ``src/`` because a second way of doing
one job was deleted.  Each must stay gone from where the table says (``src/``,
``examples/``, README.md); the last column says what retired it (a commit, or
the call census of ``tests/tools/census.py``) and what replaced it.

:data:`SURFACE` (``tests/golden/public_surface.json``) is the public surface:
every CLI subcommand with its flags, their types and the config it runs with
when no flag is given, plus the public names of ``repro.api`` with their
signatures.  A change to any of them shows in the diff of that file.

``perfbench/tracing.py`` attributes wall time by wrapping named methods; each
name it lists must be a function its owner defines, so a rename fails here.

Every numeric range check in ``src/`` is a call to
:func:`repro.overlay.validation.require_range`: an ``if`` that compares and
raises ``ValueError`` anywhere else fails here, unless :data:`RANGE_GUARDS_KEPT`
names it with a reason.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro.experiments
from repro import api, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Package (or top-level module) -> the other ``repro`` packages it imports.
IMPORT_EDGES = {
    "repro": {"api", "baselines", "core", "erasure", "grid", "multicast", "overlay", "workloads"},
    "api": {"core", "overlay", "sim", "workloads"},
    "baselines": {"core", "overlay"},
    "cli": {"experiments", "overlay", "workloads"},
    "core": {"erasure", "overlay", "sim"},
    "erasure": {"overlay", "sim"},
    "experiments": {"api", "baselines", "core", "erasure", "grid", "multicast", "overlay", "sim",
                    "workloads"},
    "grid": {"overlay", "workloads"},
    "multicast": {"core", "overlay"},
    "overlay": set(),
    "sim": {"overlay"},  # sim/faults.py injects failures into the overlay
    "workloads": {"core", "overlay", "sim"},
}

SURFACE = ROOT / "tests" / "golden" / "public_surface.json"

#: Beside the standard library, the one third-party import ``src/`` may use.
THIRD_PARTY = {"numpy"}

_EVERYWHERE = ("src", "examples", "README.md")
_DEPLOYING = tuple(f"src/repro/experiments/{name}.py" for name in (
    "failure_sweep", "soak", "faults", "tenants", "serving"))
_CENSUS = "the call census (tests/tools/census.py): nothing ran it"

#: (label, retired names as a regex, where they must not reappear, what retired them).
RETIRED = (
    ("seed-path switch",
     r"vectorized\s*[=:]|fast_build|--scalar|_store_file_scalar|_handle_failure_scalar",
     _EVERYWHERE, "e9d0dfd: one placement path; the seed scalar twin lives under tests/reference"),
    ("tuple transfer specs",
     r"TransferSpec \| Tuple|\.coerce\(",
     ("src",), "fb4206a: one transfer-spec shape, no positional tuples"),
    ("per-key row lists",
     r"_file_rows|_slot_rows|_placement_rows|_chunk_placements",
     ("src",), "a1d3dd1: ledger row indexes are lazily sorted views of the columns"),
    ("legacy codes and per-node router",
     r"_legacy|routing_state|stream_version(=|:| )",
     _EVERYWHERE, "28ba8c6: one online-code stream, one array router"),
    ("hand-wired deployments",
     r"OverlayNetwork\.build\(|generate_capacities\(|DHTView\(|TransferScheduler\("
     r"|oversubscribed_topology\(",
     _DEPLOYING, "87d2d7e: experiments deploy through ClusterSession"),
    ("neighbour ledgers and registry",
     r"track_neighbor_ledgers|register_experiment|get_experiment",
     _EVERYWHERE, "87d2d7e: no neighbour ledgers, no experiment registry"),
    ("by-name repair",
     r"classify_block|_recover_block|_migrate_block_scalar|_find_chunk|_find_placement"
     r"|parse_block_name|key_int_for_name|key_digest",
     ("src/repro/core/recovery.py",), "6e06c49: repair reads the ledger record only"),
    ("session sampler",
     r"\bChurnModel\b|\bSessionSample\b|seed_churn",
     _EVERYWHERE, _CENSUS + "; the soak draws its own sessions"),
    ("process layer",
     r"\brun_until_complete\b|\ball_of\b|\bany_of\b|\bclass (Event|Timeout|Process)\b",
     _EVERYWHERE, _CENSUS + "; the kernel is scheduled callbacks, not processes"),
    ("trace files",
     r"\bsave_trace\b|workloads\.traces",
     _EVERYWHERE, _CENSUS + "; a trace is pinned by its config and seed"),
    ("network route dispatch",
     r"\bdispatch\s*=|\bmean_route_hops\b|\btotal_route_hops\b|_dispatch_target",
     _EVERYWHERE, _CENSUS + "; callers route on the engine attach_router returns"),
    ("relocation switch",
     r"\brelocate_when_full\b",
     _EVERYWHERE, _CENSUS + "; repair always relocates when the neighbour is full"),
    ("legacy subcommands",
     r"repro\.cli (availability|churn)\b",
     _EVERYWHERE, _CENSUS + "; fig10 / table3 at --nodes 300 --files 2000 build the same runs"),
    ("per-experiment CLI handlers",
     r"\bdef _run_|\b_scaled\(|\b_timed_run\b|\b(PAPER|SMOKE)_\w+\.\w",
     ("src/repro/cli.py",), "one driver over COMMANDS: presets are the only defaults"),
    ("experiment functions",
     r"\brun_coding_performance\b|\brun_condor_case_study\b",
     _EVERYWHERE, "every experiment is Experiment(config).run() with a report()"),
    ("experiment re-exports",
     r"from repro\.experiments import",
     _EVERYWHERE, "each name is imported from its module, one path per name"),
    ("repair planner / executor and per-trigger copy steps",
     r"\bRepairPlanner\b|\bRepairExecutor\b|\bmigrate_(block|replica|meta)\b"
     r"|\bapply_(regeneration|rereplication)\b|\brestore_object_copy\b",
     _EVERYWHERE, "RecoveryManager: failure and departure share one copy step per copy kind"),
    ("tier-1-only twins",
     r"\bplan_file\b|\bChunkPlan\b|\bStoreAborted\b|\bChunker\b|\bparse_(block|chunk)_name\b"
     r"|\breplica_name\b|\bnumerically_closest\b|\bring_between\b|\bdomain_members\b"
     r"|\bpath_congestion\b|\bchunk_for_offset\b",
     _EVERYWHERE, "the call census (tests/tools/census.py): only their own tests ran them; "
     "StorageSystem sizes chunks, DHTView.lookup and FaultInjector resolve keys and domains"),
    ("tenant ledger views and double bookkeeping",
     r"\bTenantLedgerView\b|\bresolve_ledger\b|\b_multi_tenant\b|\b_tenant_live_delta\b",
     _EVERYWHERE, "a store holds the ledger and a tenant id; tenant_aggregates works one "
     "tenant's counters out of the columns"),
    ("topology-held and per-kind link capacities",
     r"\bset_(rack|site)_trunk\b|\btrunk_capacity\b|\b_topology_version\b|\b_key_capacity\b"
     r"|\b_tenant_cap\b",
     _EVERYWHERE, "one capacity table in TransferScheduler, written through one setter path; "
     "NetworkTopology is read-only once built"),
    ("direct repair submission",
     r"\bdef _submit\b",
     ("src/repro/core/recovery.py",), "every fabric repair goes through the repair class's "
     "TransferPacer (repair_window=None is its pass-through)"),
    ("mirror-image ledger transitions and per-kind copy re-points",
     r"\b_kill_rows\b|\b_revive_rows\b|\b_mark_files_(bad|good)\b|\breplace_(primary|replica)\b",
     _EVERYWHERE, "one rule per ledger transition: _set_alive / _shift_files move counts both "
     "ways, _release_rows releases, replace_copy(kind) re-points either copy kind"),
    ("payload side tables and per-call request slots",
     r"\b_block_payloads\b|\b_request_context\b|\b_effective_(client|observer)\b"
     r"|\b_call_(client|observer)\b",
     _EVERYWHERE, "a block's bytes live on its holder (OverlayNode.payloads), cached bytes in "
     "their LRU entry, and a request's client and observer are arguments"),
    ("settings no entry point changed",
     r"\brollback_on_failure\b|\bwipe_on_return\b|\bcat_store_retries\b|\brecovery_rate\b"
     r"|\bfailure_spacing\b|\bonline_(epsilon|q)\b|\bxor_group_size\b|\binclude_reed_solomon\b"
     r"|\bfixed_chunk_size\b|\bdegrade_(node|bandwidth)_fraction\b"
     r"|\b(intra_rack|intra_site|inter_site)_latency_s\b|\btree_height\b|\bsaturation_fraction\b"
     r"|\brouting_engine\b|\bcache_hit_latency_s\b|\bcfs_retries_per_block\b"
     r"|\bexpected_utilization\b|\bstorm_site\b|\bstart_s\b|\bmin_frame_size\b"
     r"|\b(rack|site)_(up|down)link\b|\bsite_oversubscription\b|\bsuccessor_count\b"
     r"|\bwrite_prefix\b|\bbytes_relocated\b",
     _EVERYWHERE, "one value, one path: each is a module constant or inlined; a failed store "
     "always releases its blocks, and a trunk's capacity is its per-domain topology.trunks entry"),
    ("per-scheme store results and the Table 4 back-end adapters",
     r"\bBaselineStoreResult\b|\bBackendStoreOutcome\b|\bStorageBackend\b"
     r"|\b(Fixed|Varying)ChunkBackend\b|\bWholeFileBackend\b|\bchunk_statistics\b"
     r"|\b_as_baseline_result\b|\bcreate_file\b|\bchunk_layout\b|\buses_interposition\b",
     _EVERYWHERE, "one store contract: PAST, CFS, ours and WholeFileStore answer store_file "
     "with StoreResult and the chunking stores chunk_sizes; InterposedIO takes a store, and "
     "Table 1 comes from InsertionStats for CFS and ours alike"),
    ("module-private range checks",
     r"\b_validate_capacity\b",
     _EVERYWHERE, "one validation boundary: require_range refuses NaN and infinity with "
     "ParameterError"),
    ("bench subcommand and BENCH_*.json renderer",
     r"repro\.cli bench\b|\bbenchmark_(summary|table)\b|\bBENCHMARK_TABLES\b"
     r"|\bload_benchmark_record\b|\b_benchmark_section\b|\bhandler=",
     _EVERYWHERE, "one home for the paper's claims: experiments/paper.py's PAPER_CLAIMS, "
     "checked by `repro.cli reproduce`"),
    ("per-panel failure sweeps",
     r"\b(Availability|Churn|Repair)(Config|Experiment|Result)\b|\bChurnRow\b"
     r"|repro\.experiments\.(availability|churn|regeneration)\b",
     _EVERYWHERE, "one failure sweep: Figure 10, Table 3 and repair are presets of "
     "FailureSweepExperiment, whose repair bandwidth (none, instant or finite) is the only "
     "difference"),
)


#: ``(file under src/repro, function) -> reason`` for a range guard that stays
#: outside :func:`repro.overlay.validation.require_range`.
RANGE_GUARDS_KEPT: dict = {}


def _package_of(path: Path) -> str:
    rel = path.relative_to(PACKAGE)
    return rel.parts[0] if len(rel.parts) > 1 else ("repro" if rel.stem == "__init__" else rel.stem)


def _imports():
    """``(package, imported top-level module name or repro subpackage)`` per import."""
    for path in sorted(PACKAGE.rglob("*.py")):
        package = _package_of(path)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                names = [node.module]
            else:
                continue
            for name in names:
                parts = name.split(".")
                yield package, (parts[1] if parts[0] == "repro" and len(parts) > 1 else parts[0])


def _import_edges():
    edges = {package: set() for package in IMPORT_EDGES}
    for package, target in _imports():
        if (PACKAGE / target).is_dir() or (PACKAGE / f"{target}.py").is_file():
            if target != package:
                edges.setdefault(package, set()).add(target)
    return edges


def test_package_import_edges_are_the_pinned_table():
    assert _import_edges() == IMPORT_EDGES


def test_the_package_import_graph_has_no_cycle():
    edges, done = _import_edges(), set()

    def visit(package, path):
        assert package not in path, f"import cycle: {' -> '.join(path + [package])}"
        if package not in done:
            for target in sorted(edges.get(package, ())):
                visit(target, path + [package])
            done.add(package)

    for package in sorted(edges):
        visit(package, [])


def test_src_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | THIRD_PARTY | {"__future__", "repro"}
    stray = {(package, target) for package, target in _imports()
             if target not in allowed and not (PACKAGE / target).exists()
             and not (PACKAGE / f"{target}.py").exists()}
    assert not stray, f"src/ imports outside the stdlib, numpy and itself: {sorted(stray)}"


def _files(where):
    for entry in where:
        path = ROOT / entry
        assert path.exists(), f"{entry} is gone: point the table at where the code moved"
        yield from (sorted(path.rglob("*.py")) if path.is_dir() else [path])


@pytest.mark.parametrize("label, pattern, where, retired_by", RETIRED,
                         ids=[label for label, *_ in RETIRED])
def test_a_retired_name_stays_retired(label, pattern, where, retired_by):
    regex = re.compile(pattern)
    hits = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in _files(where)
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if regex.search(line)]
    assert not hits, f"{label} retired ({retired_by}) but back:\n" + "\n".join(hits)


def _raises_value_error(statements) -> bool:
    for node in (node for statement in statements for node in ast.walk(statement)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(raised, "id", getattr(raised, "attr", None)) in ("ValueError",
                                                                       "ParameterError"):
                return True
    return False


def _tests_a_range(test) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            return True
        if (isinstance(node, ast.Attribute) and node.attr in ("inf", "isfinite")
                and getattr(node.value, "id", None) == "math"):
            return True
    return False


def range_guards(package: Path = PACKAGE):
    """``(file, function, line)`` of every ``if`` under ``package`` that compares
    (or reads ``math.inf`` / ``math.isfinite``) and raises ``ValueError``,
    outside the helper's own module."""
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if (isinstance(child, ast.If) and _tests_a_range(child.test)
                    and _raises_value_error(child.body)):
                found.append((path, function, child.lineno))
            visit(child, path, function)

    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative != "overlay/validation.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), relative, "<module>")
    return found


def test_every_numeric_guard_goes_through_the_helper():
    """An inline ``if x < 0: raise ValueError`` lets NaN through (and ``x <= 0``
    lets infinity through); require_range states the range once and refuses both."""
    stray = [f"{path}:{line} in {function}()" for path, function, line in range_guards()
             if (path, function) not in RANGE_GUARDS_KEPT]
    assert not stray, "range checks outside require_range:\n" + "\n".join(stray)


def test_digests_are_padded_back_to_20_bytes_in_one_place():
    """NumPy ``S20`` scalars strip trailing NUL bytes; ``idmath.digest_bytes`` is
    the one place that restores them."""
    spelling = re.compile(r"ljust\(20\b|from_bytes\([^)]*tobytes\(\)")
    hits = [f"{path.relative_to(ROOT)}:{number}"
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "idmath.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if spelling.search(line)]
    assert not hits, "an S20 digest padded outside overlay/idmath.py: " + ", ".join(hits)


class _Captured(Exception):
    """Raised instead of running an experiment; carries its config."""


def _capture(experiment, config):
    raise _Captured(config)


def _effective_config(argv):
    """The config ``repro.cli`` hands its experiment for ``argv`` (nothing runs)."""
    with pytest.MonkeyPatch.context() as patch:
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            for name, value in vars(module).items():
                if inspect.isclass(value) and name.endswith("Experiment"):
                    patch.setattr(value, "__init__", _capture)
        with pytest.raises(_Captured) as captured:
            cli.main(argv)
    return json.loads(json.dumps(dataclasses.asdict(captured.value.args[0])))


def _flag_type(action, names):
    if action.nargs == 0:
        return "switch"
    kind = action.type or str
    label = names.get(id(kind)) or kind.__qualname__
    return label + (f" in {','.join(action.choices)}" if action.choices else "")


def _cli_surface():
    names = {id(value): name for name, value in vars(cli).items() if callable(value)}
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        name: {
            "flags": {"/".join(action.option_strings): _flag_type(action, names)
                      for action in sub._actions if action.dest != "help"},
            "config": _effective_config([name]),
        }
        for name, sub in subparsers.choices.items()
    }


def _signature(value) -> str:
    return re.sub(r" at 0x[0-9a-f]+", "", str(inspect.signature(value)))


def _api_surface():
    surface = {}
    defined_here = {name for name, value in vars(api).items() if not name.startswith("_")
                    and getattr(value, "__module__", None) == api.__name__}
    for name in sorted(defined_here | set(api.__all__)):
        value = getattr(api, name)
        if inspect.isclass(value) and issubclass(value, Exception):
            surface[name] = f"exception({value.__base__.__name__})"
            continue
        surface[name] = _signature(value)
        if inspect.isclass(value):
            for member, attribute in vars(value).items():
                if not member.startswith("_"):
                    surface[f"{name}.{member}"] = (
                        "property" if isinstance(attribute, property)
                        else _signature(getattr(value, member)))
    return surface


def public_surface():
    """What :data:`SURFACE` holds, computed from the tree."""
    return {"cli": _cli_surface(), "repro.api": _api_surface()}


def test_the_public_surface_is_the_snapshot():
    assert public_surface() == json.loads(SURFACE.read_text())


def test_every_traced_entry_point_is_a_function_its_owner_defines():
    """The tracer wraps ``owner.__dict__[attr]``: a renamed or inherited target
    would silently zero its layer in the attribution table."""
    from perfbench.tracing import LAYERS, _targets

    broken = []
    for owner, attr, layer, _ in _targets():
        value = vars(owner).get(attr)
        if isinstance(value, classmethod):
            value = value.__func__
        where = (f"{owner.__qualname__}.{attr}" if inspect.isclass(owner) else attr,
                 owner.__module__ if inspect.isclass(owner) else owner.__name__)
        if (layer not in LAYERS or not inspect.isfunction(value)
                or (value.__qualname__, value.__module__) != where):
            broken.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr} ({layer})")
    assert not broken, "perfbench/tracing.py targets nothing real: " + ", ".join(broken)
