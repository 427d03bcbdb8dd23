"""The architecture as tests: the package import graph and the retired names.

``src/repro`` is layered -- ``overlay`` at the bottom (it imports no other
package), ``sim`` on it (the fault injector fails overlay nodes), ``erasure``
on ``sim`` (``derive_seed``), then ``core``, its users (baselines,
workloads, grid, multicast), ``experiments`` on top of all of them, and
``api`` / ``cli`` as the entry points.  :data:`IMPORT_EDGES` pins which package
imports which (found with ``ast``, function-level imports included); a change
to the layering has to change the table in the same diff.

:data:`RETIRED` lists names that left ``src/`` because a second way of doing
one job was deleted.  Each must stay gone from where the table says (``src/``,
``examples/``, README.md); the last column says what retired it (a commit, or
the call census of ``tests/tools/census.py``) and what replaced it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Package (or top-level module) -> the other ``repro`` packages it imports.
IMPORT_EDGES = {
    "repro": {"api", "baselines", "core", "erasure", "grid", "multicast", "overlay", "workloads"},
    "api": {"core", "overlay", "sim", "workloads"},
    "baselines": {"core", "overlay"},
    "cli": {"experiments", "overlay", "workloads"},
    "core": {"erasure", "overlay", "sim"},
    "erasure": {"sim"},
    "experiments": {"api", "baselines", "core", "erasure", "grid", "multicast", "overlay", "sim",
                    "workloads"},
    "grid": {"baselines", "core", "overlay", "workloads"},
    "multicast": {"core", "overlay"},
    "overlay": set(),
    "sim": {"overlay"},  # sim/faults.py injects failures into the overlay
    "workloads": {"core", "overlay", "sim"},
}

#: Beside the standard library, the one third-party import ``src/`` may use.
THIRD_PARTY = {"numpy"}

_EVERYWHERE = ("src", "examples", "README.md")
_DEPLOYING = tuple(f"src/repro/experiments/{name}.py" for name in (
    "availability", "churn", "regeneration", "soak", "faults", "tenants", "serving"))
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
)


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
