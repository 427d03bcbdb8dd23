"""Shared fixtures for the throughput benchmarks.

The paper's figures and tables are not benchmarks: their claims live in
``repro.experiments.paper`` and ``python -m repro.cli reproduce`` checks them.
The modules here measure throughput and write the ``BENCH_<name>.json``
records at the repository root through the ``<name>_bench_results`` fixtures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent
_ROOT = _BENCH_DIR.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Session accumulators, one per ``BENCH_<name>.json`` trajectory record at the
#: repository root; the ``test_bench_*.py`` modules fill them through the
#: ``<name>_bench_results`` fixtures and ``pytest_sessionfinish`` writes them.
_RECORDS = {name: {"results": [], "speedups": {}} for name in (
    "insertion", "coding", "churn", "soak", "repair", "faults", "tenants", "serving", "routing")}


def pytest_collection_modifyitems(config, items):
    """Mark every test under benchmarks/ `bench` so tier-1 runs deselect them."""
    for item in items:
        try:
            in_bench_dir = Path(str(item.path)).resolve().is_relative_to(_BENCH_DIR)
        except (OSError, ValueError):
            in_bench_dir = False
        if in_bench_dir:
            item.add_marker(pytest.mark.bench)


def _accumulator(name: str):
    @pytest.fixture(scope="session", name=f"{name}_bench_results")
    def accumulator() -> dict:
        """Session accumulator for one BENCH_<name>.json record (written at exit)."""
        return _RECORDS[name]

    return accumulator


for _name in _RECORDS:
    globals()[f"{_name}_bench_results"] = _accumulator(_name)


def pytest_sessionfinish(session, exitstatus):
    """Persist the BENCH_*.json records so perf trajectories track across PRs.

    Only a clean, complete sweep (summary computed, session green) may
    overwrite the previous record of its file — a failed, filtered or
    interrupted run must not destroy the trajectory, and the records merge
    independently (running only the insertion sweep leaves BENCH_coding.json
    untouched and vice versa).
    """
    if exitstatus != 0:
        return
    for name, record in _RECORDS.items():
        if record["results"] and record["speedups"]:
            (_ROOT / f"BENCH_{name}.json").write_text(json.dumps(record, indent=2) + "\n")

