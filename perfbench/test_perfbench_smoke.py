"""Tier-1 smoke: every workload runs at smoke size and emits the contract's metrics.

A later ``src/`` rename that breaks the benchmark fails here, not in the
benchmark pipeline.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import REGISTRY

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_registry_and_the_harness():
    assert [row["name"] for row in BENCHMARK["workloads"]] == list(REGISTRY)
    assert {row["name"]: row["unit"] for row in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert ({row["name"]: row["unit"] for row in BENCHMARK["per_layer"]}
            == harness.per_layer_units())
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(REGISTRY))
def test_workload_smoke_emits_every_metric(workload, tmp_path):
    report = io.StringIO()
    record = harness.run(workload, seconds=0.0, trace=True, smoke=True,
                         out=report, out_dir=tmp_path)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1

    end_to_end = json.loads(harness.contract_line(record, trace=False))["metrics"]
    assert set(end_to_end) == {row["name"] for row in BENCHMARK["end_to_end"]}
    for row in BENCHMARK["end_to_end"]:
        assert end_to_end[row["name"]]["unit"] == row["unit"]
        assert end_to_end[row["name"]]["value"] > 0

    per_layer = json.loads(harness.contract_line(record, trace=True))["metrics"]
    assert set(per_layer) == {row["name"] for row in BENCHMARK["per_layer"]}
    for row in BENCHMARK["per_layer"]:
        assert per_layer[row["name"]]["unit"] == row["unit"]

    # The traced cycle's layer self times account for its whole measured phase.
    attributed = sum(entry["value"] for name, entry in per_layer.items()
                     if name.endswith(".self_s"))
    assert attributed == pytest.approx(record["traced_wall_s"], rel=0.05)
    assert (tmp_path / f"trace_{workload}.jsonl").stat().st_size > 0
    for name in record["metrics"]:
        assert name in report.getvalue()


def test_tracer_restores_every_patched_entry_point():
    from repro.core.transfer import TransferScheduler
    from repro.sim.engine import Simulator

    from perfbench.tracing import Tracer

    before = (Simulator.schedule, Simulator.run, TransferScheduler.submit_many)
    tracer = Tracer(measure_at_run=True)
    tracer.install()
    assert Simulator.schedule is not before[0]
    tracer.uninstall()
    assert (Simulator.schedule, Simulator.run, TransferScheduler.submit_many) == before
