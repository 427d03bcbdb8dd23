"""Frozen result rows of the experiments no other golden pins.

Figure 10, Table 3 and soak are pinned by their own files under
``tests/golden/``; the repair panels, faults, tenants and serving are pinned here.
``tests/golden/experiment_rows.json`` was dumped at commit ``28ba8c6`` -- the
last one where ``regeneration`` and ``faults`` wired their deployment by hand
-- so any change of a stream label, a construction order or a tenant tag in
the shared deployment path moves a row and fails the comparison.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.failure_sweep import PAPER_REPAIR, FailureSweepExperiment
from repro.experiments.faults import SMOKE_FAULTS, SMOKE_FINITE_CORE, FaultsExperiment
from repro.experiments.serving import SMOKE_SERVING, ServingExperiment
from repro.experiments.tenants import SMOKE_TENANTS, TenantsExperiment
from repro.workloads.filetrace import MB

from reference.golden import jsonable, load_golden

#: Wall-clock entries of the result rows (everything else is simulated).
HOST_TIME_KEYS = ("seconds", "distribute_s", "churn_s", "inject_s", "cell_s")

SMALL_REPAIR = replace(
    PAPER_REPAIR, node_count=80, file_count=160, capacity_mean=400 * MB, capacity_std=100 * MB,
    mean_file_size=24 * MB, std_file_size=8 * MB, min_file_size=4 * MB,
    fail_fractions=(0.05, 0.10, 0.20), leave_fraction=0.10,
)

#: name -> (experiment, the result's row-list attributes).
CASES = {
    "repair": (FailureSweepExperiment(SMALL_REPAIR),
               ("fraction_rows", "bandwidth_rows", "ablation_rows")),
    "faults_smoke": (FaultsExperiment(SMOKE_FAULTS), ("rows",)),
    "faults_finite_core": (FaultsExperiment(SMOKE_FINITE_CORE), ("rows",)),
    "tenants_smoke": (TenantsExperiment(SMOKE_TENANTS), ("rows", "tenant_rows")),
    "serving_smoke": (ServingExperiment(SMOKE_SERVING), ("rows",)),
}


def experiment_rows(name: str):
    """One case's result rows as JSON hands them back, host seconds dropped."""
    experiment, attributes = CASES[name]
    result = experiment.run()
    return jsonable({
        attribute: [
            {key: value for key, value in row.items() if key not in HOST_TIME_KEYS}
            for row in getattr(result, attribute)
        ]
        for attribute in attributes
    })


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_rows_match_the_frozen_ones(name):
    assert experiment_rows(name) == load_golden("experiment_rows.json")[name]
