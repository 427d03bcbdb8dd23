"""Experiment harnesses that regenerate every figure and table of the paper.

Each module reproduces one measurement loop from Section 6 and returns plain
result objects (series of points or table rows) that the benchmarks print and
EXPERIMENTS.md records.  Defaults are scaled down so each experiment runs in
seconds; every configuration accepts the paper's full-scale parameters.

| Module                                       | Results                                  |
|----------------------------------------------|------------------------------------------|
| :mod:`~repro.experiments.storage_insertion`  | Figures 7, 8, 9 and Table 1              |
| :mod:`~repro.experiments.availability`       | Figure 10                                |
| :mod:`~repro.experiments.coding_perf`        | Table 2                                  |
| :mod:`~repro.experiments.churn`              | Table 3                                  |
| :mod:`~repro.experiments.multicast_replicas` | Figures 11 and 12                        |
| :mod:`~repro.experiments.condor_case_study`  | Table 4                                  |
| :mod:`~repro.experiments.soak`               | join/leave churn soak (ext.)             |
| :mod:`~repro.experiments.regeneration`       | bandwidth-aware repair panels (ext.)     |
| :mod:`~repro.experiments.faults`             | failure-domain fault panels (ext.)       |
| :mod:`~repro.experiments.tenants`            | per-tenant QoS isolation (ext.)          |
| :mod:`~repro.experiments.serving`            | serve path, cache on/off (ext.)          |
| :mod:`~repro.experiments.routing`            | routing fabric, Pastry vs Chord (ext.)   |

:mod:`~repro.experiments.base` holds the shared configuration and the one
deployment path (``DeploymentConfig`` + ``deploy()`` on
:class:`~repro.api.ClusterSession`); :mod:`~repro.experiments.results` the
``Series`` / ``TableResult`` containers and the ``BENCH_*.json`` renderer.
"""

from repro.experiments.results import Series, TableResult
from repro.experiments.storage_insertion import (
    InsertionConfig,
    InsertionExperiment,
    InsertionOutcome,
    SchemeCurve,
)
from repro.experiments.availability import AvailabilityConfig, AvailabilityExperiment
from repro.experiments.coding_perf import CodingPerfConfig, run_coding_performance
from repro.experiments.churn import ChurnConfig, ChurnExperiment
from repro.experiments.soak import SoakConfig, SoakExperiment, SoakResult
from repro.experiments.multicast_replicas import MulticastConfig, MulticastExperiment
from repro.experiments.condor_case_study import CondorCaseStudyConfig, run_condor_case_study

__all__ = [
    "Series",
    "TableResult",
    "InsertionConfig",
    "InsertionExperiment",
    "InsertionOutcome",
    "SchemeCurve",
    "AvailabilityConfig",
    "AvailabilityExperiment",
    "CodingPerfConfig",
    "run_coding_performance",
    "ChurnConfig",
    "ChurnExperiment",
    "SoakConfig",
    "SoakExperiment",
    "SoakResult",
    "MulticastConfig",
    "MulticastExperiment",
    "CondorCaseStudyConfig",
    "run_condor_case_study",
]
