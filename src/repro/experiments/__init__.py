"""Experiment harnesses that regenerate every figure and table of the paper.

Each module reproduces one measurement loop from Section 6 (or one named
extension) as ``Experiment(config).run()``; the result holds series of points
or table rows, and its ``report()`` is what ``python -m repro.cli`` prints.
The ``PAPER_*`` presets (for Figure 10, Table 3 and the soak the config's own
defaults) run at the paper's 10 000 nodes; the ``SMOKE_*`` presets and the
CLI's ``--scale`` make a run take seconds.

| Module                                       | Results                                  |
|----------------------------------------------|------------------------------------------|
| :mod:`~repro.experiments.storage_insertion`  | Figures 7, 8, 9 and Table 1              |
| :mod:`~repro.experiments.coding_perf`        | Table 2                                  |
| :mod:`~repro.experiments.failure_sweep`      | Figure 10, Table 3, repair panels (ext.) |
| :mod:`~repro.experiments.multicast_replicas` | Figures 11 and 12                        |
| :mod:`~repro.experiments.condor_case_study`  | Table 4                                  |
| :mod:`~repro.experiments.soak`               | join/leave churn soak (ext.)             |
| :mod:`~repro.experiments.faults`             | failure-domain fault panels (ext.)       |
| :mod:`~repro.experiments.tenants`            | per-tenant QoS isolation (ext.)          |
| :mod:`~repro.experiments.serving`            | serve path, cache on/off (ext.)          |
| :mod:`~repro.experiments.routing`            | routing fabric, Pastry vs Chord (ext.)   |

:mod:`~repro.experiments.base` holds the shared configuration and the one
deployment path (``DeploymentConfig`` + ``deploy()`` on
:class:`~repro.api.ClusterSession`); :mod:`~repro.experiments.results` the
``Series`` / ``TableResult`` containers, the report renderer and the
``BENCH_*.json`` renderer.  Names are imported from their module; the
package re-exports nothing.
"""
