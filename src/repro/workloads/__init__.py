"""Workload and trace generation.

The paper drives its simulations with (i) a file-system trace collected from
video-hosting sites, Linux mirrors and departmental servers, filtered to files
of at least 50 MB (about 1.2 M files, mean 243 MB, standard deviation 55 MB,
278.7 TB total), and (ii) node storage capacities drawn from a normal
distribution with mean 45 GB and standard deviation 10 GB (10 000 nodes,
439.1 TB total).  Neither artefact is publicly available, so this package
generates statistically equivalent synthetic traces with deterministic
seeding: a trace is pinned by its config and seed, not by a file.
"""

from repro.workloads.filetrace import (
    FileRecord,
    FileTrace,
    FileTraceConfig,
    generate_file_trace,
)
from repro.workloads.capacity import (
    CapacityConfig,
    generate_capacities,
    PAPER_CAPACITY_CONFIG,
)

__all__ = [
    "FileRecord",
    "FileTrace",
    "FileTraceConfig",
    "generate_file_trace",
    "CapacityConfig",
    "generate_capacities",
    "PAPER_CAPACITY_CONFIG",
]
