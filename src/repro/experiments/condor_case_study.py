"""Condor case study: Table 4.

``bigCopy`` copies files of 1-128 GB into three stores on a
32-machine pool (each machine contributing 2-15 GB, 100 Mb/s Ethernet):

* the original Condor whole-file scheme (the copy must fit on one machine);
* a CFS-like fixed-chunk scheme;
* the proposed varying-chunk scheme.

Every row starts from a fresh pool ("for each run, we started fresh by
deleting all the files from the previous run"), no error coding is used, and
the retry limits are set high enough that chunked schemes always find space
("enough retries were made ... to ensure that all blocks can be stored").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.baselines.cfs import CfsStore
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.experiments.results import TableResult
from repro.grid.bigcopy import BigCopyResult, run_bigcopy
from repro.grid.iolib import WholeFileStore
from repro.grid.machines import build_condor_pool_nodes
from repro.grid.transfer import TransferCostModel
from repro.overlay.dht import DHTView
from repro.overlay.validation import require_range
from repro.workloads.filetrace import GB


@dataclass(frozen=True)
class CondorCaseStudyConfig:
    """Defaults matching the paper's Section 6.4 setup (scaled file list).

    The pool is :func:`build_condor_pool_nodes`' 32 machines and the fixed
    chunks are CFS's 4 MB blocks, both the paper's.
    """

    #: File sizes to copy, in bytes (paper: 1, 2, 4, ..., 128 GB).
    file_sizes: tuple = tuple(int(size) * GB for size in (1, 2, 4, 8, 16, 32, 64, 128))
    #: Retries are effectively unlimited, as in the paper's methodology.
    retries_per_block: int = 64
    zero_chunk_limit: int = 64
    seed: int = 6

    def __post_init__(self) -> None:
        for size in self.file_sizes:
            require_range("file_sizes", size, 0)
        for name in ("retries_per_block", "zero_chunk_limit", "seed"):
            require_range(name, getattr(self, name), 0)


class CondorCaseStudyExperiment:
    """Produces the Table 4 rows: per file size, wall time under each scheme."""

    def __init__(self, config: CondorCaseStudyConfig) -> None:
        self.config = config

    def run(self) -> TableResult:
        config = self.config
        cost = TransferCostModel()
        table = TableResult(
            title="Table 4 — bigCopy wall time (seconds) by storage scheme",
            columns=[
                "file_size_gb",
                "whole_file_s",
                "fixed_chunks_s",
                "fixed_overhead_pct",
                "varying_chunks_s",
                "varying_overhead_pct",
            ],
            float_format="{:.1f}",
        )

        for file_size in config.file_sizes:
            row: Dict[str, object] = {"file_size_gb": file_size / GB}

            # Whole-file scheme: a single designated machine must hold the copy.
            network, machines = build_condor_pool_nodes(seed=config.seed)
            target = max(network.live_nodes(), key=lambda node: node.capacity)
            whole = run_bigcopy(WholeFileStore(target), file_size, cost_model=cost)
            row["whole_file_s"] = whole.elapsed_seconds if whole.success else float("nan")

            # Fixed-size chunks (CFS-like).
            network, machines = build_condor_pool_nodes(seed=config.seed)
            cfs = CfsStore(DHTView(network), retries_per_block=config.retries_per_block)
            fixed = run_bigcopy(cfs, file_size, cost_model=cost)
            row["fixed_chunks_s"] = fixed.elapsed_seconds if fixed.success else float("nan")

            # Varying-size chunks (the proposed system).
            network, machines = build_condor_pool_nodes(seed=config.seed)
            storage = StorageSystem(
                DHTView(network),
                codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
                policy=StoragePolicy(max_consecutive_zero_chunks=config.zero_chunk_limit),
            )
            varying = run_bigcopy(storage, file_size, cost_model=cost)
            row["varying_chunks_s"] = varying.elapsed_seconds if varying.success else float("nan")

            baseline = row["whole_file_s"]
            row["fixed_overhead_pct"] = _overhead_pct(fixed, baseline)
            row["varying_overhead_pct"] = _overhead_pct(varying, baseline)
            table.add_row(**row)
        return table


def _overhead_pct(result: BigCopyResult, baseline: object) -> float:
    if not result.success or not isinstance(baseline, float) or not np.isfinite(baseline) or baseline <= 0:
        return float("nan")
    return 100.0 * (result.elapsed_seconds / baseline - 1.0)
