"""Desktop-grid substrate for the Condor case study (Section 6.4).

The paper interfaces its storage system with Condor through an
``LD_PRELOAD``-based I/O interposition library and measures a simple
``bigCopy`` job copying files of 1-128 GB across a 32-machine pool on
100 Mb/s Ethernet, comparing three storage schemes: the original whole-file
scheme, a CFS-like fixed-chunk scheme and the proposed varying-chunk scheme.

This package reproduces each moving part:

* :mod:`repro.grid.transfer`  -- the network/time cost model (bandwidth,
  per-lookup latency, interposition overhead);
* :mod:`repro.grid.machines`  -- the pool machines and their contributed space;
* :mod:`repro.grid.condor`    -- a minimal matchmaking scheduler that queues
  and runs jobs on idle machines;
* :mod:`repro.grid.iolib`     -- the interposition layer (open/read/write/close
  with an fd -> storing-node cache) over any store speaking the store
  contract (``store_file`` -> :class:`~repro.overlay.node.StoreResult`,
  ``chunk_sizes``), and :class:`~repro.grid.iolib.WholeFileStore`, the
  original Condor machine that holds each file whole;
* :mod:`repro.grid.bigcopy`   -- the ``bigCopy`` application and the Table 4
  measurement helper.

The package builds on the overlay and the workloads' capacity model alone:
the chunked stores it measures are passed in, never imported.
"""

from repro.grid.transfer import TransferCostModel
from repro.grid.machines import GridMachine, build_condor_pool_nodes
from repro.grid.condor import CondorJob, CondorPool, JobResult
from repro.grid.iolib import InterposedIO, WholeFileStore
from repro.grid.bigcopy import BigCopyResult, run_bigcopy

__all__ = [
    "TransferCostModel",
    "GridMachine",
    "build_condor_pool_nodes",
    "CondorJob",
    "CondorPool",
    "JobResult",
    "InterposedIO",
    "WholeFileStore",
    "BigCopyResult",
    "run_bigcopy",
]
